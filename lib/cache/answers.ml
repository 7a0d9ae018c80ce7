module D = Datalog

module L = Lru.Make (struct
  type t = D.Atom.t

  let equal = D.Atom.equal
  let hash = D.Atom.hash
end)

type entry = {
  token : int;
  gen : int;
  answered : bool;
  bindings : (int * D.Term.t) list; (* canonical-variable index -> term *)
  reductions : int;
  retrievals : int;
  cost : float;
}

type hit = {
  result : D.Subst.t option;
  derived : bool;
  reductions : int;
  retrievals : int;
  cost : float;
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  bytes : int;
  capacity_bytes : int;
}

type t = {
  lru : entry L.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  invalidations : int Atomic.t;
}

let create ?shards ?subsume:_ ~capacity_bytes () =
  {
    lru = L.create ?shards ~capacity_bytes ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    invalidations = Atomic.make 0;
  }

(* Rough resident footprint: hashtable slot + LRU node + key atom + entry
   record, plus per-binding boxes. Precision doesn't matter — the
   estimate only has to scale with entry size so the byte budget means
   something. *)
let estimate_bytes (key : D.Atom.t) e =
  192 + (32 * List.length key.D.Atom.args) + (64 * List.length e.bindings)

(* Rebase a substitution over [vars] (the querying atom's variables, in
   first-occurrence order) into canonical space: index -> term, with the
   term's own variables renamed to their canonical counterparts. *)
let canonical_bindings vars s =
  let to_canonical tm =
    match tm with
    | D.Term.Const _ -> tm
    | D.Term.Var v ->
      let rec go i =
        if i >= Array.length vars then tm
        else if D.Term.equal_var vars.(i) v then
          D.Term.Var (Key.canonical_var i)
        else go (i + 1)
      in
      go 0
  in
  let bs = ref [] in
  Array.iteri
    (fun i v ->
      (* [apply] resolves chains; an unbound variable maps to itself. *)
      match D.Subst.apply s (D.Term.Var v) with
      | D.Term.Var v' when D.Term.equal_var v v' -> ()
      | tm -> bs := (i, to_canonical tm) :: !bs)
    vars;
  List.rev !bs

let store t ~db query ~result ~reductions ~retrievals ~cost =
  let key, vars = Key.of_atom query in
  let answered, bindings =
    match result with
    | None -> (false, [])
    | Some s -> (true, canonical_bindings vars s)
  in
  let e =
    {
      token = D.Database.token db;
      gen = D.Database.generation db;
      answered;
      bindings;
      reductions;
      retrievals;
      cost;
    }
  in
  L.add t.lru key e ~bytes:(estimate_bytes key e)

let exact_hit vars e =
  let from_canonical tm =
    match tm with
    | D.Term.Const _ -> tm
    | D.Term.Var v -> (
      match Key.index_of_canonical v with
      | Some i when i < Array.length vars -> D.Term.Var vars.(i)
      | _ -> tm)
  in
  let result =
    if not e.answered then None
    else
      Some
        (List.fold_left
           (fun s (i, tm) -> D.Subst.bind vars.(i) (from_canonical tm) s)
           D.Subst.empty e.bindings)
  in
  {
    result;
    derived = false;
    reductions = e.reductions;
    retrievals = e.retrievals;
    cost = e.cost;
  }

let find t ~db query =
  let key, vars = Key.of_atom query in
  match L.find t.lru key with
  | Some e
    when e.token = D.Database.token db && e.gen = D.Database.generation db ->
    Atomic.incr t.hits;
    Some (exact_hit vars e)
  | Some _ ->
    (* Stale: filled against another database state. *)
    ignore (L.remove t.lru key);
    Atomic.incr t.invalidations;
    Atomic.incr t.misses;
    None
  | None ->
    Atomic.incr t.misses;
    None

let counters t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    invalidations = Atomic.get t.invalidations;
    evictions = L.evictions t.lru;
    entries = L.length t.lru;
    bytes = L.bytes t.lru;
    capacity_bytes = L.capacity_bytes t.lru;
  }
