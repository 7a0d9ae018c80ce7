module Atom_set = Set.Make (Atom)

(* Key for the (predicate, first constant argument) index. *)
module First_arg = struct
  type t = int * int (* symbol ids *)

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash = Hashtbl.hash
end

module First_tbl = Hashtbl.Make (First_arg)

(* ---------- the in-memory backend ---------- *)

(* A predicate's facts with their count kept beside them: SLD asks
   [count_pred_id] on every goal, and [Atom_set.cardinal] walks the set. *)
type pred_facts = { mutable facts : Atom_set.t; mutable count : int }

type mem = {
  by_pred : (int, pred_facts) Hashtbl.t;
  by_first : Atom_set.t ref First_tbl.t;
  (* [size] and [generation] are read by cache-invalidation checks on
     serve-path worker domains while a mutator may be mid-[add]; atomics
     make those racing reads well-defined (monotonic, never torn). The
     index tables themselves still require external synchronization for
     concurrent mutation. *)
  size : int Atomic.t;
  token : int;
  generation : int Atomic.t;
}

(* Unique per instance, so caches can tell two databases apart even when
   their generation counters coincide. Always nonnegative — a paged
   store's persistent token is negative, so the two can never collide. *)
let next_token = Atomic.make 0

(* A table keyed by predicate symbol id. The in-memory backend's
   [by_pred] and [bulk_load]'s grouping are both made here and filled by
   [pred_slot] in first-appearance order, so [Hashtbl.iter] visits their
   predicates in the same order. *)
let pred_table () = Hashtbl.create 64

let pred_slot tbl pred_id make =
  match Hashtbl.find_opt tbl pred_id with
  | Some r -> r
  | None ->
    let r = make () in
    Hashtbl.add tbl pred_id r;
    r

let m_create () =
  {
    by_pred = pred_table ();
    by_first = First_tbl.create 256;
    size = Atomic.make 0;
    token = Atomic.fetch_and_add next_token 1;
    generation = Atomic.make 0;
  }

let first_key fact =
  match fact.Atom.args with
  | Term.Const c :: _ -> Some (Symbol.id fact.Atom.pred, Symbol.id c)
  | _ -> None

let find_pred m pred_id =
  pred_slot m.by_pred pred_id (fun () -> { facts = Atom_set.empty; count = 0 })

let find_first m key =
  match First_tbl.find_opt m.by_first key with
  | Some r -> r
  | None ->
    let r = ref Atom_set.empty in
    First_tbl.add m.by_first key r;
    r

let m_add m fact =
  if not (Atom.is_ground fact) then invalid_arg "Database.add: non-ground fact";
  let pf = find_pred m (Symbol.id fact.Atom.pred) in
  if Atom_set.mem fact pf.facts then false
  else begin
    pf.facts <- Atom_set.add fact pf.facts;
    pf.count <- pf.count + 1;
    (match first_key fact with
    | Some key ->
      let s = find_first m key in
      s := Atom_set.add fact !s
    | None -> ());
    Atomic.incr m.size;
    Atomic.incr m.generation;
    true
  end

let m_remove m fact =
  match Hashtbl.find_opt m.by_pred (Symbol.id fact.Atom.pred) with
  | None -> false
  | Some pf ->
    if not (Atom_set.mem fact pf.facts) then false
    else begin
      pf.facts <- Atom_set.remove fact pf.facts;
      pf.count <- pf.count - 1;
      (match first_key fact with
      | Some key -> (
        match First_tbl.find_opt m.by_first key with
        | Some s -> s := Atom_set.remove fact !s
        | None -> ())
      | None -> ());
      Atomic.decr m.size;
      Atomic.incr m.generation;
      true
    end

let m_mem m fact =
  match Hashtbl.find_opt m.by_pred (Symbol.id fact.Atom.pred) with
  | None -> false
  | Some pf -> Atom_set.mem fact pf.facts

let m_candidates m pattern =
  match pattern.Atom.args with
  | Term.Const c :: _ -> (
    match
      First_tbl.find_opt m.by_first (Symbol.id pattern.Atom.pred, Symbol.id c)
    with
    | Some s -> !s
    | None -> Atom_set.empty)
  | _ -> (
    match Hashtbl.find_opt m.by_pred (Symbol.id pattern.Atom.pred) with
    | Some pf -> pf.facts
    | None -> Atom_set.empty)

let m_count_pred_id m pred_id =
  match Hashtbl.find_opt m.by_pred pred_id with
  | Some pf -> pf.count
  | None -> 0

(* ---------- the paged backend ---------- *)

(* A paged database is a [Store.t] plus the two-way mapping between
   process-run [Symbol] ids and the store's persistent sids. The mapping
   is complete at all times: every sid in the store is entered at open
   (or at intern time for new symbols), so a missing entry means "this
   symbol is not in the store" — read paths never touch strings. *)
type paged = {
  store : Store.t;
  mutable sym_to_sid : int array; (* Symbol.id -> sid, -1 unmapped *)
  mutable sid_syms : Symbol.t array; (* sid -> symbol *)
  mutable sid_terms : Term.t array; (* sid -> shared Const (hot path) *)
  mutable sid_n : int;
}

let dummy_sym = Symbol.intern ""
let dummy_term = Term.Const dummy_sym

let record_mapping p sym sid =
  let id = Symbol.id sym in
  if id >= Array.length p.sym_to_sid then begin
    let cap = Int.max (2 * Array.length p.sym_to_sid) (id + 64) in
    let a = Array.make cap (-1) in
    Array.blit p.sym_to_sid 0 a 0 (Array.length p.sym_to_sid);
    p.sym_to_sid <- a
  end;
  p.sym_to_sid.(id) <- sid;
  if sid >= Array.length p.sid_syms then begin
    let cap = Int.max (2 * Array.length p.sid_syms) (sid + 64) in
    let a = Array.make cap dummy_sym in
    Array.blit p.sid_syms 0 a 0 (Array.length p.sid_syms);
    p.sid_syms <- a
  end;
  p.sid_syms.(sid) <- sym;
  if sid >= Array.length p.sid_terms then begin
    let cap = Int.max (2 * Array.length p.sid_terms) (sid + 64) in
    let a = Array.make cap dummy_term in
    Array.blit p.sid_terms 0 a 0 (Array.length p.sid_terms);
    p.sid_terms <- a
  end;
  p.sid_terms.(sid) <- Term.Const sym;
  if sid >= p.sid_n then p.sid_n <- sid + 1

let sid_intern p sym =
  let id = Symbol.id sym in
  if id < Array.length p.sym_to_sid && p.sym_to_sid.(id) >= 0 then
    p.sym_to_sid.(id)
  else begin
    let sid = Store.sid_intern p.store (Symbol.to_string sym) in
    record_mapping p sym sid;
    sid
  end

let sid_ro p sym =
  let id = Symbol.id sym in
  if id < Array.length p.sym_to_sid then p.sym_to_sid.(id) else -1

let sym_of_sid p sid = p.sid_syms.(sid)

(* Materialize a stored record as an atom. The per-sid [Const] terms
   are shared (terms are immutable), so this allocates only the arg
   list spine and the atom itself — it runs once per candidate on the
   retrieval hot path. *)
let atom_of p pred_sid args =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (p.sid_terms.(args.(i)) :: acc)
  in
  Atom.make_sym (sym_of_sid p pred_sid) (build (Array.length args - 1) [])

(* The predicate's sid is taken before the arguments', left to right:
   that order fixes the sids a fresh store assigns. *)
let fact_sids sid_of fact =
  let pred = sid_of fact.Atom.pred in
  let args =
    List.map
      (function
        | Term.Const c -> sid_of c
        | Term.Var _ -> invalid_arg "Database: non-ground fact")
      fact.Atom.args
  in
  (pred, Array.of_list args)

(* [None] when some symbol is not in the store — the fact cannot be
   present. Also [None] for non-ground atoms. *)
let fact_sids_ro p fact =
  match sid_ro p fact.Atom.pred with
  | -1 -> None
  | pred ->
    let rec go acc = function
      | [] -> Some (pred, Array.of_list (List.rev acc))
      | Term.Const c :: rest -> (
        match sid_ro p c with -1 -> None | s -> go (s :: acc) rest)
      | Term.Var _ :: _ -> None
    in
    go [] fact.Atom.args

let p_add p fact =
  if not (Atom.is_ground fact) then invalid_arg "Database.add: non-ground fact";
  let pred, args = fact_sids (sid_intern p) fact in
  Store.insert p.store ~pred args

let p_remove p fact =
  match fact_sids_ro p fact with
  | None -> false
  | Some (pred, args) -> Store.delete p.store ~pred args

let p_mem p fact =
  match fact_sids_ro p fact with
  | None -> false
  | Some (pred, args) -> Store.mem p.store ~pred args

(* Candidate retrieval mirrors the in-memory indexes: bound first
   argument goes through the store's (pred, first) hash access method;
   otherwise a page-sequential predicate scan. *)
let p_iter_candidates p pattern k =
  match sid_ro p pattern.Atom.pred with
  | -1 -> ()
  | pred -> (
    match pattern.Atom.args with
    | Term.Const c :: _ -> (
      match sid_ro p c with
      | -1 -> ()
      | first ->
        Store.iter_bucket p.store ~pred ~first (fun args ->
            k (atom_of p pred args)))
    | [] ->
      Store.iter_bucket p.store ~pred ~first:(-1) (fun args ->
          k (atom_of p pred args))
    | _ -> Store.iter_pred p.store ~pred (fun args -> k (atom_of p pred args)))

(* ---------- the database: a backend seam ---------- *)

type t = Mem of mem | Paged of paged

let create () = Mem (m_create ())

let size = function
  | Mem m -> Atomic.get m.size
  | Paged p -> Store.fact_count p.store

let token = function Mem m -> m.token | Paged p -> Store.token p.store

let generation = function
  | Mem m -> Atomic.get m.generation
  | Paged p -> Store.generation p.store

let mem db fact =
  match db with Mem m -> m_mem m fact | Paged p -> p_mem p fact

let add db fact =
  match db with Mem m -> m_add m fact | Paged p -> p_add p fact

let remove db fact =
  match db with Mem m -> m_remove m fact | Paged p -> p_remove p fact

let iter_candidates db pattern k =
  match db with
  | Mem m -> Atom_set.iter k (m_candidates m pattern)
  | Paged p -> p_iter_candidates p pattern k

let matching db pattern =
  let acc = ref [] in
  iter_candidates db pattern (fun fact ->
      match Subst.match_atom ~pattern ~ground:fact Subst.empty with
      | Some s -> acc := (fact, s) :: !acc
      | None -> ());
  !acc

exception Found of Atom.t * Subst.t

let first_match db pattern =
  try
    iter_candidates db pattern (fun fact ->
        match Subst.match_atom ~pattern ~ground:fact Subst.empty with
        | Some s -> raise (Found (fact, s))
        | None -> ());
    None
  with Found (fact, s) -> Some (fact, s)

let count_pred_id db pred_id =
  match db with
  | Mem m -> m_count_pred_id m pred_id
  | Paged p ->
    if pred_id < Array.length p.sym_to_sid && p.sym_to_sid.(pred_id) >= 0 then
      Store.count_pred p.store ~pred:p.sym_to_sid.(pred_id)
    else 0

let count_pred db name = count_pred_id db (Symbol.id (Symbol.intern name))

let iter f db =
  match db with
  | Mem m -> Hashtbl.iter (fun _ pf -> Atom_set.iter f pf.facts) m.by_pred
  | Paged p ->
    Store.iter_all p.store (fun ~pred args -> f (atom_of p pred args))

let fold f db init =
  let acc = ref init in
  iter (fun fact -> acc := f fact !acc) db;
  !acc

let to_list db = fold (fun fact acc -> fact :: acc) db []

let of_list facts =
  let db = create () in
  List.iter (fun fact -> ignore (add db fact)) facts;
  db

let copy db = of_list (to_list db)

let predicates db =
  match db with
  | Mem m ->
    Hashtbl.fold
      (fun _ pf acc ->
        match Atom_set.choose_opt pf.facts with
        | None -> acc
        | Some fact -> (fact.Atom.pred, pf.count) :: acc)
      m.by_pred []
    |> List.sort (fun (a, _) (b, _) -> Symbol.compare a b)
  | Paged p ->
    Store.pred_counts p.store
    |> List.map (fun (sid, n) -> (sym_of_sid p sid, n))
    |> List.sort (fun (a, _) (b, _) -> Symbol.compare a b)

let pp ppf db =
  let facts = List.sort Atom.compare (to_list db) in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
    (fun ppf a -> Format.fprintf ppf "%a." Atom.pp a)
    ppf facts

(* ---------- paged backend management ---------- *)

let open_paged ~dir ?page_size ?buffer_pages ?wal_sync () =
  let store =
    Store.open_ ~dir ?page_size ?pool_pages:buffer_pages ?sync:wal_sync ()
  in
  let p =
    { store; sym_to_sid = [||]; sid_syms = [||]; sid_terms = [||]; sid_n = 0 }
  in
  let n = Store.n_syms store in
  for sid = 0 to n - 1 do
    record_mapping p (Symbol.intern (Store.sid_name store sid)) sid
  done;
  Paged p

let bulk_load db facts =
  match db with
  | Mem _ -> invalid_arg "Database.bulk_load: not a paged database"
  | Paged p ->
    if Store.fact_count p.store > 0 then
      invalid_arg "Database.bulk_load: the store holds facts";
    (* Group the facts as [of_list] fills [by_pred], each group in
       [Atom_set] order: [iter (of_list facts)]'s facts in its order. *)
    let groups = pred_table () in
    List.iter
      (fun fact ->
        if not (Atom.is_ground fact) then
          invalid_arg "Database.bulk_load: non-ground fact";
        let g = pred_slot groups (Symbol.id fact.Atom.pred) (fun () -> ref []) in
        g := fact :: !g)
      facts;
    Hashtbl.iter (fun _ g -> g := List.sort_uniq Atom.compare !g) groups;
    (* Assign sids as [add] would, in order of first appearance, and
       record each mapping as it is made. *)
    let next_sid = ref (Store.n_syms p.store) and names = ref [] in
    let sid_of sym =
      match sid_ro p sym with
      | -1 ->
        let sid = !next_sid in
        incr next_sid;
        names := Symbol.to_string sym :: !names;
        record_mapping p sym sid;
        sid
      | sid -> sid
    in
    Hashtbl.iter
      (fun _ g -> List.iter (fun fact -> ignore (fact_sids sid_of fact)) !g)
      groups;
    Store.bulk_load p.store ~names:(List.rev !names)
      (Hashtbl.fold
         (fun pred_id g acc ->
           let rows f =
             List.iter (fun fact -> f (snd (fact_sids (sid_ro p) fact))) !g
           in
           (p.sym_to_sid.(pred_id), rows) :: acc)
         groups [])

let store_stats = function
  | Mem _ -> None
  | Paged p -> Some (Store.stats p.store)

let close = function Mem _ -> () | Paged p -> Store.close p.store
let checkpoint = function Mem _ -> () | Paged p -> Store.checkpoint p.store
let sync = function Mem _ -> () | Paged p -> Store.sync p.store
let backend_name = function Mem _ -> "mem" | Paged _ -> "paged"
