type stats = {
  mutable reductions : int;
  mutable retrievals : int;
  mutable retrieval_hits : int;
  mutable naf_calls : int;
  mutable truncated : bool;
}

let fresh_stats () =
  {
    reductions = 0;
    retrievals = 0;
    retrieval_hits = 0;
    naf_calls = 0;
    truncated = false;
  }

(* Subgoal memoization ("tabling-lite"): completed ground subgoals map to a
   boolean proved/failed verdict. Entries record the database token and
   generation they were computed at and are invalidated lazily on lookup, so
   the table can outlive individual queries and be shared across requests. *)
module Memo = struct
  module Tbl = Hashtbl.Make (struct
    type t = Atom.t

    let equal = Atom.equal
    let hash = Atom.hash
  end)

  type slot = { token : int; gen : int; proved : bool }

  type shard = {
    lock : Mutex.t;
    tbl : slot Tbl.t;
    mutable hits : int;
    mutable misses : int;
    mutable invalidations : int;
  }

  type t = { shards : shard array; max_entries_per_shard : int }

  type counters = {
    hits : int;
    misses : int;
    invalidations : int;
    entries : int;
  }

  let create ?(shards = 8) ?(max_entries = 1 lsl 16) () =
    if shards < 1 then invalid_arg "Sld.Memo.create: shards must be >= 1";
    {
      shards =
        Array.init shards (fun _ ->
            {
              lock = Mutex.create ();
              tbl = Tbl.create 64;
              hits = 0;
              misses = 0;
              invalidations = 0;
            });
      max_entries_per_shard = max 1 (max_entries / shards);
    }

  let shard_of t atom =
    t.shards.(Atom.hash atom land max_int mod Array.length t.shards)

  let find t ~token ~gen atom =
    let sh = shard_of t atom in
    Mutex.lock sh.lock;
    let r =
      match Tbl.find_opt sh.tbl atom with
      | Some s when s.token = token && s.gen = gen ->
        sh.hits <- sh.hits + 1;
        Some s.proved
      | Some _ ->
        Tbl.remove sh.tbl atom;
        sh.invalidations <- sh.invalidations + 1;
        sh.misses <- sh.misses + 1;
        None
      | None ->
        sh.misses <- sh.misses + 1;
        None
    in
    Mutex.unlock sh.lock;
    r

  let add t ~token ~gen atom proved =
    let sh = shard_of t atom in
    Mutex.lock sh.lock;
    (* Wholesale reset on overflow: memo entries are cheap to recompute and
       an LRU here would put list surgery on every resolution step. *)
    if Tbl.length sh.tbl >= t.max_entries_per_shard then Tbl.reset sh.tbl;
    Tbl.replace sh.tbl atom { token; gen; proved };
    Mutex.unlock sh.lock

  let clear t =
    Array.iter
      (fun sh ->
        Mutex.lock sh.lock;
        Tbl.reset sh.tbl;
        Mutex.unlock sh.lock)
      t.shards

  let counters t =
    Array.fold_left
      (fun acc sh ->
        Mutex.lock sh.lock;
        let r =
          {
            hits = acc.hits + sh.hits;
            misses = acc.misses + sh.misses;
            invalidations = acc.invalidations + sh.invalidations;
            entries = acc.entries + Tbl.length sh.tbl;
          }
        in
        Mutex.unlock sh.lock;
        r)
      { hits = 0; misses = 0; invalidations = 0; entries = 0 }
      t.shards
end

type config = {
  rulebase : Rulebase.t;
  db : Database.t;
  rule_order : Atom.t -> Clause.t list -> Clause.t list;
  depth_limit : int;
  tracer : Trace.t;
  parent : Trace.span;
  memo : Memo.t option;
}

let config ?(rule_order = fun _ rules -> rules) ?(depth_limit = 512)
    ?(tracer = Trace.null) ?(parent = Trace.dummy) ?memo ~rulebase ~db () =
  { rulebase; db; rule_order; depth_limit; tracer; parent; memo }

exception Floundering of Atom.t

(* Select the first literal that is ready to run: any positive literal, or a
   negative literal that is ground under [s]. Returns the literal and the
   remaining goals (order otherwise preserved). *)
let select s goals =
  let rec go acc = function
    | [] -> None
    | (Clause.Pos _ as l) :: rest -> Some (l, List.rev_append acc rest)
    | (Clause.Neg a as l) :: rest ->
      if Atom.is_ground (Subst.apply_atom s a) then
        Some (l, List.rev_append acc rest)
      else go (l :: acc) rest
  in
  go [] goals

let goal_vars goals =
  List.fold_left
    (fun acc l -> Term.Var_set.union acc (Atom.var_set (Clause.lit_atom l)))
    Term.Var_set.empty goals

(* The solver: returns a lazy sequence of substitutions extending [s] that
   prove [goals]. [gen] is a mutable fresh-generation counter shared across
   the whole derivation so standardized-apart clauses never collide. [sp] is
   the trace span the current derivation step reports under; with the [null]
   tracer every trace call is a single tag test. *)
let rec prove cfg stats gen depth sp s goals : Subst.t Seq.t =
  match goals with
  | [] -> Seq.return s
  | _ -> (
    if depth > cfg.depth_limit then begin
      stats.truncated <- true;
      Seq.empty
    end
    else
      match select s goals with
      | None ->
        (* Only non-ground negative literals remain: floundering. *)
        let atom =
          match goals with
          | Clause.Neg a :: _ -> Subst.apply_atom s a
          | _ -> assert false
        in
        raise (Floundering atom)
      | Some (Clause.Pos atom, rest) -> (
        let atom = Subst.apply_atom s atom in
        match cfg.memo with
        | Some _ when Atom.is_ground atom ->
          (* A ground subgoal adds no bindings: its subtree is a pure
             existence test, so one memoized verdict stands in for every
             backtrack into it. *)
          if memo_prove cfg stats gen depth sp atom then
            prove cfg stats gen depth sp s rest
          else Seq.empty
        | _ -> expand cfg stats gen depth sp s atom rest)
      | Some (Clause.Neg atom, rest) ->
        let atom = Subst.apply_atom s atom in
        stats.naf_calls <- stats.naf_calls + 1;
        let sp' =
          if Trace.enabled cfg.tracer then
            Trace.push cfg.tracer sp ~kind:"naf" (Atom.to_string atom)
          else sp
        in
        let holds =
          (* Sub-proof for the NAF test; shares counters and depth budget.
             The tested atom is ground (guaranteed by [select]), so it is
             memoizable like any other ground subgoal. *)
          match cfg.memo with
          | Some _ -> memo_prove cfg stats gen (depth + 1) sp' atom
          | None ->
            not
              (Seq.is_empty
                 (prove cfg stats gen (depth + 1) sp' Subst.empty
                    [ Clause.Pos atom ]))
        in
        if holds then Seq.empty else prove cfg stats gen depth sp s rest)

(* Expansion of a single positive goal against facts and rules. Factored out
   of [prove] so [memo_prove] can expand the goal it is memoizing without
   re-entering the memo check for that same goal. *)
and expand cfg stats gen depth sp s atom rest =
  let has_rules = Rulebase.rules_for cfg.rulebase atom.Atom.pred <> [] in
  let has_facts = Database.count_pred_id cfg.db (Symbol.id atom.Atom.pred) > 0 in
  let from_facts () =
    (* Database retrieval: a satisficing engine pays for the attempt
       whether or not it succeeds (Section 2.1 blocking semantics).
       A purely intensional predicate (rules, no facts) is not a
       retrieval at all — skip the probe so cost statistics match the
       paper's inference-graph model. *)
    if has_rules && not has_facts then Seq.empty
    else begin
      stats.retrievals <- stats.retrievals + 1;
      let matches = Database.matching cfg.db atom in
      if matches <> [] then stats.retrieval_hits <- stats.retrieval_hits + 1;
      if Trace.enabled cfg.tracer then
        Trace.event cfg.tracer sp ~kind:"retrieval" ~cost:1.0
          ~attrs:
            [
              ("pattern", Atom.to_string atom);
              ("hit", if matches <> [] then "true" else "false");
            ]
          (Symbol.to_string atom.Atom.pred);
      List.to_seq matches
      |> Seq.filter_map (fun (_fact, s_fact) ->
             (* Merge the fact bindings into [s]. *)
             List.fold_left
               (fun acc (v, t) ->
                 match acc with
                 | None -> None
                 | Some s -> Subst.unify (Term.Var v) t s)
               (Some s) (Subst.to_alist s_fact))
      |> Seq.concat_map (fun s' -> prove cfg stats gen depth sp s' rest)
    end
  in
  let from_rules () =
    let rules =
      cfg.rule_order atom (Rulebase.rules_for cfg.rulebase atom.Atom.pred)
    in
    List.to_seq rules
    |> Seq.concat_map (fun clause ->
           incr gen;
           let clause = Clause.rename !gen clause in
           match Subst.unify_atoms clause.Clause.head atom s with
           | None -> Seq.empty
           | Some s' ->
             stats.reductions <- stats.reductions + 1;
             let sp' =
               if Trace.enabled cfg.tracer then begin
                 let child =
                   Trace.push cfg.tracer sp ~kind:"reduction"
                     (Atom.to_string atom)
                 in
                 Trace.add_cost cfg.tracer child 1.0;
                 child
               end
               else sp
             in
             prove cfg stats gen (depth + 1) sp' s' (clause.Clause.body @ rest))
  in
  Seq.append (from_facts ()) (from_rules ())

(* Existence test for a ground atom through the memo table. Records a [true]
   verdict as soon as a proof is found (a proof is a proof even under a
   truncated search) but records [false] only when the failed subtree
   completed without hitting the depth limit — a truncated failure is
   "unknown", not "no". *)
and memo_prove cfg stats gen depth sp atom =
  if depth > cfg.depth_limit then begin
    stats.truncated <- true;
    false
  end
  else
    let m = match cfg.memo with Some m -> m | None -> assert false in
    let token = Database.token cfg.db in
    let dbgen = Database.generation cfg.db in
    match Memo.find m ~token ~gen:dbgen atom with
    | Some proved ->
      if Trace.enabled cfg.tracer then
        Trace.event cfg.tracer sp ~kind:"memo_hit"
          ~attrs:
            [
              ("pattern", Atom.to_string atom);
              ("proved", if proved then "true" else "false");
            ]
          (Symbol.to_string atom.Atom.pred);
      proved
    | None ->
      let was_truncated = stats.truncated in
      stats.truncated <- false;
      let proved =
        not (Seq.is_empty (expand cfg stats gen depth sp Subst.empty atom []))
      in
      let sub_truncated = stats.truncated in
      stats.truncated <- was_truncated || sub_truncated;
      if proved || not sub_truncated then
        Memo.add m ~token ~gen:dbgen atom proved;
      proved

let solve_seq cfg stats goals =
  let vars = goal_vars goals in
  let gen = ref 0 in
  prove cfg stats gen 0 cfg.parent Subst.empty goals
  |> Seq.map (fun s -> Subst.restrict vars s)

let solve_first cfg goals =
  let stats = fresh_stats () in
  match (solve_seq cfg stats goals) () with
  | Seq.Nil -> (None, stats)
  | Seq.Cons (s, _) -> (Some s, stats)

let solve_all ?limit cfg goals =
  let stats = fresh_stats () in
  let seen = Hashtbl.create 16 in
  let seq =
    solve_seq cfg stats goals
    |> Seq.filter (fun s ->
           let key = Format.asprintf "%a" Subst.pp s in
           if Hashtbl.mem seen key then false
           else begin
             Hashtbl.add seen key ();
             true
           end)
  in
  let seq = match limit with Some n -> Seq.take n seq | None -> seq in
  (List.of_seq seq, stats)

let provable cfg goals =
  match solve_first cfg goals with Some _, _ -> true | None, _ -> false
