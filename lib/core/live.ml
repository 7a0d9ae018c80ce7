module D = Datalog
open Infgraph
open Strategy

type t = {
  rulebase : D.Rulebase.t;
  built : Build.result;
  mutable learner : Learner.t;
  mutable order_by_pred : (int, D.Clause.t list) Hashtbl.t;
  mutable paths : Spec.t;
      (* the current strategy compiled, for [learn]'s execution; rebuilt
         with [order_by_pred] whenever the strategy changes *)
  mutable queries : int;
  mutable switches : int;
  mutable reductions : int;
  mutable retrievals : int;
  mutable event_hook : (Learner.event -> unit) option;
      (* remembered so reseeding (which builds a hookless learner)
         keeps the telemetry stream alive *)
}

(* Read the per-predicate rule order off the strategy: breadth-first over
   the graph, first node wins for its predicate. *)
let derive_orders built (d : Spec.dfs) =
  let g = built.Build.graph in
  let tbl = Hashtbl.create 16 in
  let queue = Queue.create () in
  Queue.add (Graph.root g) queue;
  while not (Queue.is_empty queue) do
    let node_id = Queue.pop queue in
    let node = Graph.node g node_id in
    (match node.Graph.goal with
    | Some goal ->
      let pred = D.Symbol.id goal.D.Atom.pred in
      if not (Hashtbl.mem tbl pred) then begin
        let clauses =
          List.filter_map
            (fun arc_id -> List.assoc_opt arc_id built.Build.rule_arcs)
            d.Spec.orders.(node_id)
        in
        if clauses <> [] then Hashtbl.add tbl pred clauses
      end
    | None -> ());
    List.iter
      (fun arc_id -> Queue.add (Graph.arc g arc_id).Graph.dst queue)
      d.Spec.orders.(node_id)
  done;
  tbl

let create ?(learner = `Pib) ?config ~rulebase ~query_form () =
  let built = Build.build ~rulebase ~query_form () in
  let start = Spec.default built.Build.graph in
  let learner = Learner.create ?config learner start in
  {
    rulebase;
    built;
    learner;
    order_by_pred = derive_orders built start;
    paths = Spec.compile start;
    queries = 0;
    switches = 0;
    reductions = 0;
    retrievals = 0;
    event_hook = None;
  }

let graph t = t.built.Build.graph
let strategy t = Learner.current t.learner
let learner t = t.learner
let learner_name t = Learner.name t.learner
let queries t = t.queries
let work t = (t.reductions, t.retrievals)
let climbs t = t.switches

(* Steer SLD and [learn]'s execution by [d]. *)
let adopt t d =
  t.order_by_pred <- derive_orders t.built d;
  t.paths <- Spec.compile d

let on_event t f =
  t.event_hook <- Some f;
  Learner.set_hook t.learner f

let set_strategy t d =
  if d.Spec.graph != t.built.Build.graph then
    invalid_arg "Live.set_strategy: strategy built on a different graph";
  t.learner <- Learner.reseed t.learner d;
  (match t.event_hook with
  | Some f -> Learner.set_hook t.learner f
  | None -> ());
  adopt t d

type answer = {
  result : D.Subst.t option;
  stats : D.Sld.stats;
  cost : float;
  switched : bool;
  cached : bool;
  derived : bool;
  enumerated : D.Sld.enum option;
}

let rule_order t goal rules =
  match Hashtbl.find_opt t.order_by_pred (D.Symbol.id goal.D.Atom.pred) with
  | None -> rules
  | Some preferred ->
    let position clause =
      let rec go i = function
        | [] -> max_int
        | c :: rest -> if D.Clause.equal c clause then i else go (i + 1) rest
      in
      go 0 preferred
    in
    List.stable_sort
      (fun c1 c2 -> Int.compare (position c1) (position c2))
      rules

(* Root a fresh [query] span unless the caller supplied one (the serve
   path roots a [serve] span covering queue wait as well). *)
let root_span tracer parent query =
  match parent with
  | Some sp -> (false, sp)
  | None ->
    ( true,
      if Trace.enabled tracer then
        Trace.root tracer ~kind:"query" (D.Atom.to_string query)
      else Trace.dummy )

(* The learning half of an answer: derive the context this query induced
   and feed the learner with the current strategy's execution of it (which
   mirrors the SLD run). This runs for every query, cached or not — the
   learner must see the full query distribution and the true paper-cost
   c(Theta, I), which the execution recomputes from the database regardless
   of how the answer itself was produced. *)
let learn ~tracer ~parent t ~db query =
  let ctx = Context.of_db (graph t) ~query ~db in
  let exec_span = Trace.push tracer parent ~kind:"exec" "exec" in
  let outcome = Exec.run ~tracer ~parent:exec_span t.paths ctx in
  Trace.finish tracer exec_span;
  let learn_span = Trace.push tracer parent ~kind:"learn" "learn" in
  if Trace.enabled tracer then
    Trace.set_attr tracer learn_span "learner" (Learner.name t.learner);
  Learner.observe t.learner ctx outcome;
  let switched =
    match Learner.conjecture t.learner with
    | Some d ->
      adopt t d;
      t.switches <- t.switches + 1;
      if Trace.enabled tracer then
        Trace.event tracer learn_span ~kind:"climb"
          ~attrs:[ ("to", Format.asprintf "%a" Spec.pp_dfs d) ]
          "climb";
      true
    | None -> false
  in
  Trace.finish tracer learn_span;
  (outcome.Exec.cost, switched)

let answer ?(tracer = Trace.null) ?parent ?memo ?(enumerate = 0) t ~db query =
  let owns_root, parent = root_span tracer parent query in
  let sld_span = Trace.push tracer parent ~kind:"sld" "sld" in
  let cfg =
    D.Sld.config
      ~rule_order:(fun goal rules -> rule_order t goal rules)
      ~tracer ~parent:sld_span ?memo ~rulebase:t.rulebase ~db ()
  in
  (* With [enumerate], the derivation is pulled past the first success node
     (up to the cap) so a caller can cache the answer set. The reported
     [stats] are snapshotted at the first answer either way — the
     satisficing-search cost stays what the wire and [work] report; the
     enumeration tail's work lives in [enumerated.extra_*]. *)
  let result, stats, enumerated =
    if enumerate > 0 then
      let r, st, en =
        D.Sld.solve_first_enum ~limit:enumerate cfg [ D.Clause.Pos query ]
      in
      (r, st, Some en)
    else
      let r, st = D.Sld.solve_first cfg [ D.Clause.Pos query ] in
      (r, st, None)
  in
  Trace.finish tracer sld_span;
  t.queries <- t.queries + 1;
  t.reductions <- t.reductions + stats.D.Sld.reductions;
  t.retrievals <- t.retrievals + stats.D.Sld.retrievals;
  let cost, switched = learn ~tracer ~parent t ~db query in
  if owns_root then Trace.finish tracer parent;
  { result; stats; cost; switched; cached = false; derived = false; enumerated }

let answer_cached ?(tracer = Trace.null) ?parent ?(derived = false) t ~db
    ~result query =
  let owns_root, parent = root_span tracer parent query in
  t.queries <- t.queries + 1;
  let cost, switched = learn ~tracer ~parent t ~db query in
  if owns_root then Trace.finish tracer parent;
  {
    result;
    stats = D.Sld.fresh_stats ();
    cost;
    switched;
    cached = true;
    derived;
    enumerated = None;
  }
