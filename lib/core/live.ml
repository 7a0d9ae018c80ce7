module D = Datalog
open Infgraph
open Strategy

type t = {
  rulebase : D.Rulebase.t;
  built : Build.result;
  intensional : int list;
      (* ids of the predicates with rules that the form's derivations can
         reach; a database fact for one of them is a retrieval SLD makes
         but the graph has no arc for *)
  mutable exact_token : int;  (* the database [exact] was decided on *)
  mutable exact_gen : int;
  mutable exact : bool;
  mutable learner : Learner.t;
  mutable paths : Spec.t;  (* the current strategy, compiled *)
  mutable order_by_pred : (int, D.Clause.t list) Hashtbl.t;
      (* the current strategy's rule order, steering SLD on fallback
         forms; rederived with [paths] *)
  mutable queries : int;
  mutable switches : int;
  mutable reductions : int;
  mutable retrievals : int;
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

(* Predicates with rules reachable from [pred] through rule bodies. *)
let intensional_preds rulebase pred =
  let seen = Hashtbl.create 16 in
  let rec go p =
    let id = D.Symbol.id p in
    if not (Hashtbl.mem seen id) then
      match D.Rulebase.rules_for rulebase p with
      | [] -> ()
      | rules ->
        Hashtbl.add seen id ();
        List.iter
          (fun c ->
            List.iter
              (fun l -> go (D.Clause.lit_atom l).D.Atom.pred)
              c.D.Clause.body)
          rules
  in
  go pred;
  Hashtbl.fold (fun id () acc -> id :: acc) seen []

let create ?(learner = `Pib) ?config ~rulebase ~query_form () =
  let built = Build.build ~rulebase ~query_form () in
  let start = Spec.default built.Build.graph in
  {
    rulebase;
    built;
    intensional = intensional_preds rulebase query_form.D.Atom.pred;
    exact_token = -1;
    exact_gen = -1;
    exact = false;
    learner = Learner.create ?config learner start;
    paths = Spec.compile start;
    order_by_pred = derive_orders built start;
    queries = 0;
    switches = 0;
    reductions = 0;
    retrievals = 0;
  }

let graph t = t.built.Build.graph
let strategy t = Learner.current t.learner
let learner t = t.learner
let learner_name t = Learner.name t.learner
let queries t = t.queries
let work t = (t.reductions, t.retrievals)
let climbs t = t.switches

(* Steer the execution, and SLD on fallback forms, by [d]. *)
let adopt t d =
  t.paths <- Spec.compile d;
  t.order_by_pred <- derive_orders t.built d

let set_strategy t d =
  if d.Spec.graph != t.built.Build.graph then
    invalid_arg "Live.set_strategy: strategy built on a different graph";
  t.learner <- Learner.reseed t.learner d;
  adopt t d

(* Does the executed strategy answer queries of this form on [db] exactly
   as SLD would? Decided per form, and again only when the database
   changes. *)
let exact t db =
  let token = D.Database.token db and gen = D.Database.generation db in
  if token <> t.exact_token || gen <> t.exact_gen then begin
    t.exact <-
      (not t.built.Build.truncated)
      && (not t.built.Build.identifying)
      && not
           (List.exists (fun p -> D.Database.count_pred_id db p > 0)
              t.intensional);
    t.exact_token <- token;
    t.exact_gen <- gen
  end;
  t.exact

(* A query that repeats a variable asks for an equality the form's graph
   (one variable per free position) does not model. *)
let repeats (query : D.Atom.t) =
  let same v = function D.Term.Var w -> D.Term.equal_var v w | _ -> false in
  let rec go = function
    | [] -> false
    | D.Term.Var v :: rest -> List.exists (same v) rest || go rest
    | D.Term.Const _ :: rest -> go rest
  in
  go query.D.Atom.args

type answer = {
  result : D.Subst.t option;
  stats : D.Sld.stats;
  cost : float;
  switched : bool;
  cached : bool;
  fallback : bool;
}

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

(* The query's variables are renamed apart from the graph's (which are
   generation 0 and up), so a query variable never aliases a form one. *)
let query_gen = -1

let rename_apart query =
  if D.Atom.is_ground query then query else D.Atom.rename query_gen query

(* One execution: the current strategy run over the query's lazily probed
   context, in an [exec] span. *)
let execute ~tracer ~parent t ~db query =
  let ctx = Context.of_db (graph t) ~query:(rename_apart query) ~db in
  let exec_span = Trace.push tracer parent ~kind:"exec" "exec" in
  let outcome = Exec.run ~tracer ~parent:exec_span t.paths ctx in
  Trace.finish tracer exec_span;
  (ctx, outcome)

(* Feed the learner the outcome of the execution, in a [learn] span, and
   adopt any conjecture. This runs for every query, cached or not — the
   learner must see the full query distribution and the true paper cost
   c(Theta, I). *)
let observe ~tracer ~parent t ctx (outcome : Exec.outcome) =
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

(* [arcs] split by kind, as SLD counts its work. *)
let count_work t arcs =
  let retrievals =
    List.fold_left
      (fun n id -> if Option.is_some t.built.Build.resolvents.(id) then n + 1 else n)
      0 arcs
  in
  (List.length arcs - retrievals, retrievals)

(* The answer a retrieval [arc] gives for [fact]: the renamed query unified
   with the arc's resolvent, read back on the query's own variables. *)
let bind_answer t query arc fact =
  if D.Atom.is_ground query then Some D.Subst.empty
  else
    match t.built.Build.resolvents.(arc) with
    | None -> None
    | Some (r : Build.resolvent) ->
      let q = rename_apart query in
      Option.bind (D.Subst.unify_atoms r.head q D.Subst.empty) (fun s ->
          Option.map
            (fun s ->
              List.fold_left
                (fun acc v ->
                  let renamed = D.Term.Var { v with D.Term.gen = query_gen } in
                  D.Subst.bind v (D.Subst.walk s renamed) acc)
                D.Subst.empty (D.Atom.vars query))
            (D.Subst.unify_atoms r.body fact s))

let answer_exec ~tracer ~parent t ~db query =
  let ctx, outcome = execute ~tracer ~parent t ~db query in
  let reductions, retrievals = count_work t outcome.Exec.attempted in
  let stats = D.Sld.fresh_stats () in
  stats.D.Sld.reductions <- reductions;
  stats.D.Sld.retrievals <- retrievals;
  let result =
    Option.bind outcome.Exec.success_arc (fun arc ->
        stats.D.Sld.retrieval_hits <- 1;
        Option.bind (Context.witness ctx arc) (bind_answer t query arc))
  in
  let cost, switched = observe ~tracer ~parent t ctx outcome in
  (result, stats, cost, switched)

(* [rules] for [goal], in the current strategy's order where it has one. *)
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

(* The fallback: SLD, steered by the strategy's rule order, answers, and
   the strategy's execution teaches the learner. *)
let answer_sld ~tracer ~parent ?memo t ~db query =
  let sld_span = Trace.push tracer parent ~kind:"sld" "sld" in
  let cfg =
    D.Sld.config ~tracer ~parent:sld_span ?memo ~rule_order:(rule_order t)
      ~rulebase:t.rulebase ~db ()
  in
  let result, stats = D.Sld.solve_first cfg [ D.Clause.Pos query ] in
  Trace.finish tracer sld_span;
  let ctx, outcome = execute ~tracer ~parent t ~db query in
  let cost, switched = observe ~tracer ~parent t ctx outcome in
  (result, stats, cost, switched)

let answer ?(tracer = Trace.null) ?parent ?memo t ~db query =
  let owns_root, parent = root_span tracer parent query in
  let fallback = (not (exact t db)) || repeats query in
  let result, stats, cost, switched =
    if fallback then answer_sld ~tracer ~parent ?memo t ~db query
    else answer_exec ~tracer ~parent t ~db query
  in
  t.queries <- t.queries + 1;
  t.reductions <- t.reductions + stats.D.Sld.reductions;
  t.retrievals <- t.retrievals + stats.D.Sld.retrievals;
  if owns_root then Trace.finish tracer parent;
  { result; stats; cost; switched; cached = false; fallback }

let answer_cached ?(tracer = Trace.null) ?parent ?derived:_ t ~db ~result
    query =
  let owns_root, parent = root_span tracer parent query in
  t.queries <- t.queries + 1;
  let ctx, outcome = execute ~tracer ~parent t ~db query in
  let cost, switched = observe ~tracer ~parent t ctx outcome in
  if owns_root then Trace.finish tracer parent;
  {
    result;
    stats = D.Sld.fresh_stats ();
    cost;
    switched;
    cached = true;
    fallback = false;
  }
