open Helpers
open Infgraph
module D = Datalog

(* ---------- Graph / Builder ---------- *)

let builder_structure () =
  let ga = make_ga () in
  let g = ga.ga_graph in
  check_int "nodes" 5 (Graph.n_nodes g);
  check_int "arcs" 4 (Graph.n_arcs g);
  check_int "root children" 2 (List.length (Graph.children g (Graph.root g)));
  check_int "retrievals" 2 (List.length (Graph.retrievals g));
  check_bool "simple disjunctive" true (Graph.simple_disjunctive g);
  check_bool "retrieval blockable" true (Graph.arc g ga.dp).Graph.blockable;
  check_bool "reduction not" false (Graph.arc g ga.rp).Graph.blockable

let builder_paths () =
  let ga = make_ga () in
  let g = ga.ga_graph in
  Alcotest.(check (list int)) "path to Dg" [ ga.rg; ga.dg ] (Graph.path_to g ga.dg);
  Alcotest.(check (list int)) "above Dg" [ ga.rg ] (Graph.path_above g ga.dg);
  Alcotest.(check (list int)) "subtree Rp" [ ga.rp; ga.dp ] (Graph.subtree_arcs g ga.rp);
  check_int "leaf paths" 2 (List.length (Graph.leaf_paths g))

let builder_rejects_double_parent () =
  let b = Graph.Builder.create "r" in
  let n = Graph.Builder.add_node b "n" in
  ignore (Graph.Builder.add_arc b ~src:(Graph.Builder.root b) ~dst:n Graph.Reduction);
  check_bool "second incoming arc" true
    (try
       ignore (Graph.Builder.add_arc b ~src:(Graph.Builder.root b) ~dst:n Graph.Reduction);
       false
     with Invalid_argument _ -> true)

let builder_rejects_bad_costs () =
  let b = Graph.Builder.create "r" in
  let n = Graph.Builder.add_node b "n" in
  check_bool "zero cost" true
    (try
       ignore (Graph.Builder.add_arc b ~src:(Graph.Builder.root b) ~dst:n ~cost:0.0 Graph.Reduction);
       false
     with Invalid_argument _ -> true)

let builder_rejects_dangling_goal () =
  let b = Graph.Builder.create "r" in
  let n = Graph.Builder.add_node b "dead end" in
  ignore (Graph.Builder.add_arc b ~src:(Graph.Builder.root b) ~dst:n Graph.Reduction);
  check_bool "goal without arcs" true
    (try
       ignore (Graph.Builder.finish b);
       false
     with Invalid_argument _ -> true)

let builder_rejects_retrieval_to_goal () =
  let b = Graph.Builder.create "r" in
  let n = Graph.Builder.add_node b "n" in
  check_bool "retrieval into goal node" true
    (try
       ignore (Graph.Builder.add_arc b ~src:(Graph.Builder.root b) ~dst:n Graph.Retrieval);
       false
     with Invalid_argument _ -> true)

(* ---------- Costs (Note 5 values) ---------- *)

let costs_ga () =
  let ga = make_ga () in
  let g = ga.ga_graph in
  check_float "total" 4.0 (Costs.total g);
  check_float "f*(Rp)" 2.0 (Costs.f_star g ga.rp);
  check_float "f*(Dp)" 1.0 (Costs.f_star g ga.dp);
  (* Note 5: F¬[Dg] = f(Rp) + f(Dp) = 2, F¬[Dp] = f(Rg) + f(Dg) = 2. *)
  check_float "F¬(Dg)" 2.0 (Costs.f_not g ga.dg);
  check_float "F¬(Dp)" 2.0 (Costs.f_not g ga.dp);
  check_float "Λ swap" 4.0 (Costs.lambda_swap g ga.rp ga.rg)

let costs_ga_weighted () =
  let cost = function `Rp -> 2.0 | `Rg -> 3.0 | `Dp -> 5.0 | `Dg -> 7.0 in
  let ga = make_ga ~cost () in
  let g = ga.ga_graph in
  check_float "total" 17.0 (Costs.total g);
  check_float "f*(Rp)" 7.0 (Costs.f_star g ga.rp);
  check_float "f*(Rg)" 10.0 (Costs.f_star g ga.rg);
  check_float "F¬(Dp)" 10.0 (Costs.f_not g ga.dp);
  check_float "F¬(Rg)" 7.0 (Costs.f_not g ga.rg)

let costs_gb () =
  let result = Workload.Gb.build () in
  let g = result.Build.graph in
  check_float "total" 10.0 (Costs.total g);
  (* Λ[Θ_ABCD, Θ_ABDC] = f*(R_tc) + f*(R_td) = 2 + 2 = 4;
     Λ[Θ_ABCD, Θ_ACDB] = f*(R_sb) + f*(R_st) = 2 + 5 = 7 (Section 3.2). *)
  let f_star label = Costs.f_star g (Graph.arc_by_label g label).Graph.arc_id in
  check_float "f*(R_tc)" 2.0 (f_star "R_t_c");
  check_float "f*(R_td)" 2.0 (f_star "R_t_d");
  check_float "f*(R_sb)" 2.0 (f_star "R_s_b");
  check_float "f*(R_st)" 5.0 (f_star "R_s_t");
  let f_not label = Costs.f_not g (Graph.arc_by_label g label).Graph.arc_id in
  (* F¬[R_st]: everything outside {R_gs, R_st} ∪ subtree(R_st) = {R_ga, D_a, R_sb, D_b} = 4. *)
  check_float "F¬(R_st)" 4.0 (f_not "R_s_t")

let costs_cache_across_graphs () =
  (* The one-slot per-graph memo must stay correct when callers alternate
     between graphs. *)
  let ga = make_ga () in
  let gb = (Workload.Gb.build ()).Build.graph in
  for _ = 1 to 5 do
    check_float "G_A f*(Rp)" 2.0 (Costs.f_star ga.ga_graph ga.rp);
    check_float "G_B f*(R_st)" 5.0
      (Costs.f_star gb (Graph.arc_by_label gb "R_s_t").Graph.arc_id)
  done;
  (* returned arrays are copies: mutating one must not poison the cache *)
  let arr = Costs.f_star_all ga.ga_graph in
  arr.(ga.rp) <- 999.0;
  check_float "cache unharmed" 2.0 (Costs.f_star ga.ga_graph ga.rp)

let costs_fnot_partition =
  qcheck "path + subtree + F¬ partitions total" ~count:100 gen_small_instance
    (fun (g, _model) ->
      List.for_all
        (fun a ->
          let id = a.Graph.arc_id in
          let above =
            List.fold_left (fun acc x -> acc +. Costs.f g x) 0. (Graph.path_above g id)
          in
          abs_float (above +. Costs.f_star g id +. Costs.f_not g id -. Costs.total g)
          < 1e-9)
        (Graph.arcs g))

(* ---------- Context ---------- *)

let context_completion () =
  let ga = make_ga () in
  let g = ga.ga_graph in
  let partial = Context.Partial.unknown g in
  Context.Partial.observe partial ~arc_id:ga.dp ~unblocked:true;
  let pess = Context.Partial.pessimistic partial in
  let opt = Context.Partial.optimistic partial in
  check_bool "observed kept (pess)" true (Context.unblocked pess ga.dp);
  check_bool "unknown blocked (pess)" true (Context.blocked pess ga.dg);
  check_bool "unknown unblocked (opt)" true (Context.unblocked opt ga.dg);
  check_bool "reductions never blocked" true (Context.unblocked pess ga.rp);
  check_bool "consistency" true
    (Context.Partial.consistent partial (ga_context ga ~dp:true ~dg:false));
  check_bool "inconsistency" false
    (Context.Partial.consistent partial (ga_context ga ~dp:false ~dg:false))

let context_conflicting_observation () =
  let ga = make_ga () in
  let partial = Context.Partial.unknown ga.ga_graph in
  Context.Partial.observe partial ~arc_id:ga.dp ~unblocked:true;
  check_bool "conflict raises" true
    (try
       Context.Partial.observe partial ~arc_id:ga.dp ~unblocked:false;
       false
     with Invalid_argument _ -> true)

let context_of_db () =
  let result = Workload.University.build () in
  let g = result.Build.graph in
  let db = Workload.University.db1 () in
  let ctx_manolis =
    Context.of_db g ~query:(Build.query_of_consts result [ "manolis" ]) ~db
  in
  let dp = (Graph.arc_by_label g "D_prof").Graph.arc_id in
  let dg = (Graph.arc_by_label g "D_grad").Graph.arc_id in
  check_bool "prof(manolis) blocked" true (Context.blocked ctx_manolis dp);
  check_bool "grad(manolis) ok" true (Context.unblocked ctx_manolis dg);
  let ctx_russ =
    Context.of_db g ~query:(Build.query_of_consts result [ "russ" ]) ~db
  in
  check_bool "prof(russ) ok" true (Context.unblocked ctx_russ dp);
  check_bool "grad(russ) blocked" true (Context.blocked ctx_russ dg)

(* ---------- Bernoulli model ---------- *)

let model_enumerate_sums_to_one =
  qcheck "enumeration is a distribution" ~count:60 gen_small_instance
    (fun (_g, model) ->
      let total =
        List.fold_left (fun acc (_, p) -> acc +. p) 0.
          (Bernoulli_model.enumerate model)
      in
      abs_float (total -. 1.0) < 1e-9)

let model_enumerate_matches_sampling () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.6 ~pg:0.15 in
  (* P(Dp blocked & Dg unblocked) = 0.4 * 0.15 = 0.06 *)
  let target ctx = Context.blocked ctx ga.dp && Context.unblocked ctx ga.dg in
  let exact =
    List.fold_left
      (fun acc (ctx, p) -> if target ctx then acc +. p else acc)
      0.
      (Bernoulli_model.enumerate model)
  in
  check_close "exact" 0.06 exact;
  let r = rng 17 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if target (Bernoulli_model.sample model r) then incr hits
  done;
  check_close ~eps:0.005 "sampled" 0.06 (float_of_int !hits /. float_of_int n)

let model_rho () =
  let result = Workload.Gb.build () in
  let g = result.Build.graph in
  (* All reductions unblockable: rho = 1 everywhere. *)
  let model = Workload.Gb.model result ~pa:0.3 ~pb:0.3 ~pc:0.3 ~pd:0.3 in
  List.iter
    (fun a -> check_float "rho=1" 1.0 (Bernoulli_model.rho model a.Graph.arc_id))
    (Graph.arcs g)

let model_rho_experiments () =
  (* root -R(blockable, p=0.25)-> n -D-> box : rho(D) = 0.25. *)
  let b = Graph.Builder.create "r" in
  let n = Graph.Builder.add_node b "n" in
  let r =
    Graph.Builder.add_arc b ~src:(Graph.Builder.root b) ~dst:n ~blockable:true
      Graph.Reduction
  in
  let d = Graph.Builder.add_retrieval b ~src:n () in
  let g = Graph.Builder.finish b in
  let p = Array.make (Graph.n_arcs g) 1.0 in
  p.(r) <- 0.25;
  p.(d) <- 0.5;
  let model = Bernoulli_model.make g ~p in
  check_float "rho(D)" 0.25 (Bernoulli_model.rho model d);
  check_float "rho(R)" 1.0 (Bernoulli_model.rho model r);
  check_close "success below R" (0.25 *. 0.5) (Bernoulli_model.success_below model r);
  check_close "failure prob" (1.0 -. 0.125) (Bernoulli_model.failure_prob model)

let model_failure_prob_matches_enum =
  qcheck "failure_prob equals enumeration" ~count:60 gen_experiment_instance
    (fun (g, model) ->
      let spec = Strategy.Spec.Dfs (Strategy.Spec.default g) in
      let exact =
        List.fold_left
          (fun acc (ctx, p) ->
            if (Strategy.Exec.run spec ctx).Strategy.Exec.succeeded then acc
            else acc +. p)
          0.
          (Bernoulli_model.enumerate model)
      in
      abs_float (exact -. Bernoulli_model.failure_prob model) < 1e-9)

let model_validation () =
  let ga = make_ga () in
  check_bool "out of range" true
    (try
       ignore (Bernoulli_model.make ga.ga_graph ~p:(Array.make 4 1.5));
       false
     with Invalid_argument _ -> true)

(* ---------- Build ---------- *)

let build_university () =
  let result = Workload.University.build () in
  let g = result.Build.graph in
  check_int "nodes" 5 (Graph.n_nodes g);
  check_int "arcs" 4 (Graph.n_arcs g);
  check_int "params" 1 (List.length result.Build.params);
  check_bool "not truncated" false result.Build.truncated;
  check_bool "simple disjunctive" true (Graph.simple_disjunctive g)

let build_experiment_arcs () =
  (* Section 4.1's example: grad(fred) :- admitted(fred, X) gives a
     blockable reduction arc. *)
  let rb =
    D.Rulebase.of_list
      (D.Parser.parse_clauses
         "instructor(X) :- prof(X).\n\
          instructor(X) :- grad(X).\n\
          grad(X) :- enrolled(X).\n\
          grad(fred) :- admitted(fred).")
  in
  let result =
    Build.build ~rulebase:rb ~query_form:(D.Parser.parse_atom "instructor(q)") ()
  in
  let g = result.Build.graph in
  check_bool "has experiment arcs" false (Graph.simple_disjunctive g);
  let fred_arc =
    List.find
      (fun a -> a.Graph.kind = Graph.Reduction && a.Graph.blockable)
      (Graph.arcs g)
  in
  (* The blockable arc must be blocked for manolis and open for fred. *)
  let db = D.Database.of_list [ D.Parser.parse_atom "admitted(fred)" ] in
  let ctx_fred =
    Context.of_db g ~query:(Build.query_of_consts result [ "fred" ]) ~db
  in
  let ctx_other =
    Context.of_db g ~query:(Build.query_of_consts result [ "manolis" ]) ~db
  in
  check_bool "open for fred" true (Context.unblocked ctx_fred fred_arc.Graph.arc_id);
  check_bool "blocked otherwise" true (Context.blocked ctx_other fred_arc.Graph.arc_id)

let build_rejects_conjunctive () =
  let rb = D.Rulebase.of_list (D.Parser.parse_clauses "p(X) :- q(X), r(X).") in
  check_bool "Not_disjunctive" true
    (try
       ignore (Build.build ~rulebase:rb ~query_form:(D.Parser.parse_atom "p(a)") ());
       false
     with Build.Not_disjunctive _ -> true)

let build_truncates_recursion () =
  let rb = D.Rulebase.of_list (D.Parser.parse_clauses "p(X) :- p(X). p(X) :- q(X).") in
  let result =
    Build.build ~max_depth:4 ~rulebase:rb
      ~query_form:(D.Parser.parse_atom "p(a)") ()
  in
  check_bool "truncated" true result.Build.truncated;
  check_bool "still has retrievals" true
    (Graph.retrievals result.Build.graph <> [])

let build_custom_costs () =
  let rb = D.Rulebase.of_list (D.Parser.parse_clauses "p(X) :- q(X).") in
  let result =
    Build.build
      ~cost_reduction:(fun _ -> 3.0)
      ~cost_retrieval:(fun _ -> 7.0)
      ~rulebase:rb ~query_form:(D.Parser.parse_atom "p(a)") ()
  in
  check_float "total" 10.0 (Costs.total result.Build.graph)

let build_free_query_form () =
  (* Section 5.2's existential queries: instructor^(f) — "is there any
     instructor?". Retrieval patterns keep the free variable, so a
     retrieval is unblocked iff the relation is non-empty. *)
  let rb = Workload.University.rulebase () in
  let result =
    Build.build ~rulebase:rb ~query_form:(D.Parser.parse_atom "instructor(X)") ()
  in
  let g = result.Build.graph in
  check_int "no parameters" 0 (List.length result.Build.params);
  let ctx_with db =
    Context.of_db g ~query:(D.Parser.parse_atom "instructor(Y)") ~db
  in
  let dp = (Graph.arc_by_label g "D_prof").Graph.arc_id in
  let dg = (Graph.arc_by_label g "D_grad").Graph.arc_id in
  let full = ctx_with (Workload.University.db1 ()) in
  check_bool "profs exist" true (Context.unblocked full dp);
  check_bool "grads exist" true (Context.unblocked full dg);
  let empty = ctx_with (D.Database.create ()) in
  check_bool "no profs" true (Context.blocked empty dp);
  let only_grad =
    ctx_with (D.Database.of_list [ D.Parser.parse_atom "grad(zoe)" ])
  in
  check_bool "still no profs" true (Context.blocked only_grad dp);
  check_bool "grads exist now" true (Context.unblocked only_grad dg);
  (* the satisficing run answers the existential with one retrieval *)
  let outcome =
    Strategy.Exec.run (Strategy.Spec.Dfs (Strategy.Spec.default g)) full
  in
  check_bool "answered" true outcome.Strategy.Exec.succeeded;
  check_float "minimal work" 2.0 outcome.Strategy.Exec.cost

let build_mixed_edb () =
  (* A predicate defined by rules AND listed as extensional gets both a
     retrieval arc and its rule arcs. *)
  let rb =
    D.Rulebase.of_list
      (D.Parser.parse_clauses "p(X) :- q(X). q(X) :- r(X).")
  in
  let result =
    Build.build ~edb:[ "q" ] ~rulebase:rb
      ~query_form:(D.Parser.parse_atom "p(a)") ()
  in
  let g = result.Build.graph in
  (* arcs: R_p_q, then under q: R_q_r + D_q, then D_r. *)
  check_int "four arcs" 4 (Graph.n_arcs g);
  check_int "two retrievals" 2 (List.length (Graph.retrievals g));
  (* the q node has both a rule child and a retrieval child *)
  let q_node =
    List.find
      (fun n ->
        match n.Graph.goal with
        | Some a -> D.Symbol.to_string a.D.Atom.pred = "q"
        | None -> false)
      (Graph.nodes g)
  in
  check_int "q has two children" 2
    (List.length (Graph.children g q_node.Graph.node_id))

let build_rule_arcs_mapping () =
  let result = Workload.University.build () in
  check_int "two rule arcs" 2 (List.length result.Build.rule_arcs);
  List.iter
    (fun (arc_id, clause) ->
      let a = Graph.arc result.Build.graph arc_id in
      check_bool "reduction arc" true (a.Graph.kind = Graph.Reduction);
      check_bool "head is instructor" true
        (D.Symbol.to_string clause.D.Clause.head.D.Atom.pred = "instructor"))
    result.Build.rule_arcs

let build_resolvents_and_identifying () =
  (* Chained rules compose their unifiers into each retrieval's resolvent:
     p(Z, Y) :- s(Z, Y) under q(Z, c), then s(Z, c) :- t(Z). *)
  let build text form =
    Build.build
      ~rulebase:(D.Rulebase.of_list (D.Parser.parse_clauses text))
      ~query_form:(D.Parser.parse_atom form) ()
  in
  let r = build "p(X, Y) :- q(X, Y). q(Z, c) :- t(Z)." "p(a, W)" in
  check_bool "not identifying" false r.Build.identifying;
  let head, body =
    match Array.to_list r.Build.resolvents |> List.filter_map Fun.id with
    | [ res ] -> (res.Build.head, res.Build.body)
    | _ -> Alcotest.fail "expected one retrieval"
  in
  check_string "head binds the free position" "c"
    (D.Term.to_string (List.nth head.D.Atom.args 1));
  check_bool "body is t over the root's parameter" true
    (D.Symbol.to_string body.D.Atom.pred = "t"
    && D.Term.equal (List.hd head.D.Atom.args) (List.hd body.D.Atom.args));
  check_bool "identifying head flagged" true
    (build "p(X, X) :- q(X)." "p(a, b)").Build.identifying

let build_query_of_consts () =
  let result = Workload.University.build () in
  let q = Build.query_of_consts result [ "alice" ] in
  check_string "query" "instructor(alice)" (D.Atom.to_string q);
  check_bool "arity mismatch" true
    (try
       ignore (Build.query_of_consts result [ "a"; "b" ]);
       false
     with Invalid_argument _ -> true)

(* ---------- Dot ---------- *)

let dot_output () =
  let ga = make_ga () in
  let s = Dot.to_string ~name:"GA" ga.ga_graph in
  check_bool "digraph" true
    (String.length s > 0 && String.sub s 0 7 = "digraph");
  check_bool "mentions Dp" true
    (let found = ref false in
     String.iteri
       (fun i _ ->
         if i + 2 <= String.length s && String.sub s i 2 = "Dp" then found := true)
       s;
     !found)

(* ---------- Serial ---------- *)

let graphs_identical g1 g2 =
  Graph.n_nodes g1 = Graph.n_nodes g2
  && Graph.n_arcs g1 = Graph.n_arcs g2
  && Graph.root g1 = Graph.root g2
  && List.for_all2
       (fun n1 n2 ->
         n1.Graph.name = n2.Graph.name
         && n1.Graph.success = n2.Graph.success
         && Option.equal D.Atom.equal n1.Graph.goal n2.Graph.goal)
       (Graph.nodes g1) (Graph.nodes g2)
  && List.for_all2
       (fun a1 a2 ->
         a1.Graph.src = a2.Graph.src
         && a1.Graph.dst = a2.Graph.dst
         && a1.Graph.kind = a2.Graph.kind
         && a1.Graph.label = a2.Graph.label
         && a1.Graph.cost = a2.Graph.cost
         && a1.Graph.blockable = a2.Graph.blockable
         && Option.equal D.Atom.equal a1.Graph.pattern a2.Graph.pattern)
       (Graph.arcs g1) (Graph.arcs g2)

let serial_graph_roundtrip_kb () =
  let result = Workload.University.build () in
  let g = result.Build.graph in
  let g' = Serial.graph_of_string (Serial.graph_to_string g) in
  check_bool "identical" true (graphs_identical g g')

let serial_graph_roundtrip_random =
  qcheck "graph serialization round-trips" ~count:60 gen_experiment_instance
    (fun (g, _model) ->
      graphs_identical g (Serial.graph_of_string (Serial.graph_to_string g)))

let serial_model_roundtrip =
  qcheck "model serialization round-trips" ~count:60 gen_experiment_instance
    (fun (g, model) ->
      let model' = Serial.model_of_string g (Serial.model_to_string model) in
      Bernoulli_model.probs model = Bernoulli_model.probs model')

let serial_graph_errors () =
  let bad s =
    try
      ignore (Serial.graph_of_string s);
      false
    with Serial.Parse_error _ -> true
  in
  check_bool "garbage" true (bad "not a graph");
  check_bool "no root" true (bad "strategem-graph 1\nend\n");
  check_bool "dangling arc" true
    (bad
       "strategem-graph 1\nroot 0\nnode 0 \"r\" goal -\nnode 1 \"b\" success \
        -\narc 0 0 1 retrieval \"d\" 1.0 true -\narc 1 0 9 retrieval \"x\" \
        1.0 true -\nend\n")

let serial_strategy_roundtrip =
  qcheck "strategy serialization round-trips" ~count:60
    (QCheck2.Gen.pair gen_small_instance QCheck2.Gen.small_nat)
    (fun ((g, _), seed) ->
      let ds = Strategy.Enumerate.all_dfs g in
      let d = List.nth ds (seed mod List.length ds) in
      let d' =
        Strategy.Persist.dfs_of_string g (Strategy.Persist.dfs_to_string d)
      in
      Strategy.Spec.equal_dfs d d'
      &&
      let spec = Strategy.Spec.of_paths g (Strategy.Spec.to_paths (Strategy.Spec.Dfs d)) in
      let spec' = Strategy.Persist.of_string g (Strategy.Persist.to_string spec) in
      Strategy.Spec.equal spec spec')

(* ---------- Hypergraph (Note 4) ---------- *)

let hyper_fixture () =
  (* goal { rule1: [a & b] | rule2: [c] } with unit costs. *)
  let open Hypergraph in
  goal ~label:"top"
    [
      choice ~label:"r1"
        [
          retrieve ~label:"a" ~cost:1.0 ~prob:0.8 ();
          retrieve ~label:"b" ~cost:2.0 ~prob:0.5 ();
        ];
      choice ~label:"r2" [ retrieve ~label:"c" ~cost:4.0 ~prob:0.9 () ];
    ]

let hypergraph_evaluate () =
  let h = hyper_fixture () in
  let cost, prob = Hypergraph.evaluate h in
  (* choice r1: cost = 1 + 1 + 0.8*2 = 3.6, prob = 0.4
     then r2 if r1 failed: + 0.6 * (1 + 4) = 3.0; total 6.6
     success = 1 - 0.6*0.1 = 0.94 *)
  check_close "cost" 6.6 cost;
  check_close "prob" 0.94 prob

let hypergraph_simulation_matches () =
  let h = hyper_fixture () in
  let cost, prob = Hypergraph.evaluate h in
  let r = rng 23 in
  let n = 200_000 in
  let w = Stats.Welford.create () in
  let succ = ref 0 in
  for _ = 1 to n do
    let c, ok = Hypergraph.simulate h r in
    Stats.Welford.add w c;
    if ok then incr succ
  done;
  check_close ~eps:0.03 "simulated cost" cost (Stats.Welford.mean w);
  check_close ~eps:0.01 "simulated prob" prob
    (float_of_int !succ /. float_of_int n)

let hypergraph_optimize_beats_brute =
  qcheck "ratio ordering is DFS-optimal" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      (* random 2-level AND/OR tree *)
      let leaf () =
        Hypergraph.retrieve
          ~cost:(Stats.Rng.uniform_in r ~lo:0.5 ~hi:3.0)
          ~prob:(Stats.Rng.uniform_in r ~lo:0.1 ~hi:0.9)
          ()
      in
      let choice () =
        Hypergraph.choice
          (List.init (1 + Stats.Rng.int r 2) (fun _ -> leaf ()))
      in
      let h = Hypergraph.goal (List.init (2 + Stats.Rng.int r 2) (fun _ -> choice ())) in
      let opt_cost = fst (Hypergraph.evaluate (Hypergraph.optimize h)) in
      let best_brute =
        List.fold_left
          (fun acc h' -> Float.min acc (fst (Hypergraph.evaluate h')))
          infinity (Hypergraph.all_orders h)
      in
      abs_float (opt_cost -. best_brute) < 1e-9)

(* A hypergraph whose conjunctions are all singletons is exactly a simple
   disjunctive inference tree: its DFS cost must match the Graph/Cost
   machinery on the corresponding tree (with the hyper-arc cost playing
   the reduction arc's role). *)
let hypergraph_matches_graph =
  qcheck "singleton-AND hypergraph = simple graph costs" ~count:80
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let n = 2 + Stats.Rng.int r 3 in
      let leaves =
        List.init n (fun i ->
            ( Printf.sprintf "d%d" i,
              Stats.Rng.uniform_in r ~lo:0.5 ~hi:3.0,    (* reduction cost *)
              Stats.Rng.uniform_in r ~lo:0.5 ~hi:3.0,    (* retrieval cost *)
              Stats.Rng.uniform_in r ~lo:0.05 ~hi:0.95 ) (* probability *))
      in
      (* hypergraph: root OR, each choice = [single retrieval] *)
      let h =
        Hypergraph.goal
          (List.map
             (fun (label, rc, dc, p) ->
               Hypergraph.choice ~cost:rc
                 [ Hypergraph.retrieve ~label ~cost:dc ~prob:p () ])
             leaves)
      in
      (* equivalent tree: root -R(rc)-> node -D(dc)-> box *)
      let b = Graph.Builder.create "root" in
      let probs = ref [] in
      List.iter
        (fun (label, rc, dc, p) ->
          let mid = Graph.Builder.add_node b label in
          ignore
            (Graph.Builder.add_arc b ~src:(Graph.Builder.root b) ~dst:mid
               ~cost:rc Graph.Reduction);
          let d =
            Graph.Builder.add_retrieval b ~src:mid ~cost:dc ~label ()
          in
          probs := (d, p) :: !probs)
        leaves;
      let g = Graph.Builder.finish b in
      let parr = Array.make (Graph.n_arcs g) 1.0 in
      List.iter (fun (d, p) -> parr.(d) <- p) !probs;
      let model = Bernoulli_model.make g ~p:parr in
      let c_graph, p_graph =
        Strategy.Cost.exact_dfs (Strategy.Spec.default g) model
      in
      let c_hyper, p_hyper = Hypergraph.evaluate h in
      abs_float (c_graph -. c_hyper) < 1e-9
      && abs_float (p_graph -. p_hyper) < 1e-9)

let hypergraph_of_rulebase () =
  let rb =
    D.Rulebase.of_list
      (D.Parser.parse_clauses
         "happy(X) :- rich(X), healthy(X).\nhappy(X) :- zen(X).")
  in
  let h =
    Hypergraph.of_rulebase ~rulebase:rb ~query:(D.Parser.parse_atom "happy(q)")
      ~prob:(fun a ->
        match D.Symbol.to_string a.D.Atom.pred with
        | "rich" -> 0.1
        | "healthy" -> 0.7
        | _ -> 0.5)
      ()
  in
  check_int "three leaves" 3 (Hypergraph.n_leaves h);
  let _, prob = Hypergraph.evaluate h in
  (* 1 - (1 - 0.07)(1 - 0.5) = 0.535 *)
  check_close "success prob" 0.535 prob

let suite =
  [
    ( "infgraph.graph",
      [
        case "builder structure" builder_structure;
        case "paths" builder_paths;
        case "rejects double parent" builder_rejects_double_parent;
        case "rejects bad costs" builder_rejects_bad_costs;
        case "rejects dangling goal" builder_rejects_dangling_goal;
        case "rejects retrieval to goal" builder_rejects_retrieval_to_goal;
      ] );
    ( "infgraph.costs",
      [
        case "G_A unit costs" costs_ga;
        case "G_A weighted" costs_ga_weighted;
        case "G_B values" costs_gb;
        case "cache across graphs" costs_cache_across_graphs;
        costs_fnot_partition;
      ] );
    ( "infgraph.context",
      [
        case "partial completion" context_completion;
        case "conflicting observation" context_conflicting_observation;
        case "of_db" context_of_db;
      ] );
    ( "infgraph.model",
      [
        model_enumerate_sums_to_one;
        case "enumerate matches sampling" model_enumerate_matches_sampling;
        case "rho trivial" model_rho;
        case "rho with experiments" model_rho_experiments;
        model_failure_prob_matches_enum;
        case "validation" model_validation;
      ] );
    ( "infgraph.build",
      [
        case "university" build_university;
        case "experiment arcs" build_experiment_arcs;
        case "rejects conjunctive" build_rejects_conjunctive;
        case "truncates recursion" build_truncates_recursion;
        case "custom costs" build_custom_costs;
        case "free (existential) query form" build_free_query_form;
        case "mixed edb/idb predicate" build_mixed_edb;
        case "rule arc mapping" build_rule_arcs_mapping;
        case "resolvents and identifying heads" build_resolvents_and_identifying;
        case "query_of_consts" build_query_of_consts;
      ] );
    ("infgraph.dot", [ case "output" dot_output ]);
    ( "infgraph.serial",
      [
        case "kb graph roundtrip" serial_graph_roundtrip_kb;
        serial_graph_roundtrip_random;
        serial_model_roundtrip;
        case "parse errors" serial_graph_errors;
        serial_strategy_roundtrip;
      ] );
    ( "infgraph.hypergraph",
      [
        case "evaluate" hypergraph_evaluate;
        slow_case "simulation matches" hypergraph_simulation_matches;
        hypergraph_optimize_beats_brute;
        hypergraph_matches_graph;
        case "of_rulebase" hypergraph_of_rulebase;
      ] );
  ]
