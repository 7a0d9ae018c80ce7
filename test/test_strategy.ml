open Helpers
open Infgraph
open Strategy

(* ---------- Spec ---------- *)

let spec_default_sequence () =
  let ga = make_ga () in
  let t1 = ga_theta1 ga in
  Alcotest.(check (list int))
    "Θ1 = ⟨Rp Dp Rg Dg⟩"
    [ ga.rp; ga.dp; ga.rg; ga.dg ]
    (Spec.arc_sequence (Spec.Dfs t1));
  let t2 = ga_theta2 ga in
  Alcotest.(check (list int))
    "Θ2 = ⟨Rg Dg Rp Dp⟩"
    [ ga.rg; ga.dg; ga.rp; ga.dp ]
    (Spec.arc_sequence (Spec.Dfs t2))

let spec_eq4_sequence () =
  (* Equation 4: Θ_ABCD = ⟨R_ga D_a R_gs R_sb D_b R_st R_tc D_c R_td D_d⟩. *)
  let result = Workload.Gb.build () in
  let g = result.Build.graph in
  let labels spec =
    List.map (fun id -> (Graph.arc g id).Graph.label) (Spec.arc_sequence spec)
  in
  Alcotest.(check (list string))
    "Θ_ABCD"
    [ "R_g_a"; "D_a"; "R_g_s"; "R_s_b"; "D_b"; "R_s_t"; "R_t_c"; "D_c"; "R_t_d"; "D_d" ]
    (labels (Spec.Dfs (Workload.Gb.theta_abcd result)));
  Alcotest.(check (list string))
    "Θ_ABDC"
    [ "R_g_a"; "D_a"; "R_g_s"; "R_s_b"; "D_b"; "R_s_t"; "R_t_d"; "D_d"; "R_t_c"; "D_c" ]
    (labels (Spec.Dfs (Workload.Gb.theta_abdc result)));
  Alcotest.(check (list string))
    "Θ_ACDB"
    [ "R_g_a"; "D_a"; "R_g_s"; "R_s_t"; "R_t_c"; "D_c"; "R_t_d"; "D_d"; "R_s_b"; "D_b" ]
    (labels (Spec.Dfs (Workload.Gb.theta_acdb result)))

let spec_note3_paths () =
  (* Note 3: Θ_ABCD ≈ ⟨⟨R_ga D_a⟩, ⟨R_gs R_sb D_b⟩, ⟨R_gs R_st R_tc D_c⟩,
     ⟨R_gs R_st R_td D_d⟩⟩ (full root paths; the paper elides shared
     prefixes in its rendering). *)
  let result = Workload.Gb.build () in
  let paths = Spec.to_paths (Spec.Dfs (Workload.Gb.theta_abcd result)) in
  check_int "four paths" 4 (List.length paths);
  Alcotest.(check (list int)) "lengths" [ 2; 3; 4; 4 ]
    (List.map List.length paths)

let spec_validation () =
  let ga = make_ga () in
  check_bool "bad order rejected" true
    (try
       ignore
         (Spec.with_order (ga_theta1 ga) ~node:(Graph.root ga.ga_graph)
            ~order:[ ga.rp; ga.rp ]);
       false
     with Invalid_argument _ -> true);
  check_bool "bad paths rejected" true
    (try
       ignore (Spec.of_paths ga.ga_graph [ [ ga.rp; ga.dp ] ]);
       false
     with Invalid_argument _ -> true)

let spec_retrieval_order () =
  let result = Workload.Gb.build () in
  let g = result.Infgraph.Build.graph in
  let labels spec =
    List.map
      (fun id -> (Infgraph.Graph.arc g id).Infgraph.Graph.label)
      (Spec.retrieval_order spec)
  in
  Alcotest.(check (list string))
    "ABCD retrievals" [ "D_a"; "D_b"; "D_c"; "D_d" ]
    (labels (Spec.Dfs (Workload.Gb.theta_abcd result)));
  Alcotest.(check (list string))
    "ACDB retrievals" [ "D_a"; "D_c"; "D_d"; "D_b" ]
    (labels (Spec.Dfs (Workload.Gb.theta_acdb result)))

let persist_errors () =
  let ga = make_ga () in
  let bad s =
    try
      ignore (Persist.of_string ga.ga_graph s);
      false
    with Persist.Parse_error _ -> true
  in
  check_bool "garbage" true (bad "nope");
  check_bool "bad kind" true (bad "strategem-strategy 1 widget\nend\n");
  check_bool "bad node id" true
    (bad "strategem-strategy 1 dfs\norder 99 1 2\nend\n");
  check_bool "not a permutation" true
    (bad "strategem-strategy 1 dfs\norder 0 0 0\nend\n")

let spec_deviation () =
  let ga = make_ga () in
  check_bool "same" true (Spec.deviation_node (ga_theta1 ga) (ga_theta1 ga) = None);
  check_bool "differs at root" true
    (Spec.deviation_node (ga_theta1 ga) (ga_theta2 ga)
    = Some (Graph.root ga.ga_graph))

(* ---------- Exec: the Section 2 per-context costs ---------- *)

let exec_section2_costs () =
  let ga = make_ga () in
  let i1 = ga_context ga ~dp:false ~dg:true in
  let i2 = ga_context ga ~dp:true ~dg:false in
  let c spec ctx = (Exec.run spec ctx).Exec.cost in
  check_float "c(Θ1,I1)=4" 4.0 (c (Spec.Dfs (ga_theta1 ga)) i1);
  check_float "c(Θ2,I1)=2" 2.0 (c (Spec.Dfs (ga_theta2 ga)) i1);
  check_float "c(Θ1,I2)=2" 2.0 (c (Spec.Dfs (ga_theta1 ga)) i2);
  check_float "c(Θ2,I2)=4" 4.0 (c (Spec.Dfs (ga_theta2 ga)) i2)

let exec_failure_explores_all () =
  let ga = make_ga () in
  let ctx = ga_context ga ~dp:false ~dg:false in
  let outcome = Exec.run (Spec.Dfs (ga_theta1 ga)) ctx in
  check_float "full cost" 4.0 outcome.Exec.cost;
  check_bool "failed" false outcome.Exec.succeeded;
  check_bool "no success arc" true (outcome.Exec.success_arc = None);
  check_int "4 arcs attempted" 4 (List.length outcome.Exec.attempted);
  check_int "2 observations" 2 (List.length outcome.Exec.observations)

let exec_success_stops () =
  let ga = make_ga () in
  let ctx = ga_context ga ~dp:true ~dg:true in
  let outcome = Exec.run (Spec.Dfs (ga_theta1 ga)) ctx in
  check_float "stops after Dp" 2.0 outcome.Exec.cost;
  check_bool "success arc" true (outcome.Exec.success_arc = Some ga.dp)

let exec_shared_prefix_paid_once () =
  let result = Workload.Gb.build () in
  let g = result.Build.graph in
  let all_blocked = Context.all_blocked g in
  let outcome = Exec.run (Spec.Dfs (Workload.Gb.theta_abcd result)) all_blocked in
  (* Every arc paid exactly once: total cost 10. *)
  check_float "total graph cost" 10.0 outcome.Exec.cost;
  check_int "10 arcs" 10 (List.length outcome.Exec.attempted)

let exec_blocked_internal_skips_subtree () =
  (* Experiment graph: blockable reduction blocks its whole subtree. *)
  let b = Graph.Builder.create "r" in
  let n = Graph.Builder.add_node b "n" in
  let ra =
    Graph.Builder.add_arc b ~src:(Graph.Builder.root b) ~dst:n ~blockable:true
      ~label:"RA" Graph.Reduction
  in
  let da = Graph.Builder.add_retrieval b ~src:n ~label:"DA" () in
  let db_arc =
    Graph.Builder.add_retrieval b ~src:(Graph.Builder.root b) ~label:"DB" ()
  in
  let g = Graph.Builder.finish b in
  let unblocked = Array.make (Graph.n_arcs g) true in
  unblocked.(ra) <- false;
  let ctx = Context.make g ~unblocked in
  let outcome = Exec.run (Spec.Dfs (Spec.default g)) ctx in
  (* Pays RA (blocked), skips DA, pays DB and succeeds. *)
  check_float "cost" 2.0 outcome.Exec.cost;
  check_bool "succeeded" true outcome.Exec.succeeded;
  check_bool "DA never attempted" false (List.mem da outcome.Exec.attempted);
  check_bool "DB attempted" true (List.mem db_arc outcome.Exec.attempted)

let exec_first_k () =
  let ga = make_ga () in
  let ctx = ga_context ga ~dp:true ~dg:true in
  let o1 = Exec.first_k 1 (Spec.Dfs (ga_theta1 ga)) ctx in
  let o2 = Exec.first_k 2 (Spec.Dfs (ga_theta1 ga)) ctx in
  check_float "k=1 stops early" 2.0 o1.Exec.cost;
  check_float "k=2 searches on" 4.0 o2.Exec.cost;
  check_bool "k=2 succeeded" true o2.Exec.succeeded;
  let o3 = Exec.first_k 2 (Spec.Dfs (ga_theta1 ga)) (ga_context ga ~dp:true ~dg:false) in
  check_bool "k=2 with one answer fails" false o3.Exec.succeeded

(* Execution invariants over random instances and contexts. *)
let exec_invariants =
  qcheck "exec invariants" ~count:200
    (QCheck2.Gen.pair gen_experiment_instance QCheck2.Gen.small_nat)
    (fun ((g, model), seed) ->
      let ctx = any_context model seed in
      let d = Spec.default g in
      let o = Exec.run (Spec.Dfs d) ctx in
      (* cost = sum of attempted arc costs *)
      let paid =
        List.fold_left (fun acc id -> acc +. (Graph.arc g id).Graph.cost) 0.
          o.Exec.attempted
      in
      abs_float (paid -. o.Exec.cost) < 1e-9
      (* every observation is of a blockable arc, attempted exactly once *)
      && List.for_all
           (fun { Exec.arc_id; unblocked } ->
             (Graph.arc g arc_id).Graph.blockable
             && List.mem arc_id o.Exec.attempted
             && unblocked = Context.unblocked ctx arc_id)
           o.Exec.observations
      (* no arc attempted twice *)
      && List.length (List.sort_uniq compare o.Exec.attempted)
         = List.length o.Exec.attempted
      (* success iff a success arc is reported, and it is an unblocked
         retrieval *)
      && (match o.Exec.success_arc with
         | Some id ->
           o.Exec.succeeded
           && (Graph.arc g id).Graph.kind = Graph.Retrieval
           && Context.unblocked ctx id
         | None -> not o.Exec.succeeded)
      (* an attempted arc's ancestors were attempted and unblocked *)
      && List.for_all
           (fun id ->
             List.for_all
               (fun anc ->
                 List.mem anc o.Exec.attempted && Context.unblocked ctx anc)
               (Graph.path_above g id))
           o.Exec.attempted)

(* A compiled strategy executes exactly like its DFS form: same cost,
   observations, attempted arcs and success arc, for every k. *)
let exec_compiled_paths_agree =
  qcheck "compiled paths execute like the DFS strategy" ~count:200
    QCheck2.Gen.(triple gen_experiment_instance small_nat (int_range 1 3))
    (fun ((g, model), seed, k) ->
      let ds = Array.of_list (dfs_strategies g) in
      let d = ds.(seed mod Array.length ds) in
      let compiled = Spec.compile d in
      List.for_all
        (fun i ->
          let ctx = any_context model (seed + i) in
          let a = Exec.first_k k (Spec.Dfs d) ctx in
          let b = Exec.first_k k compiled ctx in
          Float.equal a.Exec.cost b.Exec.cost
          && a.Exec.observations = b.Exec.observations
          && a.Exec.attempted = b.Exec.attempted
          && a.Exec.success_arc = b.Exec.success_arc
          && a.Exec.succeeded = b.Exec.succeeded)
        [ 0; 1; 2; 3; 4 ])

let exec_first_k_monotone =
  qcheck "first-k cost is monotone in k and in successes" ~count:150
    (QCheck2.Gen.pair gen_small_instance QCheck2.Gen.small_nat)
    (fun ((g, model), seed) ->
      let d = Spec.Dfs (Spec.default g) in
      let ctx = any_context model seed in
      let c k = (Exec.first_k k d ctx).Exec.cost in
      (* more answers required -> weakly more cost *)
      c 1 <= c 2 +. 1e-9
      && c 2 <= c 3 +. 1e-9
      &&
      (* unblocking one more retrieval never raises the cost *)
      let blocked_retrievals =
        List.filter (fun a -> Context.blocked ctx a.Graph.arc_id)
          (Graph.retrievals g)
      in
      List.for_all
        (fun a ->
          let unblocked =
            Array.init (Graph.n_arcs g) (fun id ->
                id = a.Graph.arc_id || Context.unblocked ctx id)
          in
          let ctx' = Context.make g ~unblocked in
          (Exec.first_k 2 d ctx').Exec.cost <= c 2 +. 1e-9)
        blocked_retrievals)

(* ---------- Cost ---------- *)

let cost_section2_values () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.6 ~pg:0.15 in
  (* With p_prof = 0.6: prof-first costs 2.8, grad-first 3.7 — the paper's
     two §2 values (its labels are swapped; see EXPERIMENTS.md E1). *)
  check_close "prof-first 2.8" 2.8 (fst (Cost.exact_dfs (ga_theta1 ga) model));
  check_close "grad-first 3.7" 3.7 (fst (Cost.exact_dfs (ga_theta2 ga) model))

let cost_success_prob () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.6 ~pg:0.15 in
  let _, p = Cost.exact_dfs (ga_theta1 ga) model in
  check_close "success prob" (1.0 -. (0.4 *. 0.85)) p

let cost_dfs_matches_enum =
  qcheck "exact_dfs = exact_enum" ~count:80 gen_experiment_instance
    (fun (g, model) ->
      List.for_all
        (fun d ->
          let a = fst (Cost.exact_dfs d model) in
          let b = Cost.exact_enum (Spec.Dfs d) model in
          abs_float (a -. b) < 1e-9)
        (List.filteri (fun i _ -> i < 4) (dfs_strategies g)))

let cost_monte_carlo_converges () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.6 ~pg:0.15 in
  let w = Cost.monte_carlo (Spec.Dfs (ga_theta1 ga)) model (rng 31) ~n:200_000 in
  check_close ~eps:0.02 "MC mean" 2.8 (Stats.Welford.mean w)

let cost_over_contexts () =
  let ga = make_ga () in
  (* 60% I2 (russ: dp), 15% I1 (manolis: dg), 25% fred (neither). *)
  let dist =
    Stats.Distribution.create
      [
        (ga_context ga ~dp:true ~dg:false, 0.60);
        (ga_context ga ~dp:false ~dg:true, 0.15);
        (ga_context ga ~dp:false ~dg:false, 0.25);
      ]
  in
  check_close "Θ1 over contexts" 2.8 (Cost.over_contexts (Spec.Dfs (ga_theta1 ga)) dist);
  check_close "Θ2 over contexts" 3.7 (Cost.over_contexts (Spec.Dfs (ga_theta2 ga)) dist)

(* ---------- Transform ---------- *)

let transform_apply () =
  let ga = make_ga () in
  let t = { Transform.node = Graph.root ga.ga_graph; pos_i = 0; pos_j = 1 } in
  let swapped = Transform.apply (ga_theta1 ga) t in
  check_bool "is Θ2" true (Spec.equal_dfs swapped (ga_theta2 ga));
  check_bool "involutive" true
    (Spec.equal_dfs (Transform.apply swapped t) (ga_theta1 ga))

let transform_neighbors_count () =
  let result = Workload.Gb.build () in
  let d = Workload.Gb.theta_abcd result in
  (* Three binary nodes: 3 swaps. *)
  check_int "all pairs" 3 (List.length (Transform.all d));
  check_int "adjacent" 3 (List.length (Transform.all ~adjacent_only:true d))

let transform_lambda () =
  let result = Workload.Gb.build () in
  let d = Workload.Gb.theta_abcd result in
  let g = result.Build.graph in
  (* Λ[Θ_ABCD, Θ_ABDC] = f*(R_tc)+f*(R_td) = 4; Λ[Θ_ABCD, Θ_ACDB] = 7. *)
  let lambda_for label1 =
    let tr =
      List.find
        (fun tr ->
          let r1, _ = Transform.arcs d tr in
          (Graph.arc g r1).Graph.label = label1)
        (Transform.all d)
    in
    Transform.lambda d tr
  in
  check_float "Λ at T" 4.0 (lambda_for "R_t_c");
  check_float "Λ at S" 7.0 (lambda_for "R_s_b")

let transform_lambda_nonadjacent () =
  (* Regression: with an expensive intermediate sibling, |Δ| exceeds
     f*(r1)+f*(r2); Λ must cover the whole swapped segment. *)
  let b = Graph.Builder.create "r" in
  let r1 = Graph.Builder.add_retrieval b ~src:(Graph.Builder.root b) ~cost:1.0 ~label:"r1" () in
  let m = Graph.Builder.add_retrieval b ~src:(Graph.Builder.root b) ~cost:100.0 ~label:"m" () in
  let r2 = Graph.Builder.add_retrieval b ~src:(Graph.Builder.root b) ~cost:1.0 ~label:"r2" () in
  let g = Graph.Builder.finish b in
  let d = Spec.default g in
  let tr = { Transform.node = Graph.root g; pos_i = 0; pos_j = 2 } in
  let d' = Transform.apply d tr in
  (* context: only r1 succeeds *)
  let unblocked = Array.make (Graph.n_arcs g) false in
  unblocked.(r1) <- true;
  ignore m;
  ignore r2;
  let ctx = Context.make g ~unblocked in
  let delta = Core.Delta.exact (Spec.Dfs d) (Spec.Dfs d') ctx in
  check_float "delta = -101" (-101.0) delta;
  check_float "lambda covers it" 102.0 (Transform.lambda d tr);
  check_bool "bounded" true (abs_float delta <= Transform.lambda d tr)

let transform_lambda_bounds_delta =
  qcheck "|Δ| ≤ Λ over random contexts" ~count:100
    (QCheck2.Gen.pair gen_experiment_instance QCheck2.Gen.small_nat)
    (fun ((g, model), seed) ->
      let d = Spec.default g in
      List.for_all
        (fun (tr, d') ->
          let lambda = Transform.lambda d tr in
          let ctx = any_context model seed in
          let delta = Core.Delta.exact (Spec.Dfs d) (Spec.Dfs d') ctx in
          abs_float delta <= lambda +. 1e-9)
        (Transform.neighbors d))

(* ---------- Moves ---------- *)

let four_leaf_root () =
  let b = Graph.Builder.create "r" in
  for i = 0 to 3 do
    ignore
      (Graph.Builder.add_retrieval b ~src:(Graph.Builder.root b)
         ~cost:(float_of_int (i + 1))
         ~label:(Printf.sprintf "d%d" i) ())
  done;
  Graph.Builder.finish b

let moves_promote () =
  let g = four_leaf_root () in
  let d = Spec.default g in
  let d' = Moves.apply d (Moves.Promote { node = Graph.root g; pos = 2 }) in
  Alcotest.(check (list int)) "2 to front" [ 2; 0; 1; 3 ]
    (Spec.arc_sequence (Spec.Dfs d'));
  (* promote lambda covers positions 0..pos: f* sums 1+2+3 = 6 *)
  check_float "promote lambda" 6.0
    (Moves.lambda d (Moves.Promote { node = Graph.root g; pos = 2 }))

let moves_family_counts () =
  let g = four_leaf_root () in
  let d = Spec.default g in
  check_int "adjacent" 3 (List.length (Moves.neighbors Moves.Adjacent_swaps d));
  check_int "all swaps" 6 (List.length (Moves.neighbors Moves.All_swaps d));
  (* promotions: 3 adjacent swaps + promote pos 2,3 *)
  check_int "promotions" 5 (List.length (Moves.neighbors Moves.Promotions d));
  check_int "union" 8
    (List.length (Moves.neighbors Moves.Swaps_and_promotions d))

let moves_neighbors_distinct =
  qcheck "family neighborhoods contain no duplicate strategies" ~count:40
    gen_small_instance
    (fun (g, _) ->
      let d = Spec.default g in
      List.for_all
        (fun family ->
          let seqs =
            List.map
              (fun (_, d') -> Spec.arc_sequence (Spec.Dfs d'))
              (Moves.neighbors family d)
          in
          List.length (List.sort_uniq compare seqs) = List.length seqs)
        [ Moves.Adjacent_swaps; Moves.All_swaps; Moves.Promotions;
          Moves.Swaps_and_promotions ])

let moves_promotions_connected () =
  (* Closure of the Promotions family on a ternary node reaches all 6
     orders. *)
  let b = Graph.Builder.create "r" in
  for _ = 0 to 2 do
    ignore (Graph.Builder.add_retrieval b ~src:(Graph.Builder.root b) ())
  done;
  let g = Graph.Builder.finish b in
  let seen = Hashtbl.create 8 in
  let rec explore d =
    let key = Spec.arc_sequence (Spec.Dfs d) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      List.iter (fun (_, d') -> explore d') (Moves.neighbors Moves.Promotions d)
    end
  in
  explore (Spec.default g);
  check_int "all 6 orders reachable" 6 (Hashtbl.length seen)

let moves_lambda_bounds_delta =
  qcheck "|Δ| ≤ Λ for every move family" ~count:100
    (QCheck2.Gen.pair gen_small_instance QCheck2.Gen.small_nat)
    (fun ((g, model), seed) ->
      let d = Spec.default g in
      let ctx = any_context model seed in
      List.for_all
        (fun (mv, d') ->
          abs_float (Core.Delta.exact (Spec.Dfs d) (Spec.Dfs d') ctx)
          <= Moves.lambda d mv +. 1e-9)
        (Moves.neighbors Moves.Swaps_and_promotions d))

(* ---------- Enumerate ---------- *)

let enumerate_counts () =
  let ga = make_ga () in
  check_int "2 DFS strategies" 2 (List.length (Enumerate.all_dfs ga.ga_graph));
  check_int "count matches" 2 (Enumerate.count_dfs ga.ga_graph);
  check_int "2 path orders" 2 (List.length (Enumerate.all_paths ga.ga_graph));
  let result = Workload.Gb.build () in
  check_int "G_B: 8 DFS" 8 (List.length (Enumerate.all_dfs result.Build.graph));
  check_int "G_B: 24 path orders" 24
    (List.length (Enumerate.all_paths result.Build.graph))

let enumerate_distinct =
  qcheck "enumerated strategies are distinct" ~count:40 gen_small_instance
    (fun (g, _) ->
      let seqs =
        List.map (fun d -> Spec.arc_sequence (Spec.Dfs d)) (dfs_strategies g)
      in
      List.length (List.sort_uniq compare seqs) = List.length seqs)

(* ---------- Upsilon ---------- *)

let upsilon_section4_example () =
  (* Section 4: p̂ = ⟨18/30, 10/20⟩ gives Θ1 (prof first). *)
  let ga = make_ga () in
  let model = ga_model ga ~pp:(18. /. 30.) ~pg:(10. /. 20.) in
  let opt, _ = Upsilon.aot model in
  check_bool "Θ1 optimal" true (Spec.equal_dfs opt (ga_theta1 ga));
  (* p = ⟨0.2, 0.6⟩ gives Θ2. *)
  let model2 = ga_model ga ~pp:0.2 ~pg:0.6 in
  let opt2, _ = Upsilon.aot model2 in
  check_bool "Θ2 optimal" true (Spec.equal_dfs opt2 (ga_theta2 ga))

let upsilon_aot_matches_brute =
  qcheck "aot = brute force over DFS" ~count:120 gen_experiment_instance
    (fun (_g, model) ->
      let _, c_aot = Upsilon.aot model in
      let _, c_brute = Upsilon.brute_dfs model in
      abs_float (c_aot -. c_brute) < 1e-9)

let upsilon_aot_cost_consistent =
  qcheck "aot's reported cost is its strategy's cost" ~count:80
    gen_experiment_instance
    (fun (g, model) ->
      ignore g;
      let d, c = Upsilon.aot model in
      abs_float (fst (Cost.exact_dfs d model) -. c) < 1e-9)

let upsilon_sidney_matches_brute =
  qcheck "Sidney = brute force over path orders" ~count:120 gen_small_instance
    (fun (g, model) ->
      if not (Graph.simple_disjunctive g) then true
      else begin
        let _, c_sid = Upsilon.ot_sidney model in
        let _, c_brute = Upsilon.brute_paths model in
        abs_float (c_sid -. c_brute) < 1e-7
      end)

let upsilon_sidney_beats_dfs =
  qcheck "global path optimum ≤ DFS optimum" ~count:100 gen_small_instance
    (fun (_g, model) ->
      let _, c_dfs = Upsilon.aot model in
      let _, c_sid = Upsilon.ot_sidney model in
      c_sid <= c_dfs +. 1e-9)

let upsilon_sidney_cost_consistent =
  qcheck "Sidney's reported cost equals enumeration" ~count:80
    gen_small_instance
    (fun (_g, model) ->
      let spec, c = Upsilon.ot_sidney model in
      abs_float (Cost.exact_enum spec model -. c) < 1e-9)

let upsilon_approx_valid =
  qcheck "approx produces a valid strategy" ~count:60 gen_experiment_instance
    (fun (g, model) ->
      let d = Upsilon.approx model in
      (* valid = its cost is computable and at least the optimum *)
      let c = fst (Cost.exact_dfs d model) in
      let _, c_opt = Upsilon.aot model in
      c >= c_opt -. 1e-9 && Graph.n_arcs g >= 0)

let upsilon_sidney_rejects_experiments () =
  let gen = gen_experiment_instance in
  ignore gen;
  let b = Graph.Builder.create "r" in
  let n = Graph.Builder.add_node b "n" in
  ignore
    (Graph.Builder.add_arc b ~src:(Graph.Builder.root b) ~dst:n ~blockable:true
       Graph.Reduction);
  ignore (Graph.Builder.add_retrieval b ~src:n ());
  let g = Graph.Builder.finish b in
  let model = Bernoulli_model.uniform g 0.5 in
  check_bool "raises" true
    (try
       ignore (Upsilon.ot_sidney model);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    ( "strategy.spec",
      [
        case "default sequences" spec_default_sequence;
        case "equation 4 sequences" spec_eq4_sequence;
        case "note 3 paths" spec_note3_paths;
        case "validation" spec_validation;
        case "retrieval order" spec_retrieval_order;
        case "persist errors" persist_errors;
        case "deviation node" spec_deviation;
      ] );
    ( "strategy.exec",
      [
        case "section 2 per-context costs" exec_section2_costs;
        case "failure explores all" exec_failure_explores_all;
        case "success stops" exec_success_stops;
        case "shared prefix paid once" exec_shared_prefix_paid_once;
        case "blocked internal skips subtree" exec_blocked_internal_skips_subtree;
        case "first k" exec_first_k;
        exec_invariants;
        exec_first_k_monotone;
        exec_compiled_paths_agree;
      ] );
    ( "strategy.cost",
      [
        case "section 2 expected costs" cost_section2_values;
        case "success probability" cost_success_prob;
        cost_dfs_matches_enum;
        slow_case "monte carlo converges" cost_monte_carlo_converges;
        case "over explicit contexts" cost_over_contexts;
      ] );
    ( "strategy.transform",
      [
        case "apply" transform_apply;
        case "neighbor count" transform_neighbors_count;
        case "lambda values" transform_lambda;
        case "lambda non-adjacent regression" transform_lambda_nonadjacent;
        transform_lambda_bounds_delta;
      ] );
    ( "strategy.moves",
      [
        case "promote" moves_promote;
        case "family counts" moves_family_counts;
        moves_neighbors_distinct;
        case "promotions connected" moves_promotions_connected;
        moves_lambda_bounds_delta;
      ] );
    ( "strategy.enumerate",
      [ case "counts" enumerate_counts; enumerate_distinct ] );
    ( "strategy.upsilon",
      [
        case "section 4 example" upsilon_section4_example;
        upsilon_aot_matches_brute;
        upsilon_aot_cost_consistent;
        upsilon_sidney_matches_brute;
        upsilon_sidney_beats_dfs;
        upsilon_sidney_cost_consistent;
        upsilon_approx_valid;
        case "sidney rejects experiments" upsilon_sidney_rejects_experiments;
      ] );
  ]
