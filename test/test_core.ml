open Helpers
open Infgraph
open Strategy
module C = Core

(* ---------- Delta ---------- *)

let delta_paper_cases () =
  (* Section 3.1's three cases on G_A. *)
  let ga = make_ga () in
  let t1 = Spec.Dfs (ga_theta1 ga) and t2 = Spec.Dfs (ga_theta2 ga) in
  let under ctx =
    C.Delta.underestimate ~theta:t1 ~theta':t2 (Exec.run t1 ctx)
  in
  (* Solution under Rg but not Rp: Δ̃ = f*(Rp) = 2. *)
  check_float "grad only" 2.0 (under (ga_context ga ~dp:false ~dg:true));
  (* No solution anywhere: Δ̃ = 0. *)
  check_float "none" 0.0 (under (ga_context ga ~dp:false ~dg:false));
  (* Solution under Rp (Dg unexplored): Δ̃ = −f*(Rg) = −2 regardless of Dg. *)
  check_float "prof, dg true" (-2.0) (under (ga_context ga ~dp:true ~dg:true));
  check_float "prof, dg false" (-2.0) (under (ga_context ga ~dp:true ~dg:false))

let delta_sandwich =
  qcheck "Δ̃ ≤ Δ ≤ Δ̂ on simple disjunctive graphs" ~count:200
    (QCheck2.Gen.pair gen_small_instance QCheck2.Gen.small_nat)
    (fun ((g, model), seed) ->
      let ds = dfs_strategies g in
      let theta = Spec.Dfs (List.hd ds) in
      let ctx = any_context model seed in
      let outcome = Exec.run theta ctx in
      List.for_all
        (fun d' ->
          let theta' = Spec.Dfs d' in
          let exact = C.Delta.exact theta theta' ctx in
          let under = C.Delta.underestimate ~theta ~theta' outcome in
          let over = C.Delta.overestimate ~theta ~theta' outcome in
          under <= exact +. 1e-9 && exact <= over +. 1e-9)
        ds)

let delta_exact_when_fully_observed =
  qcheck "failure run determines Δ exactly" ~count:100
    gen_small_instance
    (fun (g, _model) ->
      (* In the all-blocked context Θ observes every retrieval. *)
      let ctx = Context.all_blocked g in
      let ds = dfs_strategies g in
      let theta = Spec.Dfs (List.hd ds) in
      let outcome = Exec.run theta ctx in
      List.for_all
        (fun d' ->
          let theta' = Spec.Dfs d' in
          let exact = C.Delta.exact theta theta' ctx in
          abs_float (C.Delta.underestimate ~theta ~theta' outcome -. exact) < 1e-9
          && abs_float (C.Delta.overestimate ~theta ~theta' outcome -. exact) < 1e-9)
        ds)

let delta_rejects_experiment_graphs () =
  let b = Graph.Builder.create "r" in
  let n = Graph.Builder.add_node b "n" in
  ignore
    (Graph.Builder.add_arc b ~src:(Graph.Builder.root b) ~dst:n ~blockable:true
       Graph.Reduction);
  ignore (Graph.Builder.add_retrieval b ~src:n ());
  ignore (Graph.Builder.add_retrieval b ~src:(Graph.Builder.root b) ());
  let g = Graph.Builder.finish b in
  check_bool "not sound" false (C.Delta.sound_for g);
  let d = Spec.default g in
  let outcome = Exec.run (Spec.Dfs d) (Context.all_blocked g) in
  check_bool "raises" true
    (try
       ignore (C.Delta.underestimate ~theta:(Spec.Dfs d) ~theta':(Spec.Dfs d) outcome);
       false
     with Invalid_argument _ -> true)

(* ---------- Pib1 ---------- *)

let pib1_counters_equal_replay () =
  (* The paper's 3-counter Δ̃ must equal the trace-replay Δ̃ sum on G_A. *)
  let ga = make_ga () in
  let t1 = ga_theta1 ga in
  let tr = { Transform.node = Graph.root ga.ga_graph; pos_i = 0; pos_j = 1 } in
  let filter = C.Pib1.create t1 ~transform:tr ~delta:0.05 in
  let model = ga_model ga ~pp:0.3 ~pg:0.5 in
  let r = rng 41 in
  let replay_sum = ref 0. in
  for _ = 1 to 500 do
    let ctx = Bernoulli_model.sample model r in
    let outcome = Exec.run (Spec.Dfs t1) ctx in
    C.Pib1.observe filter outcome;
    replay_sum :=
      !replay_sum
      +. C.Delta.underestimate ~theta:(Spec.Dfs t1)
           ~theta':(Spec.Dfs (ga_theta2 ga)) outcome
  done;
  check_close "counter form = replay form" !replay_sum (C.Pib1.delta_sum filter);
  let m, k1, k2 = C.Pib1.counts filter in
  check_int "m" 500 m;
  check_bool "counters plausible" true (k1 + k2 <= m && k1 >= 0 && k2 >= 0)

let pib1_switches_when_better () =
  (* Θ2 is much better: p_g >> p_p. PIB1 must approve the swap. *)
  let ga = make_ga () in
  let t1 = ga_theta1 ga in
  let tr = { Transform.node = Graph.root ga.ga_graph; pos_i = 0; pos_j = 1 } in
  let filter = C.Pib1.create t1 ~transform:tr ~delta:0.05 in
  let model = ga_model ga ~pp:0.05 ~pg:0.9 in
  let r = rng 42 in
  let rec feed i =
    if i > 5000 then `Keep
    else begin
      C.Pib1.observe filter (Exec.run (Spec.Dfs t1) (Bernoulli_model.sample model r));
      match C.Pib1.decision filter with `Switch -> `Switch | `Keep -> feed (i + 1)
    end
  in
  check_bool "switches" true (feed 1 = `Switch);
  check_bool "theta' is Θ2" true
    (Spec.equal_dfs (C.Pib1.theta' filter) (ga_theta2 ga))

let pib1_false_positive_rate () =
  (* Θ2 is strictly worse (p_p > p_g): over many runs, the fraction where
     PIB1 ever approves within 300 samples must stay below δ. *)
  let ga = make_ga () in
  let t1 = ga_theta1 ga in
  let tr = { Transform.node = Graph.root ga.ga_graph; pos_i = 0; pos_j = 1 } in
  let delta = 0.1 in
  let model = ga_model ga ~pp:0.6 ~pg:0.3 in
  let r = rng 43 in
  let runs = 300 in
  let mistakes = ref 0 in
  for _ = 1 to runs do
    let filter = C.Pib1.create t1 ~transform:tr ~delta in
    let switched = ref false in
    for _ = 1 to 300 do
      if not !switched then begin
        C.Pib1.observe filter
          (Exec.run (Spec.Dfs t1) (Bernoulli_model.sample model r));
        if C.Pib1.decision filter = `Switch then switched := true
      end
    done;
    if !switched then incr mistakes
  done;
  check_bool "false positive rate below delta" true
    (float_of_int !mistakes /. float_of_int runs <= delta)

let pib1_rejects_nonadjacent () =
  let result = Workload.Gb.build () in
  let d = Workload.Gb.theta_abcd result in
  (* Find a non-adjacent transform... G_B has only binary nodes, so build a
     ternary node instead. *)
  ignore d;
  let b = Graph.Builder.create "r" in
  for _ = 1 to 3 do
    ignore (Graph.Builder.add_retrieval b ~src:(Graph.Builder.root b) ())
  done;
  let g = Graph.Builder.finish b in
  let tr = { Transform.node = Graph.root g; pos_i = 0; pos_j = 2 } in
  check_bool "raises" true
    (try
       ignore (C.Pib1.create (Spec.default g) ~transform:tr ~delta:0.05);
       false
     with Invalid_argument _ -> true)

(* ---------- Pib ---------- *)

let pib_learns_ga () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.1 ~pg:0.8 in
  let oracle = C.Oracle.of_model model (rng 44) in
  let pib = C.Pib.create (ga_theta1 ga) in
  let climbs = C.Pib.run pib oracle ~n:3000 in
  check_int "one climb" 1 (List.length climbs);
  check_bool "reaches Θ2" true (Spec.equal_dfs (C.Pib.current pib) (ga_theta2 ga))

let pib_reaches_optimum_gb () =
  let result = Workload.Gb.build () in
  let model = Workload.Gb.model_d_heavy result in
  let oracle = C.Oracle.of_model model (rng 45) in
  let pib = C.Pib.create (Workload.Gb.theta_abcd result) in
  ignore (C.Pib.run pib oracle ~n:30_000);
  let c_final = fst (Cost.exact_dfs (C.Pib.current pib) model) in
  let _, c_opt = Upsilon.aot model in
  check_close ~eps:1e-6 "reaches the DFS optimum" c_opt c_final

let pib_climbs_monotone () =
  (* Theorem 1 in action: every climb must strictly improve the true cost
     (checked exactly; failure probability of this test is < δ = 0.05). *)
  let result = Workload.Gb.build () in
  let model = Workload.Gb.model result ~pa:0.2 ~pb:0.6 ~pc:0.05 ~pd:0.7 in
  let oracle = C.Oracle.of_model model (rng 46) in
  let pib = C.Pib.create (Workload.Gb.theta_abcd result) in
  let climbs = C.Pib.run pib oracle ~n:20_000 in
  check_bool "at least one climb" true (List.length climbs >= 1);
  List.iter
    (fun climb ->
      let before = fst (Cost.exact_dfs climb.C.Pib.from_strategy model) in
      let after = fst (Cost.exact_dfs climb.C.Pib.to_strategy model) in
      check_bool "strict improvement" true (after < before))
    climbs

let pib_no_climb_when_optimal () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.8 ~pg:0.1 in
  let oracle = C.Oracle.of_model model (rng 47) in
  let pib = C.Pib.create (ga_theta1 ga) in
  let climbs = C.Pib.run pib oracle ~n:5000 in
  check_int "no climbs from the optimum" 0 (List.length climbs)

let pib_check_every () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.1 ~pg:0.8 in
  let oracle = C.Oracle.of_model model (rng 48) in
  let pib =
    C.Pib.create ~config:{ C.Pib.default_config with check_every = 50 }
      (ga_theta1 ga)
  in
  let climbs = C.Pib.run pib oracle ~n:3000 in
  check_bool "still climbs" true (List.length climbs = 1);
  List.iter
    (fun cl -> check_int "fires on a multiple of 50" 0 (cl.C.Pib.samples mod 50))
    climbs

let pib_candidates_introspection () =
  let ga = make_ga () in
  let pib = C.Pib.create (ga_theta1 ga) in
  check_int "one candidate" 1 (List.length (C.Pib.candidates pib));
  let _, sum, lambda = List.hd (C.Pib.candidates pib) in
  check_float "sum starts at 0" 0.0 sum;
  check_float "lambda" 4.0 lambda

(* Section 5.3: PIB "does not require that the success probabilities of
   the retrievals be independent". Under arbitrary finite context
   distributions (here: random, typically correlated), every climb must
   still be a strict improvement w.r.t. the true distribution. *)
let pib_sound_without_independence =
  qcheck "PIB climbs are improvements under correlated contexts" ~count:25
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let r = rng seed in
      let g, _ = Workload.Synth.small_instance ~max_leaves:4 r in
      (* Random support of correlated contexts with random weights. *)
      let n_ctx = 3 + Stats.Rng.int r 5 in
      let contexts =
        List.init n_ctx (fun _ ->
            Context.make g
              ~unblocked:
                (Array.init (Graph.n_arcs g) (fun _ ->
                     Stats.Rng.bernoulli r 0.4)))
      in
      let dist =
        Stats.Distribution.create
          (List.map (fun c -> (c, 1.0 +. Stats.Rng.float r)) contexts)
      in
      let oracle = C.Oracle.of_distribution g dist (Stats.Rng.split r) in
      let pib = C.Pib.create (Spec.default g) in
      let climbs = C.Pib.run pib oracle ~n:4000 in
      List.for_all
        (fun cl ->
          Cost.over_contexts (Spec.Dfs cl.C.Pib.to_strategy) dist
          < Cost.over_contexts (Spec.Dfs cl.C.Pib.from_strategy) dist +. 1e-9)
        climbs)

let pib_budget_accounting () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.5 ~pg:0.5 in
  let oracle = C.Oracle.of_model model (rng 64) in
  let pib = C.Pib.create (ga_theta1 ga) in
  ignore (C.Pib.run pib oracle ~n:500);
  check_int "500 samples seen" 500 (C.Pib.samples_total pib);
  check_int "still on sample set" 500 (C.Pib.samples_current pib)

(* PIB before its Δ̃ memo, kept as the reference: every candidate's Δ̃ is
   recomputed with [Delta.underestimate] from every outcome, and
   Equation 6 is applied as [Pib] applies it. *)
module Ref_pib = struct
  type cand = { mv : Moves.t; spec' : Spec.dfs; lambda : float; mutable sum : float }

  type t = {
    cfg : C.Pib.config;
    mutable theta : Spec.dfs;
    mutable cands : cand list;
    mutable n : int;
    mutable since_check : int;
    seq : Stats.Sequential.t;
    mutable climbs : C.Pib.climb list; (* newest first *)
  }

  let cands cfg theta =
    List.map
      (fun (mv, spec') -> { mv; spec'; lambda = Moves.lambda theta mv; sum = 0. })
      (Moves.neighbors cfg.C.Pib.moves theta)

  let create cfg theta =
    {
      cfg;
      theta;
      cands = cands cfg theta;
      n = 0;
      since_check = 0;
      seq = Stats.Sequential.create ~delta:cfg.C.Pib.delta;
      climbs = [];
    }

  let try_climb t =
    if t.cands <> [] then begin
      let i = Stats.Sequential.advance t.seq ~count:(List.length t.cands) in
      let passing =
        List.filter_map
          (fun c ->
            let th =
              Stats.Chernoff.switch_threshold_seq ~n:t.n ~delta:t.cfg.C.Pib.delta
                ~test_index:i ~range:c.lambda
            in
            if c.sum >= th && c.sum > 0. then Some (c, th) else None)
          t.cands
      in
      match passing with
      | [] -> ()
      | first :: rest ->
        let best, threshold =
          List.fold_left
            (fun (bc, bt) (c, th) ->
              if c.sum -. th > bc.sum -. bt then (c, th) else (bc, bt))
            first rest
        in
        t.climbs <-
          {
            C.Pib.step = List.length t.climbs + 1;
            samples = t.n;
            tests_charged = i;
            move = best.mv;
            from_strategy = t.theta;
            to_strategy = best.spec';
            delta_sum = best.sum;
            threshold;
          }
          :: t.climbs;
        t.theta <- best.spec';
        t.cands <- cands t.cfg t.theta;
        t.n <- 0
    end

  let step t ctx =
    let k = t.cfg.C.Pib.answers_required in
    let theta = Spec.Dfs t.theta in
    let outcome = Exec.first_k k theta ctx in
    List.iter
      (fun c ->
        c.sum <-
          c.sum
          +. C.Delta.underestimate ~k ~theta ~theta':(Spec.Dfs c.spec') outcome)
      t.cands;
    t.n <- t.n + 1;
    t.since_check <- t.since_check + 1;
    if t.since_check >= t.cfg.C.Pib.check_every then begin
      t.since_check <- 0;
      try_climb t
    end;
    outcome
end

let same_climb (a : C.Pib.climb) (b : C.Pib.climb) =
  a.step = b.step && a.samples = b.samples
  && a.tests_charged = b.tests_charged
  && a.move = b.move
  && Spec.equal_dfs a.from_strategy b.from_strategy
  && Spec.equal_dfs a.to_strategy b.to_strategy
  && Float.equal a.delta_sum b.delta_sum
  && Float.equal a.threshold b.threshold

(* Drive [Pib] and [Ref_pib] over the same contexts, checking [Pib.check]
   after every step. Returns whether the two stayed bit-identical, and the
   number of climbs they made. *)
let pib_matches_reference ?(config = C.Pib.default_config) start next_context
    ~n =
  let pib = C.Pib.create ~config start in
  let reference = Ref_pib.create config start in
  let same = ref true in
  for _ = 1 to n do
    let ctx = next_context () in
    let outcome, _ = C.Pib.step pib ctx in
    C.Pib.check pib;
    let ref_outcome = Ref_pib.step reference ctx in
    same :=
      !same
      && Float.equal outcome.Exec.cost ref_outcome.Exec.cost
      && outcome.Exec.observations = ref_outcome.Exec.observations
      && List.for_all2
           (fun (mv, sum, lambda) (c : Ref_pib.cand) ->
             mv = c.mv && Float.equal sum c.sum && Float.equal lambda c.lambda)
           (C.Pib.candidates pib) reference.Ref_pib.cands
  done;
  let climbs = C.Pib.climbs pib in
  ( !same
    && List.length climbs = List.length reference.Ref_pib.climbs
    && List.for_all2 same_climb climbs (List.rev reference.Ref_pib.climbs),
    List.length climbs )

let pib_memo_bit_identical_ga () =
  let ga = make_ga () in
  List.iter
    (fun k ->
      let model = ga_model ga ~pp:0.1 ~pg:0.8 in
      let r = rng (300 + k) in
      let config = { C.Pib.default_config with answers_required = k } in
      let same, climbs =
        pib_matches_reference ~config (ga_theta1 ga)
          (fun () -> Bernoulli_model.sample model r)
          ~n:2000
      in
      check_bool (Printf.sprintf "k=%d bit-identical" k) true same;
      if k = 1 then check_bool "k=1 climbs" true (climbs >= 1))
    [ 1; 2 ]

let pib_memo_bit_identical_genealogy_firstk () =
  let result = Workload.Genealogy.build () in
  let pop = Workload.Genealogy.populate (rng 301) ~n_people:200 in
  List.iter
    (fun k ->
      let oracle = Workload.Genealogy.oracle result pop (rng (302 + k)) in
      let config = { C.Pib.default_config with answers_required = k } in
      let same, climbs =
        pib_matches_reference ~config
          (Spec.default result.Build.graph)
          (fun () -> C.Oracle.next oracle)
          ~n:3000
      in
      check_bool (Printf.sprintf "k=%d bit-identical" k) true same;
      if k = 1 then check_bool "k=1 climbs" true (climbs >= 1))
    [ 1; 2 ];
  (* Section 5.2's scan-order workload, where k = 2 climbs quickly. *)
  let f =
    Workload.Firstk.make
      ~sources:[ ("slow", 5.0, 0.5); ("fast", 1.0, 0.9); ("mid", 2.0, 0.8) ]
      ~k:2
  in
  let g = Workload.Firstk.graph f in
  let model = Workload.Firstk.model f in
  let r = rng 304 in
  let same, climbs =
    pib_matches_reference
      ~config:{ C.Pib.default_config with answers_required = 2 }
      (Spec.default g)
      (fun () -> Bernoulli_model.sample model r)
      ~n:5000
  in
  check_bool "first-k (k=2) bit-identical" true same;
  check_bool "first-k (k=2) climbs" true (climbs >= 1)

let pib_memo_bit_identical_random =
  qcheck "memoized Δ̃ sums and climbs equal the per-context reference"
    ~count:30
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 2))
    (fun (seed, k) ->
      let r = rng seed in
      let g, _ = Workload.Synth.small_instance ~max_leaves:5 r in
      (* A small support of correlated contexts, so traces repeat. *)
      let contexts =
        Array.init (2 + Stats.Rng.int r 4) (fun _ ->
            Context.make g
              ~unblocked:
                (Array.init (Graph.n_arcs g) (fun _ ->
                     Stats.Rng.bernoulli r 0.4)))
      in
      let config = { C.Pib.default_config with answers_required = k } in
      fst
        (pib_matches_reference ~config (Spec.default g)
           (fun () -> contexts.(Stats.Rng.int r (Array.length contexts)))
           ~n:1500))

let pib_first_k_learning () =
  (* Section 5.2's first-k variant: learn the scan order that minimizes
     the cost of collecting k = 2 answers. *)
  let f =
    Workload.Firstk.make
      ~sources:[ ("slow", 5.0, 0.5); ("fast", 1.0, 0.9); ("mid", 2.0, 0.8) ]
      ~k:2
  in
  let g = Workload.Firstk.graph f in
  let model = Workload.Firstk.model f in
  let oracle = C.Oracle.of_model model (rng 62) in
  let pib =
    C.Pib.create
      ~config:{ C.Pib.default_config with answers_required = 2 }
      (Spec.default g)
  in
  ignore (C.Pib.run pib oracle ~n:30_000);
  let learned = Spec.Dfs (C.Pib.current pib) in
  let _, best = Workload.Firstk.brute_optimal f in
  let start_cost =
    Workload.Firstk.expected_cost f (Spec.Dfs (Spec.default g))
  in
  let learned_cost = Workload.Firstk.expected_cost f learned in
  check_bool "improved" true (learned_cost < start_cost);
  check_close ~eps:1e-6 "reaches the optimum" best learned_cost

let pib_richer_moves_no_worse () =
  (* A richer transformation family must not hurt: on G_B the final cost
     with promotions is at most that with adjacent swaps (Theorem 1 holds
     for any family). *)
  let result = Workload.Gb.build () in
  let model = Workload.Gb.model_d_heavy result in
  let final family seed =
    let pib =
      C.Pib.create ~config:{ C.Pib.default_config with moves = family }
        (Workload.Gb.theta_abcd result)
    in
    ignore (C.Pib.run pib (C.Oracle.of_model model (rng seed)) ~n:20_000);
    fst (Cost.exact_dfs (C.Pib.current pib) model)
  in
  let adj = final C.Pib.default_config.C.Pib.moves 63 in
  let rich = final Strategy.Moves.Swaps_and_promotions 63 in
  let _, c_opt = Upsilon.aot model in
  check_bool "both near optimum" true
    (adj <= c_opt +. 1e-6 && rich <= c_opt +. 1e-6)

(* ---------- Palo ---------- *)

let palo_stops_and_is_local_opt () =
  let result = Workload.Gb.build () in
  let model = Workload.Gb.model_d_heavy result in
  let oracle = C.Oracle.of_model model (rng 49) in
  let epsilon = 0.3 in
  let palo =
    C.Palo.create
      ~config:{ C.Palo.default_config with epsilon; delta = 0.05 }
      (Workload.Gb.theta_abcd result)
  in
  (match C.Palo.run palo oracle ~max_contexts:500_000 with
  | C.Palo.Stopped _ -> ()
  | C.Palo.Running -> Alcotest.fail "PALO did not stop");
  (* ε-local optimality, verified exactly. *)
  let final = C.Palo.current palo in
  let c_final = fst (Cost.exact_dfs final model) in
  List.iter
    (fun (_, d') ->
      let c' = fst (Cost.exact_dfs d' model) in
      check_bool "ε-local optimum" true (c' >= c_final -. epsilon))
    (Transform.neighbors final)

let palo_trivial_stop () =
  (* A root with a single child has no transformations: stop immediately. *)
  let b = Graph.Builder.create "r" in
  ignore (Graph.Builder.add_retrieval b ~src:(Graph.Builder.root b) ());
  let g = Graph.Builder.finish b in
  let palo = C.Palo.create (Spec.default g) in
  let oracle = C.Oracle.of_model (Bernoulli_model.uniform g 0.5) (rng 50) in
  (match C.Palo.run palo oracle ~max_contexts:10 with
  | C.Palo.Stopped { total_samples; _ } ->
    check_bool "stops within a couple contexts" true (total_samples <= 2)
  | C.Palo.Running -> Alcotest.fail "should stop immediately")

let palo_works_on_experiment_graphs () =
  (* Paired evaluation lifts the simple-disjunctive restriction. *)
  let rng' = rng 51 in
  let params =
    { Workload.Synth.default_params with depth = 2; branch_max = 2; experiment_prob = 0.6 }
  in
  let g, model = Workload.Synth.random_instance rng' params in
  let palo =
    C.Palo.create ~config:{ C.Palo.default_config with epsilon = 1.0 }
      (Spec.default g)
  in
  let oracle = C.Oracle.of_model model (rng 52) in
  match C.Palo.run palo oracle ~max_contexts:200_000 with
  | C.Palo.Stopped _ -> ()
  | C.Palo.Running -> Alcotest.fail "PALO should stop on experiment graphs too"

(* ---------- Pao ---------- *)

let pao_targets_eq7 () =
  let ga = make_ga () in
  let g = ga.ga_graph in
  let targets = C.Pao.sample_targets g ~epsilon:0.5 ~delta:0.1 in
  (* n = 2 retrievals, F¬ = 2 for both: m = ceil(2 (2*2/0.5)^2 ln(4/0.1)). *)
  let expected =
    int_of_float (ceil (2.0 *. ((2.0 *. 2.0 /. 0.5) ** 2.0) *. log (4.0 /. 0.1)))
  in
  check_int "m(Dp)" expected targets.(ga.dp);
  check_int "m(Dg)" expected targets.(ga.dg);
  check_int "reductions get none" 0 targets.(ga.rp)

let pao_adaptive_strategy_orders_by_deficit () =
  let ga = make_ga () in
  let deficits = Array.make 4 0 in
  deficits.(ga.dg) <- 10;
  deficits.(ga.dp) <- 3;
  let spec = C.Pao.adaptive_strategy ga.ga_graph ~deficits in
  Alcotest.(check (list int))
    "grad path first"
    [ ga.rg; ga.dg; ga.rp; ga.dp ]
    (Spec.arc_sequence spec)

let pao_collects_enough_samples () =
  let ga = make_ga () in
  (* The pathological case of Section 4.1: Dp always succeeds, so a fixed
     Θ1 would never sample Dg. QPᴬ must still gather both. *)
  let model = ga_model ga ~pp:1.0 ~pg:0.5 in
  let oracle = C.Oracle.of_model model (rng 53) in
  let report = C.Pao.run ~scale:0.0005 ~epsilon:0.5 ~delta:0.1 oracle in
  check_bool "not capped" false report.C.Pao.capped;
  check_bool "Dp sampled" true
    (report.C.Pao.attempts.(ga.dp) >= report.C.Pao.targets.(ga.dp));
  check_bool "Dg sampled" true
    (report.C.Pao.attempts.(ga.dg) >= report.C.Pao.targets.(ga.dg))

let pao_estimates_converge () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.7 ~pg:0.3 in
  let oracle = C.Oracle.of_model model (rng 54) in
  (* Eq 7 at (ε=0.5, δ=0.1) asks for ~1900 samples per retrieval here —
     small enough to run unscaled. *)
  let report = C.Pao.run ~epsilon:0.5 ~delta:0.1 oracle in
  check_close ~eps:0.05 "p̂(Dp)" 0.7 report.C.Pao.p_hat.(ga.dp);
  check_close ~eps:0.05 "p̂(Dg)" 0.3 report.C.Pao.p_hat.(ga.dg);
  check_bool "learned the optimum" true
    (Spec.equal_dfs report.C.Pao.strategy (ga_theta1 ga))

let pao_epsilon_guarantee =
  qcheck "PAO regret ≤ ε at the full Eq-7 bill (Theorem 2)" ~count:25
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let r = rng seed in
      let g, model = Workload.Synth.small_instance ~max_leaves:4 r in
      if not (Graph.simple_disjunctive g) then true
      else begin
        (* A generous epsilon keeps the Eq-7 bill small enough to pay in
           full, so Theorem 2's guarantee genuinely applies. *)
        let epsilon = 0.5 *. Costs.total g in
        let oracle = C.Oracle.of_model model (Stats.Rng.split r) in
        let report =
          C.Pao.run ~max_contexts:500_000 ~epsilon ~delta:0.1 oracle
        in
        let c_pao = fst (Cost.exact_dfs report.C.Pao.strategy model) in
        let _, c_opt = Upsilon.aot model in
        (not report.C.Pao.capped) && c_pao -. c_opt <= epsilon +. 1e-9
      end)

let pao_cap_flag () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.5 ~pg:0.5 in
  let oracle = C.Oracle.of_model model (rng 55) in
  let report = C.Pao.run ~max_contexts:5 ~epsilon:0.01 ~delta:0.01 oracle in
  check_bool "capped" true report.C.Pao.capped;
  check_int "contexts" 5 report.C.Pao.contexts_used

(* ---------- Pao_adaptive ---------- *)

let experiment_fixture () =
  (* root -Re(p=0.2, blockable)-> n -De(p=0.9)-> box ; root -D0(p=0.3)-> box
     De is reachable only 20% of the time: Theorem 2 sampling would stall;
     Theorem 3 aiming must not. *)
  let b = Graph.Builder.create "r" in
  let n = Graph.Builder.add_node b "n" in
  let re =
    Graph.Builder.add_arc b ~src:(Graph.Builder.root b) ~dst:n ~blockable:true
      ~label:"Re" Graph.Reduction
  in
  let de = Graph.Builder.add_retrieval b ~src:n ~label:"De" () in
  let d0 = Graph.Builder.add_retrieval b ~src:(Graph.Builder.root b) ~label:"D0" () in
  let g = Graph.Builder.finish b in
  let p = Array.make (Graph.n_arcs g) 1.0 in
  p.(re) <- 0.2;
  p.(de) <- 0.9;
  p.(d0) <- 0.3;
  (g, Bernoulli_model.make g ~p, re, de, d0)

let pao_adaptive_targets_eq8 () =
  let g, _model, re, de, d0 = experiment_fixture () in
  let targets = C.Pao_adaptive.aim_targets g ~epsilon:1.0 ~delta:0.1 in
  check_bool "all experiments targeted" true
    (targets.(re) > 0 && targets.(de) > 0 && targets.(d0) > 0);
  (* Verify one value against Equation 8 directly. *)
  let f_not = Costs.f_not g de in
  let n = 3. in
  let root = sqrt ((2.0 /. (n *. f_not)) +. 1.0) -. 1.0 in
  let expected = int_of_float (ceil (2.0 /. (root *. root) *. log (4.0 *. n /. 0.1))) in
  check_int "m'(De)" expected targets.(de)

let pao_adaptive_handles_low_rho () =
  let _g, model, re, de, d0 = experiment_fixture () in
  let oracle = C.Oracle.of_model model (rng 56) in
  let report = C.Pao_adaptive.run ~epsilon:1.0 ~delta:0.1 oracle in
  check_bool "not capped" false report.C.Pao_adaptive.capped;
  check_bool "aims met" true
    (report.C.Pao_adaptive.aims.(de) >= report.C.Pao_adaptive.targets.(de));
  (* De was reached only when Re was unblocked. *)
  check_bool "reached ≤ aims" true
    (report.C.Pao_adaptive.reached.(de) <= report.C.Pao_adaptive.aims.(de));
  check_bool "estimates in range" true
    (Array.for_all (fun p -> p >= 0.0 && p <= 1.0) report.C.Pao_adaptive.p_hat);
  (* p̂(Re) should approach 0.2. *)
  check_close ~eps:0.13 "p̂(Re)" 0.2 report.C.Pao_adaptive.p_hat.(re);
  ignore d0

let pao_adaptive_unreached_default () =
  (* With rho = 0 (parent never unblocked) the estimate must fall back to
     0.5 and the run must still terminate. *)
  let g, model, re, de, _d0 = experiment_fixture () in
  let model = Bernoulli_model.set_prob model re 0.0 in
  ignore g;
  let oracle = C.Oracle.of_model model (rng 57) in
  let report = C.Pao_adaptive.run ~scale:0.002 ~epsilon:1.0 ~delta:0.1 oracle in
  check_int "never reached" 0 report.C.Pao_adaptive.reached.(de);
  check_float "p̂ default" 0.5 report.C.Pao_adaptive.p_hat.(de)

(* ---------- Smith / Monitor ---------- *)

let smith_follows_fact_counts () =
  let result = Workload.University.build () in
  let g = result.Build.graph in
  let smith = C.Smith.strategy g (Workload.University.db2 ()) in
  check_bool "prof first (2000 vs 500)" true
    (Spec.equal_dfs smith (Workload.University.theta1 result));
  (* Flip the counts: grad first. *)
  let smith2 = C.Smith.strategy g (Workload.University.db2 ~n_prof:10 ~n_grad:900 ()) in
  check_bool "grad first" true
    (Spec.equal_dfs smith2 (Workload.University.theta2 result))

let smith_probability_ratios () =
  let result = Workload.University.build () in
  let g = result.Build.graph in
  let model = C.Smith.probabilities g (Workload.University.db2 ()) in
  let dp = (Graph.arc_by_label g "D_prof").Graph.arc_id in
  let dg = (Graph.arc_by_label g "D_grad").Graph.arc_id in
  (* 2001 prof facts (incl. russ) vs 501 grad facts: ratio ≈ 4. *)
  check_close ~eps:0.01 "4x ratio" 4.0
    (Bernoulli_model.prob model dp /. Bernoulli_model.prob model dg)

let monitor_with_pib () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.05 ~pg:0.9 in
  let oracle = C.Oracle.of_model model (rng 58) in
  let learner = C.Learner.create `Pib (ga_theta1 ga) in
  let qp = C.Monitor.create ~learner (ga_theta1 ga) in
  C.Monitor.serve qp oracle ~n:2000;
  check_bool "switched to Θ2" true
    (Spec.equal_dfs (C.Monitor.strategy qp) (ga_theta2 ga));
  check_int "one switch" 1 (List.length (C.Monitor.switches qp));
  check_int "all queries answered" 2000 (C.Monitor.queries qp);
  check_bool "cost accounted" true (C.Monitor.total_cost qp > 0.)

let monitor_with_palo () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.05 ~pg:0.9 in
  let oracle = C.Oracle.of_model model (rng 59) in
  let learner =
    C.Learner.create
      ~config:
        {
          C.Learner.default_config with
          palo = { C.Palo.default_config with epsilon = 0.5 };
        }
      `Palo (ga_theta1 ga)
  in
  let qp = C.Monitor.create ~learner (ga_theta1 ga) in
  C.Monitor.serve qp oracle ~n:20_000;
  check_bool "PALO finished" true (C.Learner.finished learner);
  check_bool "ended on Θ2" true
    (Spec.equal_dfs (C.Monitor.strategy qp) (ga_theta2 ga))

let monitor_null_learner () =
  let ga = make_ga () in
  let model = ga_model ga ~pp:0.5 ~pg:0.5 in
  let oracle = C.Oracle.of_model model (rng 60) in
  let qp = C.Monitor.create (ga_theta1 ga) in
  C.Monitor.serve qp oracle ~n:100;
  check_int "never switches" 0 (List.length (C.Monitor.switches qp))

(* ---------- Live ---------- *)

let live_correctness () =
  (* The learned rule order must never change answers, only work. *)
  let rb = Workload.University.rulebase () in
  let live =
    C.Live.create ~rulebase:rb
      ~query_form:(Datalog.Parser.parse_atom "instructor(q)")
      ()
  in
  let db = Workload.University.db1 () in
  let plain = Datalog.Sld.config ~rulebase:rb ~db () in
  List.iter
    (fun name ->
      let q = Datalog.Atom.make "instructor" [ Datalog.Term.const name ] in
      let a = C.Live.answer live ~db q in
      let expected, _ = Datalog.Sld.solve_first plain [ Datalog.Clause.Pos q ] in
      check_bool (name ^ " same answer") (expected <> None)
        (a.C.Live.result <> None))
    [ "russ"; "manolis"; "fred"; "russ"; "manolis" ];
  check_int "5 queries" 5 (C.Live.queries live)

let live_learning_reduces_work () =
  (* Genealogy: queries mostly hit siblings/in-laws; the written order
     probes ancestors first. After learning, the SLD engine itself must do
     measurably fewer retrievals per query. *)
  let rb = Workload.Genealogy.rulebase () in
  let pop = Workload.Genealogy.populate (rng 95) ~n_people:150 in
  let db = Workload.Genealogy.db pop in
  let live =
    C.Live.create ~rulebase:rb
      ~query_form:(Datalog.Parser.parse_atom "relative(someone)")
      ()
  in
  let people = Array.of_list (Workload.Genealogy.people pop) in
  let r = rng 96 in
  let ask () =
    let name = people.(Stats.Rng.int r (Array.length people)) in
    let q = Datalog.Atom.make "relative" [ Datalog.Term.const name ] in
    (C.Live.answer live ~db q).C.Live.stats.Datalog.Sld.retrievals
  in
  let phase n =
    let total = ref 0 in
    for _ = 1 to n do
      total := !total + ask ()
    done;
    float_of_int !total /. float_of_int n
  in
  let early = phase 300 in
  (* learning phase *)
  ignore (phase 8_000);
  let late = phase 300 in
  check_bool
    (Printf.sprintf "late %.2f < early %.2f retrievals/query" late early)
    true (late < early);
  check_bool "strategy actually changed" true
    (not (Spec.equal_dfs (C.Live.strategy live) (Spec.default (C.Live.graph live))))

let live_stats_mirror_graph () =
  (* The SLD work counters and the abstract executor must agree per query. *)
  let rb = Workload.Genealogy.rulebase () in
  let pop = Workload.Genealogy.populate (rng 97) ~n_people:50 in
  let db = Workload.Genealogy.db pop in
  let live =
    C.Live.create ~rulebase:rb
      ~query_form:(Datalog.Parser.parse_atom "relative(someone)")
      ()
  in
  List.iter
    (fun name ->
      let q = Datalog.Atom.make "relative" [ Datalog.Term.const name ] in
      let before = C.Live.strategy live in
      let a = C.Live.answer live ~db q in
      let ctx = Infgraph.Context.of_db (C.Live.graph live) ~query:q ~db in
      let outcome = Exec.run (Spec.Dfs before) ctx in
      check_int (name ^ " retrievals") a.C.Live.stats.Datalog.Sld.retrievals
        (List.length outcome.Exec.observations);
      check_int (name ^ " reductions+retrievals")
        (a.C.Live.stats.Datalog.Sld.reductions
        + a.C.Live.stats.Datalog.Sld.retrievals)
        (List.length outcome.Exec.attempted))
    (List.filteri (fun i _ -> i < 10) (Workload.Genealogy.people pop))

(* Load a program's text: rules into a rule base, facts into a database. *)
let load_program text =
  let rules, facts, _ = Datalog.Parser.parse_kb text in
  (Datalog.Rulebase.of_list rules, Datalog.Database.of_list facts)

let live_for rb form =
  C.Live.create ~rulebase:rb ~query_form:(Datalog.Parser.parse_atom form) ()

(* Answer with a tracer; report whether an [sld] span appeared. *)
let traced_answer live ~db q =
  let t = Trace.make () in
  let a = C.Live.answer ~tracer:t live ~db (Datalog.Parser.parse_atom q) in
  let root = Option.get (Trace.root_span t) in
  (a, Trace.find_kind root "sld" <> [])

let result_string = function
  | None -> "no"
  | Some s -> Format.asprintf "%a" Datalog.Subst.pp s

let live_mixed_predicate_falls_back () =
  (* m has a rule and a fact: the graph gives m no retrieval arc, so the
     strategy's execution alone would answer m(a) "no". *)
  let rb, db = load_program "m(X) :- n(X).\nm(a).\nn(b).\n" in
  let live = live_for rb "m(q)" in
  let a, sld = traced_answer live ~db "m(a)" in
  check_bool "served by SLD" true sld;
  check_string "m(a) holds" "{}" (result_string a.C.Live.result);
  let b, _ = traced_answer live ~db "m(b)" in
  check_string "m(b) holds" "{}" (result_string b.C.Live.result);
  let c, _ = traced_answer live ~db "m(c)" in
  check_string "m(c) does not" "no" (result_string c.C.Live.result)

let live_identifying_head_falls_back () =
  (* p(X, X) equates the goal's two arguments, which the graph's retrieval
     pattern q(X) no longer carries. *)
  let rb, db = load_program "p(X, X) :- q(X).\nq(a).\n" in
  let free = live_for rb "p(Z, q)" in
  let a, sld = traced_answer free ~db "p(Z, a)" in
  check_bool "served by SLD" true sld;
  check_string "p(Z, a) binds Z" "{Z=a}" (result_string a.C.Live.result);
  let ground = live_for rb "p(q, q)" in
  let b, _ = traced_answer ground ~db "p(a, b)" in
  check_string "p(a, b) fails" "no" (result_string b.C.Live.result);
  check_int "and costs SLD nothing" 0
    (b.C.Live.stats.Datalog.Sld.reductions + b.C.Live.stats.Datalog.Sld.retrievals);
  let c, _ = traced_answer ground ~db "p(a, a)" in
  check_string "p(a, a) holds" "{}" (result_string c.C.Live.result)

let live_fallback_follows_strategy () =
  (* A fallback form's SLD run visits rules in the learned strategy's
     order: with the o-branch first, m(b) skips the n-branch. *)
  let rb, db = load_program "m(X) :- n(X).\nm(X) :- o(X).\nm(z).\no(b).\n" in
  let live = live_for rb "m(q)" in
  let work (a : C.Live.answer) =
    a.C.Live.stats.Datalog.Sld.reductions + a.C.Live.stats.Datalog.Sld.retrievals
  in
  let a, sld = traced_answer live ~db "m(b)" in
  check_bool "served by SLD" true sld;
  let g = C.Live.graph live in
  let root = Infgraph.Graph.root g in
  C.Live.set_strategy live
    (Spec.with_order (Spec.default g) ~node:root
       ~order:(List.rev (Infgraph.Graph.children g root)));
  let b, _ = traced_answer live ~db "m(b)" in
  check_string "same answer" (result_string a.C.Live.result)
    (result_string b.C.Live.result);
  check_int "the o-branch first saves R_m_n and its retrieval"
    (work a - 2) (work b)

let live_blocked_head_constant_counts () =
  (* On an exec-served form the ANSWER counts are the paid arcs: a
     reduction whose head constant blocks still costs 1, where SLD's
     failed head unification counted 0. The blockable reduction needs a
     learner that takes experiment graphs. *)
  let rb, db = load_program "p(X, c) :- r(X).\nr(a).\n" in
  let live =
    C.Live.create ~learner:`Palo ~rulebase:rb
      ~query_form:(Datalog.Parser.parse_atom "p(q, q)") ()
  in
  let counts (a : C.Live.answer) =
    (a.C.Live.stats.Datalog.Sld.reductions, a.C.Live.stats.Datalog.Sld.retrievals)
  in
  let a, sld = traced_answer live ~db "p(a, d)" in
  check_bool "served by the execution" false sld;
  check_string "p(a, d) fails" "no" (result_string a.C.Live.result);
  Alcotest.(check (pair int int)) "blocked reduction paid" (1, 0) (counts a);
  let b, _ = traced_answer live ~db "p(a, c)" in
  check_string "p(a, c) holds" "{}" (result_string b.C.Live.result);
  Alcotest.(check (pair int int)) "reduction and retrieval" (1, 1) (counts b);
  let sld_a =
    snd
      (Datalog.Sld.solve_first
         (Datalog.Sld.config ~rulebase:rb ~db ())
         [ Datalog.Clause.Pos (Datalog.Parser.parse_atom "p(a, d)") ])
  in
  check_int "where SLD counts no reduction" 0 sld_a.Datalog.Sld.reductions

let live_recursive_form_falls_back () =
  (* A recursive rule base unfolds to the depth bound: the truncated graph
     falls back to SLD, whose answers stay right. *)
  let rb, db =
    load_program
      "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- up(X, Y).\nup(X, Y) :- anc(X, Y).\npar(a, b).\n"
  in
  let live = live_for rb "anc(q, q)" in
  let a, sld = traced_answer live ~db "anc(a, b)" in
  check_bool "served by SLD" true sld;
  check_bool "a fallback answer" true a.C.Live.fallback;
  check_string "anc(a, b) holds" "{}" (result_string a.C.Live.result);
  let free = live_for rb "anc(q, Y)" in
  let b, _ = traced_answer free ~db "anc(a, Y)" in
  check_string "anc(a, Y) binds Y" "{Y=b}" (result_string b.C.Live.result)

let live_exec_served_answers () =
  (* An exactly modelled form: one execution answers, with the binding a
     head constant and the witness fact give. *)
  let rb, db =
    load_program
      "p(X, c) :- r(X).\np(X, Y) :- s(X, Y).\nr(a).\ns(a, d).\ns(a, e).\ns(b, f).\n"
  in
  let live = live_for rb "p(q, Y)" in
  let a, sld = traced_answer live ~db "p(a, W)" in
  check_bool "served by the execution" false sld;
  check_bool "not a fallback answer" false a.C.Live.fallback;
  check_string "first answer from the head" "{W=c}" (result_string a.C.Live.result);
  check_int "paid R, D" 2
    (a.C.Live.stats.Datalog.Sld.reductions + a.C.Live.stats.Datalog.Sld.retrievals)

(* ----- random simple disjunctive programs ----- *)

let diff_consts = [| "a"; "b"; "c" |]

(* p0 .. p2 may get rules (bodies only reach later predicates, so the
   programs are not recursive); e0, e1 only facts. *)
let diff_preds = [| ("p0", 2); ("p1", 2); ("p2", 1); ("e0", 2); ("e1", 1) |]

type diff_case = {
  program : string;
  queries : string list;
  paged : bool;
}

let gen_diff_case =
  let open QCheck2.Gen in
  let const = map (fun i -> diff_consts.(i)) (int_bound 2) in
  let atom name args = Printf.sprintf "%s(%s)" name (String.concat ", " args) in
  let gen_rule i =
    let name, arity = diff_preds.(i) in
    let* j = int_range (i + 1) (Array.length diff_preds - 1) in
    let bname, barity = diff_preds.(j) in
    let* bargs =
      list_repeat barity
        (oneof [ oneofl [ "X"; "Y"; "Z" ]; const ])
    in
    let body_vars =
      List.sort_uniq compare
        (List.filter (fun a -> a.[0] >= 'A' && a.[0] <= 'Z') bargs)
    in
    let head_arg =
      if body_vars = [] then const else oneof [ oneofl body_vars; const ]
    in
    let* repeated = if arity = 2 && body_vars <> [] then bool else return false in
    let* hargs =
      if repeated then map (fun v -> [ v; v ]) (oneofl body_vars)
      else list_repeat arity head_arg
    in
    return (atom name hargs ^ " :- " ^ atom bname bargs ^ ".")
  in
  let gen_facts ~p (name, arity) =
    let tuples =
      if arity = 1 then List.map (fun c -> [ c ]) (Array.to_list diff_consts)
      else
        List.concat_map
          (fun a -> List.map (fun b -> [ a; b ]) (Array.to_list diff_consts))
          (Array.to_list diff_consts)
    in
    map
      (fun keep ->
        List.filteri (fun k _ -> List.nth keep k) tuples
        |> List.map (fun args -> atom name args ^ "."))
      (list_repeat (List.length tuples) (map (fun x -> x < p) (float_bound_inclusive 1.0)))
  in
  let* rules =
    map List.concat
      (flatten_l
         (List.init 3 (fun i ->
              let* n = int_bound 2 in
              list_repeat n (gen_rule i))))
  in
  let* mixed = map (fun x -> x < 0.2) (float_bound_inclusive 1.0) in
  let* facts =
    map List.concat
      (flatten_l
         (Array.to_list
            (Array.mapi
               (fun i pd ->
                 if i >= 3 then gen_facts ~p:0.4 pd
                 else if mixed then gen_facts ~p:0.15 pd
                 else return [])
               diff_preds)))
  in
  let gen_query =
    let* i = int_bound 2 in
    let name, arity = diff_preds.(i) in
    let* args = list_repeat arity (oneof [ oneofl [ "U"; "V" ]; const ]) in
    return (atom name args)
  in
  let* queries = list_size (int_range 1 6) gen_query in
  let* paged = bool in
  return { program = String.concat "\n" (rules @ facts); queries; paged }

let print_diff_case c =
  Printf.sprintf "%s\n?- %s (%s)" c.program (String.concat ", " c.queries)
    (if c.paged then "paged" else "mem")

let with_backend c db f =
  if not c.paged then f db
  else begin
    let dir = Filename.temp_dir "strategem-live-diff" "" in
    Sys.rmdir dir;
    let paged = Datalog.Database.open_paged ~dir ~buffer_pages:2 () in
    Fun.protect
      ~finally:(fun () ->
        Datalog.Database.close paged;
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir)
      (fun () ->
        Datalog.Database.bulk_load paged (Datalog.Database.to_list db);
        f paged)
  end

(* [qcheck] that prints a failing program. *)
let qcheck_printed ~count ~print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

let live_differential =
  qcheck_printed "served answers agree with SLD and Seminaive" ~count:150
    ~print:print_diff_case gen_diff_case (fun c ->
      let rb, mem_db = load_program c.program in
      with_backend c mem_db (fun db ->
          let lives = Hashtbl.create 4 in
          List.for_all
            (fun qtext ->
              let q = Datalog.Parser.parse_atom qtext in
              let form = Serve.Registry.form_of_query q in
              let key = Datalog.Atom.to_string form in
              let live =
                match Hashtbl.find_opt lives key with
                | Some l -> l
                | None ->
                  let l =
                    try Some (C.Live.create ~rulebase:rb ~query_form:form ())
                    with Invalid_argument _ -> None
                  in
                  Hashtbl.add lives key l;
                  l
              in
              match live with
              | None -> true (* the form has no derivation at all *)
              | Some live ->
                let a = C.Live.answer live ~db q in
                let sld, _ =
                  Datalog.Sld.solve_first
                    (Datalog.Sld.config ~rulebase:rb ~db ())
                    [ Datalog.Clause.Pos q ]
                in
                let model = Datalog.Seminaive.query rb mem_db q in
                let inst s = Datalog.Subst.apply_atom s q in
                (a.C.Live.result <> None) = (sld <> None)
                &&
                match a.C.Live.result with
                | Some s -> List.exists (Datalog.Atom.equal (inst s)) model
                | None -> model = [])
            c.queries))

(* The context the lazy one must equal: every blockable arc decided up
   front, as the graph's patterns instantiated with the query say. *)
let eager_context g ~query ~db =
  let root = Option.get (Graph.node g (Graph.root g)).Graph.goal in
  let s = Option.get (Datalog.Subst.unify_atoms root query Datalog.Subst.empty) in
  Context.make g
    ~unblocked:
      (Array.init (Graph.n_arcs g) (fun id ->
           let a = Graph.arc g id in
           match (a.Graph.blockable, a.Graph.kind, a.Graph.pattern) with
           | false, _, _ -> true
           | true, Graph.Retrieval, Some p ->
             Datalog.Database.first_match db (Datalog.Subst.apply_atom s p) <> None
           | true, Graph.Reduction, Some head ->
             let goal =
               Datalog.Subst.apply_atom s
                 (Option.get (Graph.node g a.Graph.src).Graph.goal)
             in
             Datalog.Subst.unify_atoms head goal Datalog.Subst.empty <> None
           | true, _, None -> assert false))

let lazy_context_equals_eager =
  qcheck_printed "a lazy context reads like the eager one on every arc" ~count:150
    ~print:(fun (c, _) -> print_diff_case c)
    QCheck2.Gen.(pair gen_diff_case (int_bound 1000))
    (fun (c, seed) ->
      let rb, db = load_program c.program in
      let r = rng seed in
      List.for_all
        (fun qtext ->
          let q = Datalog.Parser.parse_atom qtext in
          match
            Build.build ~rulebase:rb ~query_form:(Serve.Registry.form_of_query q) ()
          with
          | exception Invalid_argument _ -> true
          | built ->
            let g = built.Build.graph in
            let eager = eager_context g ~query:q ~db in
            let lazy_ = Context.of_db g ~query:q ~db in
            (* read some arcs in a random order before the rest are forced *)
            let order = Array.init (Graph.n_arcs g) Fun.id in
            Stats.Rng.shuffle r order;
            Array.for_all
              (fun id ->
                Stats.Rng.bernoulli r 0.5
                || Context.unblocked lazy_ id = Context.unblocked eager id)
              order
            && Context.equal lazy_ eager
            && Context.unblocked_set lazy_ = Context.unblocked_set eager)
        c.queries)

(* ---------- Learner (unified API) ---------- *)

let learner_kind_names () =
  List.iter
    (fun k ->
      let s = C.Learner.kind_to_string k in
      check_bool (s ^ " round-trips") true (C.Learner.kind_of_string s = Some k))
    C.Learner.all_kinds;
  check_bool "underscore alias" true
    (C.Learner.kind_of_string "pao_adaptive" = Some `Pao_adaptive);
  check_bool "unknown rejected" true (C.Learner.kind_of_string "sgd" = None)

let learner_conformance () =
  (* Every packed learner honours the API contract: it starts at the seed
     strategy, serializes to a parseable strategy, any conjecture it emits
     is adoptable via reseed, and observing never changes the graph. *)
  let ga = make_ga () in
  let start = ga_theta1 ga in
  let model = ga_model ga ~pp:0.1 ~pg:0.9 in
  List.iter
    (fun k ->
      let name = C.Learner.kind_to_string k in
      let l = ref (C.Learner.create k start) in
      check_string (name ^ " name") name (C.Learner.name !l);
      check_bool (name ^ " starts at seed") true
        (Spec.equal_dfs (C.Learner.current !l) start);
      for seed = 0 to 399 do
        if not (C.Learner.finished !l) then begin
          let ctx = any_context model seed in
          let outcome = Exec.run (Spec.Dfs (C.Learner.current !l)) ctx in
          C.Learner.observe !l ctx outcome;
          match C.Learner.conjecture !l with
          | Some d -> l := C.Learner.reseed !l d
          | None -> ()
        end
      done;
      let cur = C.Learner.current !l in
      let reparsed =
        Strategy.Persist.dfs_of_string ga.ga_graph (C.Learner.serialize !l)
      in
      check_bool (name ^ " serialize round-trips") true
        (Spec.equal_dfs cur reparsed))
    C.Learner.all_kinds

let learner_pib_agrees_with_direct () =
  (* The packed PIB learner is the same algorithm as Pib.t: identical
     observation streams yield identical strategies. *)
  let ga = make_ga () in
  let start = ga_theta1 ga in
  let model = ga_model ga ~pp:0.05 ~pg:0.95 in
  let packed = ref (C.Learner.create `Pib start) in
  let direct = C.Pib.create start in
  for seed = 0 to 199 do
    let ctx = any_context model seed in
    (* Both run their own current strategy (they stay in lockstep). *)
    let o_packed = Exec.run (Spec.Dfs (C.Learner.current !packed)) ctx in
    C.Learner.observe !packed ctx o_packed;
    (match C.Learner.conjecture !packed with
    | Some d -> packed := C.Learner.reseed !packed d
    | None -> ());
    let o_direct = Exec.run (Spec.Dfs (C.Pib.current direct)) ctx in
    ignore (C.Pib.observe direct o_direct)
  done;
  check_bool "same learned strategy" true
    (Spec.equal_dfs (C.Learner.current !packed) (C.Pib.current direct));
  check_bool "grad-first was learned" true
    (Spec.equal_dfs (C.Learner.current !packed) (ga_theta2 ga))

let live_learner_selection () =
  (* Live exposes the chosen learner and every kind answers correctly. *)
  let rb = Workload.University.rulebase () in
  let db = Workload.University.db1 () in
  List.iter
    (fun k ->
      let live =
        C.Live.create ~learner:k ~rulebase:rb
          ~query_form:(Datalog.Parser.parse_atom "instructor(q)")
          ()
      in
      let name = C.Learner.kind_to_string k in
      check_string (name ^ " exposed") name (C.Live.learner_name live);
      let q = Datalog.Atom.make "instructor" [ Datalog.Term.const "russ" ] in
      let a = C.Live.answer live ~db q in
      check_bool (name ^ " answers") true (a.C.Live.result <> None))
    C.Learner.all_kinds

(* ---------- Oracle ---------- *)

let oracle_of_queries () =
  let result = Workload.University.build () in
  let mix = Workload.University.query_mix_section2 result in
  let oracle = C.Oracle.of_queries result.Build.graph mix (rng 61) in
  let g = result.Build.graph in
  let dp = (Graph.arc_by_label g "D_prof").Graph.arc_id in
  let n = 20_000 in
  let dp_ok = ref 0 in
  for _ = 1 to n do
    if Context.unblocked (C.Oracle.next oracle) dp then incr dp_ok
  done;
  check_int "drawn" n (C.Oracle.drawn oracle);
  (* 60% of queries are russ, the only prof. *)
  check_close ~eps:0.02 "p(Dp)" 0.6 (float_of_int !dp_ok /. float_of_int n)

let suite =
  [
    ( "core.delta",
      [
        case "paper cases" delta_paper_cases;
        delta_sandwich;
        delta_exact_when_fully_observed;
        case "rejects experiment graphs" delta_rejects_experiment_graphs;
      ] );
    ( "core.pib1",
      [
        case "counters equal replay" pib1_counters_equal_replay;
        case "switches when better" pib1_switches_when_better;
        slow_case "false positive rate" pib1_false_positive_rate;
        case "rejects non-adjacent" pib1_rejects_nonadjacent;
      ] );
    ( "core.pib",
      [
        case "learns G_A" pib_learns_ga;
        case "reaches optimum on G_B" pib_reaches_optimum_gb;
        case "climbs are monotone (Thm 1)" pib_climbs_monotone;
        case "no climb at the optimum" pib_no_climb_when_optimal;
        case "check_every batching" pib_check_every;
        case "candidate introspection" pib_candidates_introspection;
        slow_case "first-k learning" pib_first_k_learning;
        case "richer move families" pib_richer_moves_no_worse;
        pib_sound_without_independence;
        case "budget accounting" pib_budget_accounting;
        case "Δ̃ memo bit-identical on G_A (k = 1, 2)" pib_memo_bit_identical_ga;
        case "Δ̃ memo bit-identical on genealogy and first-k (k = 1, 2)"
          pib_memo_bit_identical_genealogy_firstk;
        pib_memo_bit_identical_random;
      ] );
    ( "core.palo",
      [
        case "stops at an ε-local optimum" palo_stops_and_is_local_opt;
        case "trivial stop" palo_trivial_stop;
        case "experiment graphs supported" palo_works_on_experiment_graphs;
      ] );
    ( "core.pao",
      [
        case "Eq 7 targets" pao_targets_eq7;
        case "QP^A deficit ordering" pao_adaptive_strategy_orders_by_deficit;
        case "collects enough samples" pao_collects_enough_samples;
        case "estimates converge" pao_estimates_converge;
        pao_epsilon_guarantee;
        case "cap flag" pao_cap_flag;
      ] );
    ( "core.pao_adaptive",
      [
        case "Eq 8 targets" pao_adaptive_targets_eq8;
        case "handles low rho" pao_adaptive_handles_low_rho;
        case "unreached defaults to 0.5" pao_adaptive_unreached_default;
      ] );
    ( "core.smith",
      [
        case "follows fact counts" smith_follows_fact_counts;
        case "probability ratios" smith_probability_ratios;
      ] );
    ( "core.monitor",
      [
        case "with PIB" monitor_with_pib;
        slow_case "with PALO" monitor_with_palo;
        case "null learner" monitor_null_learner;
      ] );
    ( "core.live",
      [
        case "correctness preserved" live_correctness;
        slow_case "learning reduces SLD work" live_learning_reduces_work;
        case "stats mirror graph exec" live_stats_mirror_graph;
        case "mixed predicate falls back" live_mixed_predicate_falls_back;
        case "identifying head falls back" live_identifying_head_falls_back;
        case "recursive form falls back" live_recursive_form_falls_back;
        case "fallback follows the strategy" live_fallback_follows_strategy;
        case "blocked head constant counts" live_blocked_head_constant_counts;
        case "exec-served answers" live_exec_served_answers;
        live_differential;
        lazy_context_equals_eager;
      ] );
    ( "core.learner",
      [
        case "kind names round-trip" learner_kind_names;
        case "API conformance (all kinds)" learner_conformance;
        case "packed PIB ≡ direct PIB" learner_pib_agrees_with_direct;
        case "Live learner selection" live_learner_selection;
      ] );
    ("core.oracle", [ case "of_queries" oracle_of_queries ]);
  ]
