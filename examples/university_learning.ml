(* A full learning session on the university knowledge base:

     dune exec examples/university_learning.exe

   The database is DB2 (2000 prof / 500 grad facts) but the users only ask
   about "minors" — never profs, 60% grads. We compare:
   - Smith's [Smi89] fact-count baseline (fooled by the database);
   - PIB hill-climbing (Figure 4 architecture via Monitor);
   - PALO (stops by itself at an ε-local optimum);
   - PAO's probably-approximately-optimal output. *)

open Strategy
open Infgraph

let () =
  let result = Workload.University.build () in
  let g = result.Build.graph in
  let db2 = Workload.University.db2 () in
  let mix, _db = Workload.University.minors_mix ~grad_fraction:0.6 result in
  let ctx_dist =
    Stats.Distribution.map (fun (q, db) -> Context.of_db g ~query:q ~db) mix
  in
  let true_cost d = Cost.over_contexts (Spec.Dfs d) ctx_dist in

  (* Smith's baseline: probabilities from fact counts. *)
  let smith = Core.Smith.strategy g db2 in
  Fmt.pr "Smith baseline:  %a  E[cost] = %.3f@." Spec.pp_dfs smith
    (true_cost smith);

  (* PIB behind the Figure-4 monitor: the QP answers queries, PIB watches. *)
  let oracle = Core.Oracle.of_queries g mix (Stats.Rng.create 7L) in
  let learner = Core.Learner.create `Pib smith in
  let qp = Core.Monitor.create ~learner smith in
  Core.Monitor.serve qp oracle ~n:4000;
  Fmt.pr "PIB (monitored): %a  E[cost] = %.3f  (switches at queries: %s)@."
    Spec.pp_dfs
    (Core.Monitor.strategy qp)
    (true_cost (Core.Monitor.strategy qp))
    (String.concat ", "
       (List.map (fun (q, _) -> string_of_int q) (Core.Monitor.switches qp)));
  Fmt.pr "  average cost per query while learning: %.3f@."
    (Core.Monitor.total_cost qp /. float_of_int (Core.Monitor.queries qp));

  (* PALO stops on its own. *)
  let palo =
    Core.Palo.create
      ~config:{ Core.Palo.default_config with epsilon = 0.2; delta = 0.05 }
      smith
  in
  let oracle2 = Core.Oracle.of_queries g mix (Stats.Rng.create 8L) in
  (match Core.Palo.run palo oracle2 ~max_contexts:100_000 with
  | Core.Palo.Stopped { total_samples; _ } ->
    Fmt.pr "PALO:            %a  E[cost] = %.3f  (stopped after %d samples)@."
      Spec.pp_dfs (Core.Palo.current palo)
      (true_cost (Core.Palo.current palo))
      total_samples
  | Core.Palo.Running -> Fmt.pr "PALO did not converge@.");

  (* PAO from the same stream (engineering mode). *)
  let oracle3 = Core.Oracle.of_queries g mix (Stats.Rng.create 9L) in
  let report = Core.Pao.run ~scale:0.01 ~epsilon:0.5 ~delta:0.1 oracle3 in
  Fmt.pr "PAO:             %a  E[cost] = %.3f  (%d contexts)@." Spec.pp_dfs
    report.Core.Pao.strategy
    (true_cost report.Core.Pao.strategy)
    report.Core.Pao.contexts_used
