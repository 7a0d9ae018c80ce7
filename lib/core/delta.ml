open Infgraph
open Strategy

let exact theta theta' ctx =
  (Exec.run theta ctx).Exec.cost -. (Exec.run theta' ctx).Exec.cost

let sound_for = Graph.simple_disjunctive

let completion_estimates ~k ~complete ~theta ~theta's (outcome : Exec.outcome) =
  let g = Spec.graph theta in
  if Array.exists (fun theta' -> Spec.graph theta' != g) theta's then
    invalid_arg "Delta: strategies are over different graphs";
  if not (sound_for g) then
    invalid_arg
      "Delta: the trace-based estimates are only sound for simple \
       disjunctive graphs";
  let completed = complete (Exec.to_partial g outcome) in
  Array.map
    (fun theta' ->
      outcome.Exec.cost -. (Exec.first_k k theta' completed).Exec.cost)
    theta's

let underestimates ?(k = 1) ~theta ~theta's outcome =
  completion_estimates ~k ~complete:Context.Partial.pessimistic ~theta
    ~theta's outcome

let underestimate ?k ~theta ~theta' outcome =
  (underestimates ?k ~theta ~theta's:[| theta' |] outcome).(0)

let overestimate ?(k = 1) ~theta ~theta' outcome =
  (completion_estimates ~k ~complete:Context.Partial.optimistic ~theta
     ~theta's:[| theta' |] outcome).(0)
