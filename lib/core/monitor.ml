open Strategy

type t = {
  learner : Learner.t option;
  mutable theta : Spec.dfs;
  mutable queries : int;
  mutable cost : float;
  mutable switches : (int * Spec.dfs) list; (* newest first *)
}

let create ?learner theta =
  { learner; theta; queries = 0; cost = 0.; switches = [] }

let strategy t = t.theta
let queries t = t.queries
let total_cost t = t.cost
let switches t = List.rev t.switches

let answer ?(tracer = Trace.null) ?(parent = Trace.dummy) t ctx =
  let exec_span = Trace.push tracer parent ~kind:"exec" "exec" in
  let outcome = Exec.run ~tracer ~parent:exec_span (Spec.Dfs t.theta) ctx in
  Trace.finish tracer exec_span;
  t.queries <- t.queries + 1;
  t.cost <- t.cost +. outcome.Exec.cost;
  let switched =
    match t.learner with
    | Some l when not (Learner.finished l) -> (
      Learner.observe l ctx outcome;
      match Learner.conjecture l with
      | Some theta' ->
        t.theta <- theta';
        t.switches <- (t.queries, theta') :: t.switches;
        true
      | None -> false)
    | _ -> false
  in
  (outcome, switched)

let serve t oracle ~n =
  for _ = 1 to n do
    ignore (answer t (Oracle.next oracle))
  done
