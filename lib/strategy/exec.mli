(** Strategy execution: compute c(Θ, I) and the execution trace.

    Execution follows the strategy's path order. Walking a path, the
    processor pays an arc's cost the first time it attempts it; an arc
    observed blocked aborts the path (and every later path through it is
    abandoned for free — the processor remembers). Reaching an unblocked
    retrieval is a success node: the search stops (satisficing). *)

open Infgraph

type observation = { arc_id : int; unblocked : bool }

type outcome = {
  cost : float;           (** c(Θ, I) *)
  succeeded : bool;
  success_arc : int option;  (** the retrieval that ended the search *)
  observations : observation list;
      (** blockable arcs attempted, in order, with what was seen *)
  attempted : int list;   (** all arcs paid for, in order *)
}

(** Run a strategy in a context. With [tracer], each arc paid for emits an
    [arc] event under [parent] carrying the arc's paper cost [f(arc)] and
    attrs [arc_id]/[blockable]/[unblocked]; the events' summed cost equals
    [outcome.cost]. Defaults: [Trace.null]/[Trace.dummy] — free. *)
val run : ?tracer:Trace.t -> ?parent:Trace.span -> Spec.t -> Context.t -> outcome

(** The partial context a learner knows after watching this run. *)
val to_partial : Graph.t -> outcome -> Context.Partial.t

(** [first_k k spec ctx] — the Section 5.2 variant that stops after [k]
    successful retrievals instead of one ([run] is [first_k 1]);
    [succeeded] then means "found at least [k] answers" and [success_arc]
    is the retrieval that delivered the [k]-th. *)
val first_k :
  ?tracer:Trace.t -> ?parent:Trace.span -> int -> Spec.t -> Context.t -> outcome
