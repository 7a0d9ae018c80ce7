(** The Figure 4 architecture: an unobtrusive learner wrapped around a
    query processor.

    The query processor keeps answering queries with its current strategy;
    a learner watches each execution and occasionally tells the QP to
    switch strategies. [Monitor] is the glue: it owns the current
    strategy, routes every answered context to the learner, applies
    proposals, and keeps a cost log so callers can plot anytime behaviour
    (experiment E4). *)

open Infgraph
open Strategy

type t

(** [create θ] answers with θ; with [learner], every answered context
    is fed to it and its conjectures switch the QP until it is
    {!Learner.finished}. Without one the monitor only monitors. *)
val create : ?learner:Learner.t -> Spec.dfs -> t
val strategy : t -> Spec.dfs

(** Answer one context with the current strategy; feed the learner; apply
    any proposal. Returns the outcome and whether a switch happened.
    With [tracer], the execution is recorded as an [exec] span under
    [parent] whose total paper cost equals the outcome's [cost] — the
    consistency invariant the trace tests check. *)
val answer :
  ?tracer:Trace.t ->
  ?parent:Trace.span ->
  t ->
  Context.t ->
  Exec.outcome * bool

(** Answer [n] contexts from an oracle. *)
val serve : t -> Oracle.t -> n:int -> unit

(** Queries answered so far. *)
val queries : t -> int

(** Cumulative execution cost over all answered queries. *)
val total_cost : t -> float

(** (query index, strategy) at each switch, oldest first. *)
val switches : t -> (int * Spec.dfs) list
