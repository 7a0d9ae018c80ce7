(** PIB — the anytime hill-climbing learner (Section 3.2, Figure 3).

    PIB watches the query processor solve contexts with its current
    strategy Θ_j. For every neighbour Θ′ ∈ 𝒯(Θ_j) (a sibling swap) it
    maintains the running under-estimate Δ̃[Θ_j, Θ′, S] over the current
    sample set S, computed from the execution trace alone
    ({!Delta.underestimate}). After each context (or each [check_every]
    contexts) it charges the sequential-test budget
    [i ← i + |𝒯(Θ_j)|] and switches to a neighbour that passes
    Equation 6:

    Δ̃[Θ_j, Θ′, S] ≥ Λ[Θ_j, Θ′] · sqrt((|S|/2) · ln(i²π²/6δ)).

    Theorem 1: the probability that {e any} climb in the infinite run is a
    mistake (moves to a strictly worse strategy) is below δ. *)

open Infgraph
open Strategy

type config = {
  delta : float;          (** total confidence budget δ *)
  moves : Moves.family;   (** the transformation set 𝒯 (default all swaps) *)
  check_every : int;      (** run the Equation 6 test every k contexts *)
  answers_required : int;
      (** satisficing stop count (Section 5.2's first-k variant; 1 = the
          paper's single-answer search) *)
}

val default_config : config

type climb = {
  step : int;                  (** 1-based climb index j *)
  samples : int;               (** |S| when the test fired *)
  tests_charged : int;         (** the sequential index i *)
  move : Moves.t;
  from_strategy : Spec.dfs;
  to_strategy : Spec.dfs;
  delta_sum : float;           (** winning Δ̃[Θ_j, Θ′, S] *)
  threshold : float;           (** Equation 6 right-hand side *)
}

type t

(** Raises [Invalid_argument] unless the graph is simple disjunctive
    (see {!Delta}). *)
val create : ?config:config -> Spec.dfs -> t

val current : t -> Spec.dfs
val config : t -> config

(** Number of climbs performed so far. *)
val climbs : t -> climb list

(** Contexts processed in the current sample set S. *)
val samples_current : t -> int

(** Total contexts processed since creation. *)
val samples_total : t -> int

(** Elementary sequential tests charged so far (the index [i] of
    Equation 6) — telemetry for the convergence gauges. *)
val tests_used : t -> int

(** Feed one execution outcome of the {e current} strategy (Figure 4: the
    QP runs, PIB watches); may climb. Δ̃ against every neighbour is
    computed once per distinct trace (cost and observations) per
    strategy epoch and memoized until the next climb, so a repeated trace
    costs one table lookup and |𝒯(Θ_j)| float additions. *)
val observe : t -> Exec.outcome -> climb option

(** Process one context: the QP answers it with the current strategy; PIB
    updates its statistics and possibly climbs. Returns the execution
    outcome and the climb, if one happened. *)
val step : t -> Context.t -> Exec.outcome * climb option

(** Run [n] contexts from an oracle. Returns the climbs that occurred. *)
val run : t -> Oracle.t -> n:int -> climb list

(** Invariant checker, for tests: the compiled strategies match their
    DFS forms; every memo row holds one Δ̃ per candidate and equals Δ̃
    recomputed from its trace; the memo holds at most |S| rows (so none
    right after a climb) and, when [answers_required = 1], at most R + 1
    (R = retrieval arcs). Raises [Failure] naming the first broken one. *)
val check : t -> unit

(** Current Δ̃ sums with their ranges, for inspection: (move, Δ̃ sum, Λ). *)
val candidates : t -> (Moves.t * float * float) list
