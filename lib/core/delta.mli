(** Cost-difference estimation: Δ, Δ̃ and Δ̂ (Section 3).

    For strategies Θ (executed) and Θ′ (merely contemplated) and a context
    I, Δ[Θ,Θ′,I] = c(Θ,I) − c(Θ′,I). Running Θ′ to measure this would
    defeat the purpose, so PIB estimates it from Θ's execution trace alone:

    - Δ̃ (under-estimate): replay Θ′ on the {e pessimistic completion} of
      the observed context — every blockable arc Θ did not attempt is
      assumed blocked. Making retrievals fail can only increase a fixed
      strategy's cost, so c(Θ′, pess) ≥ c(Θ′, I) and Δ̃ ≤ Δ. This argument
      needs monotonicity, which holds exactly when reductions never block
      ({!Infgraph.Graph.simple_disjunctive}); [underestimate] refuses other
      graphs.
    - Δ̂ (over-estimate, used by PALO's stopping rule): the symmetric
      optimistic completion.

    Both are exact (Δ̃ = Δ = Δ̂) whenever Θ's trace already determines every
    arc Θ′ would attempt. *)

open Infgraph
open Strategy

(** Exact Δ[Θ, Θ′, I] — for tests and paired baselines (runs both). *)
val exact : Spec.t -> Spec.t -> Context.t -> float

(** Δ̃ from Θ's outcome. [k] is the satisficing stopping count (Section
    5.2's first-k variant; default 1) — the outcome must come from the
    same [k]. Monotonicity (more successes never raise a fixed strategy's
    cost) holds for every [k], so the completion argument is unchanged.
    Raises [Invalid_argument] if the graph is not simple disjunctive. *)
val underestimate : ?k:int -> theta:Spec.t -> theta':Spec.t -> Exec.outcome -> float

(** Δ̃ against several Θ′ from one outcome: the pessimistic completion is
    built once and every Θ′ replayed on it. Entry [i] is bit for bit
    [underestimate ?k ~theta ~theta':theta's.(i) outcome]. *)
val underestimates :
  ?k:int -> theta:Spec.t -> theta's:Spec.t array -> Exec.outcome -> float array

(** Δ̂ from Θ's outcome (same restriction). *)
val overestimate : ?k:int -> theta:Spec.t -> theta':Spec.t -> Exec.outcome -> float

(** Can Δ̃/Δ̂ be used on this graph? *)
val sound_for : Graph.t -> bool
