(** The unified learner API.

    Every learner in this repo — PIB's anytime hill-climber, the PIB₁
    one-shot filter, PAO's sample-then-optimize PAC learner, its
    general-graph adaptive variant, and PALO's terminating climber — fits
    one observational loop (Figure 4): watch the query processor execute
    the current strategy, occasionally conjecture a better one. This
    module names that contract once ({!S}), makes the five learners
    conform, and packs them behind a single first-class value ({!t}) so
    consumers ({!Live}, [Serve.Registry], the daemon's [--learner] flag)
    select a learner by {!kind} instead of hard-coding PIB.

    Protocol: after each query, call {!observe} with the context and the
    execution outcome of the {e current} strategy, then poll
    {!conjecture}; [Some θ'] means the learner has switched and the QP
    must adopt θ' (a conjecture is consumed — polling again returns
    [None] until the next switch). {!current} always reflects the
    learner's present strategy. A {!finished} learner ignores further
    observations. *)

open Infgraph
open Strategy

(** {1 Convergence telemetry}

    A point-in-time reading of the learner's statistical machinery,
    surfaced at runtime as the [strategem_learner_*] gauges. [epsilon]
    is the learner's own accuracy bound: PIB reports Equation 6's
    per-sample threshold at the current test index (the cost resolution
    below which it cannot yet distinguish neighbours), PIB₁ Equation 3's
    threshold over [m] (0 once decided), PAO the configured ε inflated
    by the worst arc's remaining (scaled) sample-target shortfall, and
    PALO its configured ε target. See docs/OBSERVABILITY.md. *)
type progress = {
  samples : int;
      (** current sample set [|S|], for learners that keep one *)
  samples_total : int;
  climbs : int;
  epsilon : float;  (** [+inf] before any evidence *)
  delta : float;  (** the confidence budget *)
  finished : bool;
}

(** What a learner must provide. [conjecture] consumes: it returns a
    newly adopted strategy at most once per switch. *)
module type S = sig
  type t

  val name : string

  (** Feed one (context, outcome) pair of the current strategy's
      execution. No-op once {!finished}. *)
  val observe : t -> Context.t -> Exec.outcome -> unit

  val current : t -> Spec.dfs
  val conjecture : t -> Spec.dfs option
  val finished : t -> bool

  (** The current strategy in {!Strategy.Persist} text form (loadable
      with [Persist.dfs_of_string]); what snapshots store. *)
  val serialize : t -> string

  val progress : t -> progress
end

(** PIB (Section 3.2): never finishes, climbs forever. *)
module Pib_learner : sig
  include S

  val create : ?config:Pib.config -> Spec.dfs -> t

  (** The underlying climber (counters, climb log). *)
  val pib : t -> Pib.t
end

(** PIB₁ (Section 3.1): guards the first adjacent sibling swap of the
    start strategy; finishes as soon as Equation 3 approves it (or
    immediately, if the strategy has no sibling pair to contemplate). *)
module Pib1_learner : sig
  include S

  val create : ?delta:float -> Spec.dfs -> t
end

(** PAO (Section 4) as an unobtrusive observer: counts retrieval
    attempts/successes from outcomes until every retrieval has met its
    (scaled) Equation 7 target — or [max_contexts] passes — then
    conjectures Υ_AOT of the estimates and finishes. Unlike {!Pao.run}
    it never steers sampling; starvation is the price of passivity,
    which the [max_contexts] cap bounds. *)
module Pao_learner : sig
  include S

  val create :
    ?epsilon:float ->
    ?delta:float ->
    ?scale:float ->
    ?max_contexts:int ->
    Spec.dfs ->
    t
end

(** {!Pao_adaptive} (Section 4.1) as an observer: Equation 8 aim
    targets, aims counted from the arcs each outcome paid for. *)
module Pao_adaptive_learner : sig
  include S

  val create :
    ?epsilon:float ->
    ?delta:float ->
    ?scale:float ->
    ?max_contexts:int ->
    Spec.dfs ->
    t
end

(** PALO ([CG91]): climbs until ε-locally optimal, then finishes. *)
module Palo_learner : sig
  include S

  val create : ?config:Palo.config -> Spec.dfs -> t

  (** The underlying learner (status, paired-execution count). *)
  val palo : t -> Palo.t
end

(** {1 Dynamic selection} *)

type kind = [ `Pib | `Pib1 | `Pao | `Pao_adaptive | `Palo ]

val all_kinds : kind list
val kind_to_string : kind -> string

(** Inverse of {!kind_to_string} ("pib", "pib1", "pao", "pao-adaptive",
    "palo"). *)
val kind_of_string : string -> kind option

type config = {
  pib : Pib.config;
  palo : Palo.config;
  pib1_delta : float;
  pao_epsilon : float;
  pao_delta : float;
  pao_scale : float;  (** Equation 7/8 target multiplier *)
  pao_max_contexts : int;
}

val default_config : config

(** A packed learner: any conforming module behind one value. *)
type t

val create : ?config:config -> kind -> Spec.dfs -> t

(** Pack a custom conforming module (the five built-ins go through
    {!create}). [reseed] rebuilds the learner at a new start strategy
    (used by [set_strategy] after a snapshot reload). *)
val pack :
  (module S with type t = 'a) -> reseed:(Spec.dfs -> t) -> 'a -> t

val name : t -> string

(** Feed one (context, outcome) pair. *)
val observe : t -> Context.t -> Exec.outcome -> unit

val current : t -> Spec.dfs

(** Poll for a switch. *)
val conjecture : t -> Spec.dfs option

val finished : t -> bool
val serialize : t -> string
val progress : t -> progress

(** A fresh learner of the same kind and configuration, started at the
    given strategy. *)
val reseed : t -> Spec.dfs -> t
