(** The live learning query processor — the Section 3.1 / Figure 4 system
    end to end, on a real database.

    [Live] owns a rule base, builds the inference graph for a query form
    once, and answers each concrete query with one execution: its learner's
    current strategy run ({!Strategy.Exec}) over the query's context, whose
    arcs are probed against the database lazily, as the run reaches them
    ({!Infgraph.Context.of_db}). The successful retrieval's first matching
    fact gives the answer; the same outcome feeds the {!Learner} (PIB by
    default, any {!Learner.kind} on request), and an adopted conjecture
    steers the next query — so later queries really run faster. This is
    the paper's satisficing processor (Section 2.1): a strategy is its
    search order, and c(Θ, I) is what it pays.

    A form the graph cannot model exactly falls back to
    {!Datalog.Sld} for the answer, steered by the strategy's per-predicate
    rule order, with the strategy's execution still teaching the learner. That is decided per form and
    re-checked only when the database changes: the graph was truncated
    (recursion), a rule head identifies two variables of its goal
    ([p(X, X)]), or a predicate with rules also has facts in the database
    (the graph has no retrieval arc for it). A query that repeats a
    variable ([p(Z, Z)]) also takes the fallback: the form's graph gives
    each free position its own variable. *)

type t

val create :
  ?learner:Learner.kind ->
  ?config:Learner.config ->
  rulebase:Datalog.Rulebase.t ->
  query_form:Datalog.Atom.t ->
  unit ->
  t

val graph : t -> Infgraph.Graph.t
val strategy : t -> Strategy.Spec.dfs

(** The processor's learner (packed behind the unified API). *)
val learner : t -> Learner.t

val learner_name : t -> string

(** Strategy switches adopted since creation (or since the last
    {!set_strategy}). *)
val climbs : t -> int

(** Adopt a strategy (e.g. one reloaded from a snapshot): the learner is
    re-seeded at it with the same configuration and later queries run
    it. The strategy must have been built on (or parsed
    against) this processor's graph — raises [Invalid_argument]
    otherwise. *)
val set_strategy : t -> Strategy.Spec.dfs -> unit

type answer = {
  result : Datalog.Subst.t option;  (** first answer, if any *)
  stats : Datalog.Sld.stats;
      (** the work that produced the answer: the executed strategy's paid
          arcs split by kind (reductions, retrievals), or on a fallback
          form the SLD engine's counters *)
  cost : float;
      (** paper cost c(Θ, I) of the strategy's execution — what the
          learner's statistics are built from, and what a trace's [exec]
          span must sum to *)
  switched : bool;                  (** did this query trigger a switch? *)
  cached : bool;
      (** answer served from a cache ({!answer_cached}); [stats] is then
          all-zero *)
  fallback : bool;
      (** answer produced by {!Datalog.Sld} on a fallback form, not by the
          strategy's execution (never set on a cached answer) *)
}

(** Answer one query (an instance of the query form) against a database
    with the current strategy, and learn from it.

    With [tracer], the whole answer is recorded as a span tree: a root
    [query] span (or the supplied [parent]) containing an [exec] phase
    (the strategy's execution, arc by arc — its total paper cost equals
    [cost], and on an exactly modelled form [stats.reductions +
    stats.retrievals]) and a [learn] phase (the learner update; a switch
    appears as a [climb] event). On a fallback form an [sld] phase (the
    resolution steps) comes first. Defaults to {!Trace.null} — free.

    With [memo], a fallback form's ground subgoals resolve through the
    shared {!Datalog.Sld.Memo} table; an exactly modelled form never reads
    it.

    Raises [Invalid_argument] if the query does not match the form. *)
val answer :
  ?tracer:Trace.t ->
  ?parent:Trace.span ->
  ?memo:Datalog.Sld.Memo.t ->
  t ->
  db:Datalog.Database.t ->
  Datalog.Atom.t ->
  answer

(** Answer a query whose [result] was produced elsewhere (the serving
    layer's answer cache): still runs the whole learning pipeline — the
    strategy's execution over the query's context (so [cost] is the true
    current c(Θ, I)) and learner observation — leaving the learner's
    trajectory identical to the uncached run. The span tree has no [sld]
    phase and [stats] is all-zero. [derived] is ignored; it is kept only so
    the benchmark harness under [perfbench/] compiles. *)
val answer_cached :
  ?tracer:Trace.t ->
  ?parent:Trace.span ->
  ?derived:bool ->
  t ->
  db:Datalog.Database.t ->
  result:Datalog.Subst.t option ->
  Datalog.Atom.t ->
  answer

(** Queries answered so far. *)
val queries : t -> int

(** Total work of the answers so far (their [stats]): (reductions,
    retrievals). *)
val work : t -> int * int
