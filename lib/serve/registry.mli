(** The per-query-form learner registry — the daemon's brain.

    Each distinct query {e form} (predicate, arity, and adornment: which
    argument positions are bound) gets its own {!Core.Live} processor,
    built lazily on the first query of that form and kept for the life of
    the server. Concurrency contract: queries of the {e same} form
    serialize on the entry's lock (the learner is stateful — Figure 4's
    PIB watches a single execution stream), while queries of different
    forms proceed in parallel. Looking an entry up takes no lock and
    allocates nothing: entries are found by predicate id, then by arity
    and adornment compared in place, in an immutable table that the
    registry-wide lock replaces whole when a form is first seen.

    Forms are canonicalized so that [instructor(manolis)] and
    [instructor(russ)] share a learner (form [instructor(q)], key
    ["instructor_1_b"]) while [instructor(X)] gets its own
    (["instructor_1_f"]). *)

type entry

type t

(** [create ?learner ?config ~rulebase metrics] — per-form processors are
    created against [rulebase] with the given learner kind (default
    [`Pib]) and {!Core.Learner.config}. *)
val create :
  ?learner:Core.Learner.kind ->
  ?config:Core.Learner.config ->
  rulebase:Datalog.Rulebase.t ->
  Metrics.t ->
  t

(** The learner kind every entry is created with. *)
val learner_kind : t -> Core.Learner.kind

(** The canonical query form of a concrete query: every constant becomes
    the bound-position marker [q], every variable a positional [X<i>]. *)
val form_of_query : Datalog.Atom.t -> Datalog.Atom.t

(** Filesystem/metrics-safe key of a form, e.g. ["instructor_1_b"];
    distinct forms get distinct keys. Predicate-name bytes outside
    [[A-Za-z0-9_]] are written as [-] and two lowercase hex digits
    (['a b'(q)] is ["a-20b_1_b"]). *)
val key_of_form : Datalog.Atom.t -> string

(** Look up or lazily build the entry for the query's form (a new
    entry's form is the canonicalized atom). May raise
    {!Infgraph.Build.Not_disjunctive} (a conjunctive rule body) or
    [Invalid_argument] (a graph PIB cannot learn on). *)
val find_or_create : t -> Datalog.Atom.t -> entry

(** Answer one concrete query with the form's learner, serialized against
    other queries of the same form. [tracer]/[parent] are passed
    through to {!Core.Live.answer}.

    With [cache], the answer cache is consulted (under the entry lock)
    first: a valid exact (alpha-variant) hit is answered by
    {!Core.Live.answer_cached}, which still runs the current strategy's
    execution so the learner observes the query, and a miss stores the
    fresh result unless the search was depth-truncated. When [parent] is given
    and tracing is on, cache service is recorded on it as a [cache_hit]
    event (attrs [fill_reductions]/[fill_retrievals]/[fill_cost]: what
    the execution that filled the entry paid — a hit re-executes the
    strategy and pays its arcs again) or a [cache_miss] event. [memo] is
    threaded to the SLD engine for subgoal memoization on fallback-form
    misses. *)
val answer :
  ?tracer:Trace.t ->
  ?parent:Trace.span ->
  ?cache:Cache.Answers.t ->
  ?memo:Datalog.Sld.Memo.t ->
  t ->
  db:Datalog.Database.t ->
  Datalog.Atom.t ->
  Core.Live.answer

(** {!answer} on an entry already resolved by {!find_or_create}. *)
val answer_entry :
  ?tracer:Trace.t ->
  ?parent:Trace.span ->
  ?cache:Cache.Answers.t ->
  ?memo:Datalog.Sld.Memo.t ->
  entry ->
  db:Datalog.Database.t ->
  Datalog.Atom.t ->
  Core.Live.answer

(** All entries, sorted by form key. *)
val entries : t -> entry list

val key : entry -> string
val form : entry -> Datalog.Atom.t

(** The form's per-form metric handles. Its [strategem_learner_*]
    gauges and its [STATS] strategy ({!strategy_string}) are read off
    the learner when [/metrics] or [STATS] renders. *)
val metrics : entry -> Metrics.form

(** Run [f] on the entry's processor while holding its lock. *)
val with_live : entry -> (Core.Live.t -> 'a) -> 'a

(** The entry's current strategy, rendered ⟨like this⟩ on one line (a
    line break in a predicate name becomes a space). *)
val strategy_string : entry -> string
