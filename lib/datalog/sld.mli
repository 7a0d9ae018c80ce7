(** Top-down SLD(NF) resolution — the paper's query processor substrate.

    The engine performs satisficing search (Simon & Kadane's term, used
    throughout the paper): [solve_first] stops at the first success node.
    The order in which rules are considered is a parameter ([rule_order]).
    The serving path ({!Core.Live}) answers by executing its learned
    strategy itself and calls SLD, steered by the strategy's rule order
    through [rule_order], only for forms its inference graph cannot model
    exactly; SLD is also the reference engine the tests compare against.

    Negative literals are evaluated by negation as failure and are delayed
    until ground; a derivation in which only non-ground negative literals
    remain flounders and raises [Floundering].

    Recursion is guarded by [depth_limit]; branches cut by the limit mark
    [stats.truncated], so a failed proof with [truncated = true] is "unknown"
    rather than "no". *)

type stats = {
  mutable reductions : int;        (** rule-arc traversals *)
  mutable retrievals : int;        (** database retrieval attempts *)
  mutable retrieval_hits : int;    (** successful retrievals *)
  mutable naf_calls : int;         (** negation-as-failure subproofs *)
  mutable truncated : bool;        (** some branch hit the depth limit *)
}

val fresh_stats : unit -> stats

(** Subgoal memoization ("tabling-lite"): a thread-safe, sharded table of
    completed ground-subgoal verdicts. A ground subgoal adds no bindings, so
    its whole subtree collapses to one boolean; memoizing it makes shared
    subtrees within a derivation — and, when the same table is passed to
    successive configs, across queries — cost one lookup after the first
    proof.

    Entries record the {!Database.token}/{!Database.generation} pair they
    were computed at and are invalidated lazily on lookup, so database
    mutation never serves stale verdicts. A failed subgoal whose search was
    cut by [depth_limit] is "unknown" and is never recorded. *)
module Memo : sig
  type t

  type counters = {
    hits : int;
    misses : int;
    invalidations : int;  (** entries dropped for a stale token/generation *)
    entries : int;
  }

  (** [create ?shards ?max_entries ()] — [max_entries] (default 65536) is a
      soft cap: an overflowing shard is reset wholesale rather than tracked
      LRU, since verdicts are cheap to recompute. *)
  val create : ?shards:int -> ?max_entries:int -> unit -> t

  (** [add t ~token ~gen atom proved] records a verdict directly, as the
      engine does after proving or refuting a ground subgoal. Only sound
      verdicts may be recorded: [proved = false] requires a complete
      (non-truncated) failure. *)
  val add : t -> token:int -> gen:int -> Atom.t -> bool -> unit

  (** [find t ~token ~gen atom] — the memoized verdict, if current.
      Counts a hit or miss like an engine lookup. *)
  val find : t -> token:int -> gen:int -> Atom.t -> bool option

  val clear : t -> unit
  val counters : t -> counters
end

type config = {
  rulebase : Rulebase.t;
  db : Database.t;
  rule_order : Atom.t -> Clause.t list -> Clause.t list;
      (** Reorders the candidate rules for a goal; [Fun.flip Fun.const]-like
          identity by default. This is the strategy hook. *)
  depth_limit : int;  (** maximum resolution depth (default 512) *)
  tracer : Trace.t;
      (** Span sink for resolution steps ([Trace.null] by default — free).
          Each rule application opens a [reduction] span (paper cost 1) that
          nests the sub-derivation; each database probe emits a [retrieval]
          event (paper cost 1, attrs [pattern]/[hit]); each
          negation-as-failure sub-proof nests under a cost-0 [naf] span. *)
  parent : Trace.span;  (** span the derivation reports under *)
  memo : Memo.t option;
      (** When set, ground positive subgoals (including NAF tests, which are
          ground by selection) are proved through the memo table. Off by
          default: memoization changes [stats] (that is the point) though
          never the answers. Memo hits emit a [memo_hit] trace event. *)
}

val config :
  ?rule_order:(Atom.t -> Clause.t list -> Clause.t list) ->
  ?depth_limit:int ->
  ?tracer:Trace.t ->
  ?parent:Trace.span ->
  ?memo:Memo.t ->
  rulebase:Rulebase.t ->
  db:Database.t ->
  unit ->
  config

exception Floundering of Atom.t

(** Lazy stream of answer substitutions (restricted to the goal's
    variables). [stats] is filled in as the stream is forced. *)
val solve_seq : config -> stats -> Clause.lit list -> Subst.t Seq.t

(** First answer, if any — satisficing search. *)
val solve_first : config -> Clause.lit list -> (Subst.t option * stats)

(** Up to [limit] answers (all, if omitted), de-duplicated. *)
val solve_all : ?limit:int -> config -> Clause.lit list -> Subst.t list * stats

(** [provable cfg goal] — is the ground/existential goal derivable? *)
val provable : config -> Clause.lit list -> bool
