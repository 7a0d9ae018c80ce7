(** The answer cache: canonicalized query atom -> first answer + fill cost.

    Entries are keyed by {!Key.of_atom}, so alpha-equivalent queries share
    one entry. Each entry stores the answer substitution rebased into
    canonical variable space, whether the query was answered at all, the
    work the fill paid (reductions / retrievals), and the paper-cost
    [c(Theta, I)] observed at fill time. The serving layer reports the
    stored cost on a hit's trace event; the learner is taught by running
    the current strategy again (see {!Core.Live.answer_cached}).

    Validity is tied to one database state: entries record
    {!Datalog.Database.token} and {!Datalog.Database.generation} at fill
    time and are dropped lazily on lookup when either differs ("ASSERT"-
    style mutation bumps the generation). Only non-truncated results should
    be stored (callers enforce this): a depth-truncated "no answer" is
    "unknown", not "no".

    All operations are thread-safe. *)

type t

(** A successful lookup. [result] is rebased onto the querying atom's own
    variables. *)
type hit = {
  result : Datalog.Subst.t option;
  derived : bool;
      (** always [false]: every hit is an exact alpha-variant hit. Kept
          only so the benchmark harness under [perfbench/] compiles. *)
  reductions : int;  (** work the fill paid *)
  retrievals : int;
  cost : float;  (** paper-cost c(Theta, I) at fill time *)
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;  (** entries dropped for a stale token/generation *)
  entries : int;
  bytes : int;  (** estimated resident bytes *)
  capacity_bytes : int;
}

(** [create ?shards ?subsume ~capacity_bytes ()] — [subsume] is ignored;
    it is kept only so the benchmark harness under [perfbench/]
    compiles. *)
val create : ?shards:int -> ?subsume:bool -> capacity_bytes:int -> unit -> t

(** [find t ~db q] — a hit requires the entry's token/generation to match
    [db]'s current ones; stale entries are removed and counted as
    invalidations (and the lookup as a miss). *)
val find : t -> db:Datalog.Database.t -> Datalog.Atom.t -> hit option

(** [store t ~db q ~result ~reductions ~retrievals ~cost] records the
    outcome of a fresh run against [db]'s current generation. *)
val store :
  t ->
  db:Datalog.Database.t ->
  Datalog.Atom.t ->
  result:Datalog.Subst.t option ->
  reductions:int ->
  retrievals:int ->
  cost:float ->
  unit

val counters : t -> counters
