(** Query-processing contexts (Section 2.1, Note 2).

    A context I = ⟨q, DB⟩ determines, for each blockable arc, whether it is
    blocked. Since the cost of running any strategy on a context depends
    only on that blocked set, contexts are represented as the Note 2
    equivalence classes: a boolean per arc ([true] = traversable).

    [of_db] derives the blocked set of a concrete ⟨query, database⟩ pair for
    a graph built from a knowledge base, probing each arc on first read;
    [Partial] represents the learner's incomplete knowledge after watching
    one execution, with the pessimistic and optimistic completions used by
    the Δ̃ / Δ̂ estimates. *)

type t

(** [make g ~unblocked] — [unblocked.(arc_id)] says the arc is traversable.
    Entries for non-blockable arcs are forced to [true]. *)
val make : Graph.t -> unblocked:bool array -> t

(** Every blockable arc blocked / unblocked. *)
val all_blocked : Graph.t -> t
val all_unblocked : Graph.t -> t

(** [of_db g ~query ~db] unifies the graph's root goal with the query once
    and decides each blockable arc against the database, lazily: an arc is
    probed the first time {!unblocked} reads it, and the verdict is
    remembered, so a run pays only for the arcs it reaches while every
    reader sees the same values. A retrieval arc is unblocked iff some fact
    matches its instantiated pattern (the first such fact is kept as the
    arc's {!witness}); a blockable reduction arc is unblocked iff its
    [pattern] (the rule-head instance) unifies with the instantiated goal of
    its source node.
    Raises [Invalid_argument] if the graph has no goal atom at the root or
    the query does not unify with it. *)
val of_db : Graph.t -> query:Datalog.Atom.t -> db:Datalog.Database.t -> t

val unblocked : t -> int -> bool
val blocked : t -> int -> bool

(** [witness t arc_id] — for a retrieval arc of an [of_db] context that is
    unblocked, the first fact matching its instantiated pattern; [None]
    otherwise (blocked, not a retrieval, or an eager context). Probes the
    arc if it was not read yet. *)
val witness : t -> int -> Datalog.Atom.t option

(** Arcs ids that are unblocked (including non-blockable arcs). Like
    {!equal}, {!pp} and {!Partial.consistent}, probes every arc not read
    yet. *)
val unblocked_set : t -> int list

val equal : t -> t -> bool
val pp : Graph.t -> Format.formatter -> t -> unit

(** Partially observed contexts. *)
module Partial : sig
  type full := t
  type t

  (** Nothing observed. *)
  val unknown : Graph.t -> t

  (** Record an observation for an arc. Conflicting re-observation raises
      [Invalid_argument] (contexts are fixed within a run). *)
  val observe : t -> arc_id:int -> unblocked:bool -> unit

  val known : t -> int -> bool option

  (** Pessimistic completion: unobserved blockable arcs are blocked. *)
  val pessimistic : t -> full

  (** Optimistic completion: unobserved arcs are unblocked. *)
  val optimistic : t -> full

  (** Is [full] consistent with the observations? *)
  val consistent : t -> full -> bool
end
