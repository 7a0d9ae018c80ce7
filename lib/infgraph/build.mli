(** Construct the inference graph of a rule base for a query form.

    The root is the query-form goal, e.g. [instructor(Q)] for the form
    [instructor^(b)]: bound argument positions hold distinguished
    "parameter" variables that each concrete context instantiates. A goal
    node is expanded by:

    - one [Reduction] arc per rule whose head unifies with the goal; the
      arc is blockable iff the unification constrains the goal's parameters
      (e.g. the head [grad(fred)] against goal [grad(Q)] — the Section 4.1
      experiment arcs);
    - one [Retrieval] arc (into a success box) if the goal's predicate
      occurs in the database schema (is extensional, or is listed in
      [edb]).

    Only *simple disjunctive* rules (at most one body literal) fit
    tree-shaped graphs; rules with conjunctive bodies raise
    [Not_disjunctive] — use {!Hypergraph} for those. Recursive rule bases
    are unfolded to [max_depth]; if the bound is hit the result is flagged
    [truncated]. *)

exception Not_disjunctive of Datalog.Clause.t

(** What a retrieval arc proves: chaining the rules on its path gives the
    clause [head :- body], where [head] is the root goal and [body] the
    retrieval's pattern, both under the composed unifiers of the path. A
    query answered there is the query unified with [head], then [body]
    with a matching fact. *)
type resolvent = { head : Datalog.Atom.t; body : Datalog.Atom.t }

type result = {
  graph : Graph.t;
  params : Datalog.Term.var list;  (** parameter variables, by position *)
  truncated : bool;  (** some branch was cut by [max_depth] *)
  identifying : bool;
      (** some rule head maps two distinct variables of its goal to one
          variable (e.g. [p(X, X)] against [p(A, B)]); the graph then
          forgets that equality, since the arc's pattern constrains only
          the parameters *)
  rule_arcs : (int * Datalog.Clause.t) list;
      (** each reduction arc with the source rule it unfolds *)
  resolvents : resolvent option array;
      (** by arc id: [Some] on retrieval arcs, [None] on reductions *)
}

(** [build ~rulebase ~query_form ()] — [query_form] is an atom pattern
    whose constant arguments mark bound positions (their values are
    irrelevant) and whose variables mark free positions, e.g.
    [instructor(q)] for [instructor^(b)].

    [cost_reduction] and [cost_retrieval] set arc costs (default:
    [fun _ -> 1.0], the paper's unit-cost convention).
    [edb] forces predicates to be treated as extensional even if rules
    define them as well. *)
val build :
  ?max_depth:int ->
  ?cost_reduction:(Datalog.Clause.t -> float) ->
  ?cost_retrieval:(Datalog.Atom.t -> float) ->
  ?edb:string list ->
  rulebase:Datalog.Rulebase.t ->
  query_form:Datalog.Atom.t ->
  unit ->
  result

(** [query_of_consts result atoms] builds the concrete query binding the
    parameters to the given constants (by position).
    Raises [Invalid_argument] on arity mismatch. *)
val query_of_consts : result -> string list -> Datalog.Atom.t
