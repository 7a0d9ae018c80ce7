(** Recursive-descent parser for Datalog programs.

    Surface syntax:
    {v
      prof(russ).                      % a fact
      instructor(X) :- prof(X).       % a rule
      safe(X) :- person(X), not criminal(X).
      ?- instructor(manolis).         % a query
    v}

    Identifiers starting with a lowercase letter (or digits, or quoted
    ['...']) are constants/predicates; identifiers starting with an
    uppercase letter or [_] are variables. [%] comments run to end of
    line. [\+] is accepted as a synonym for [not].

    Every entry point pulls tokens from a {!Lexer.t} one at a time as it
    descends, so no token list is built. A malformed token raises
    [Lexer.Lex_error], anything else malformed raises [Parse_error], and
    a lexical error anywhere in the input wins: before a [Parse_error]
    escapes, the rest of the input is lexed, and its first
    [Lexer.Lex_error], if any, is raised instead. Symbols are interned
    as they are met: an atom's arguments left to right, then its
    predicate. *)

type item =
  | Clause of Clause.t
  | Query of Clause.lit list

exception Parse_error of string * Lexer.position

(** Parse a whole program. *)
val parse_program : string -> item list

(** Parse a single clause, e.g. ["instructor(X) :- prof(X)."]. *)
val parse_clause : string -> Clause.t

(** Parse several clauses and no queries. *)
val parse_clauses : string -> Clause.t list

(** Parse a single atom, e.g. ["instructor(manolis)"]. *)
val parse_atom : string -> Atom.t

(** Parse a query body, e.g. ["?- p(X), not q(X)."] or ["p(X), not q(X)"]. *)
val parse_query : string -> Clause.lit list

(** Split a program into (rules, facts, queries). *)
val parse_kb : string -> Clause.t list * Atom.t list * Clause.lit list list
