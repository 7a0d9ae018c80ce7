(** Hand-written lexer for the Datalog surface syntax. *)

type token =
  | Ident of string      (** lowercase identifier, integer, or quoted atom *)
  | Variable of string   (** identifier starting with uppercase or [_] *)
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Turnstile            (** [:-] *)
  | Query                (** [?-] *)
  | Not                  (** [not] or [\+] *)
  | Eof

type position = { line : int; col : int }

exception Lex_error of string * position

val pp_token : Format.formatter -> token -> unit

(** [plain_ident s] holds when [s] lexes as an [Ident] without quotes (a
    lowercase identifier other than [not], or an integer); any other
    name must be written quoted. *)
val plain_ident : string -> bool

(** {1 The pull lexer}

    A lexer over one input string that produces tokens on demand: the
    parser reads the current token, then asks for the next, so no token
    list is ever built. Blanks are skipped, and [%] starts a comment
    running to end of line. A column counts bytes from the start of its
    line, both from 1. *)

type t

(** A lexer positioned on the first token of the input. Raises
    [Lex_error] if that token is malformed. *)
val of_string : string -> t

(** The current token; [Eof] once the input is exhausted. *)
val token : t -> token

(** Where the current token starts. *)
val position : t -> position

(** Move to the next token. At [Eof] it stays there. Raises [Lex_error]
    if the next token is malformed. *)
val advance : t -> unit
