(** The wire protocol: a line-oriented request/reply dialect (one request
    per line, replies of one or more lines, multi-line replies terminated
    by [END]). Full specification in [docs/SERVING.md].

    Protocol {!version} 3 (v3 adds the [cached] token to [ANSWER] lines
    and the ["cached"] field to [TRACE] replies). A client can start with
    [HELLO] to learn the server's protocol version and learner before
    relying on either.

    Parsing is total — a recognized verb with bad arguments becomes
    {!Malformed}, an unrecognized verb {!Unknown} (carrying just the verb
    word); the server answers a structured [ERR <code> <message>] line
    either way. Command words are case-insensitive; arguments (Datalog
    atoms) are passed through verbatim. *)

type request =
  | Hello               (** [HELLO] — protocol banner *)
  | Hello_v4
      (** [HELLO V4] — upgrade this connection to the framed v4 dialect
          ({!Frame}). A v3 server answers [ERR malformed ...], which is
          how a client discovers it must fall back to lines. *)
  | Query of string     (** [QUERY <atom>] — answer one query, learning *)
  | Trace of string
      (** [TRACE <atom>] — answer one query and return its span tree *)
  | Stats               (** [STATS] — metrics as text, [END]-terminated *)
  | Stats_json          (** [STATS JSON] — metrics as one JSON line *)
  | Snapshot            (** [SNAPSHOT] — persist all learned strategies *)
  | Strategy of string  (** [STRATEGY <atom>] — a form's current strategy *)
  | Ping                (** [PING] — liveness probe *)
  | Help                (** [HELP] — list commands, [END]-terminated *)
  | Flight
      (** [FLIGHT] — the per-loop flight-recorder rings and retained
          lifecycle traces as one JSON line (see docs/TRACING.md) *)
  | Quit                (** [QUIT] — close this connection *)
  | Shutdown            (** [SHUTDOWN] — drain and stop the server *)
  | Empty               (** blank line — ignored *)
  | Malformed of string (** known verb, unusable arguments *)
  | Unknown of string   (** unrecognized verb (the verb word) *)

(** The wire protocol version announced by [HELLO]. *)
val version : int

val parse : string -> request

val parse_sub : Bytes.t -> pos:int -> len:int -> request
(** [parse_sub b ~pos ~len] parses one request from
    [b.[pos .. pos+len-1]] without allocating the line: the verb is
    matched in place and only the argument (when the verb takes one) is
    copied out. The reactor calls this directly on connection read
    buffers. Total — never raises, never mutates [b] — and agrees with
    {!parse} on every byte sequence (property-tested). *)

(** Terminator line for multi-line replies. *)
val terminator : string

(** The [HELP] reply body. *)
val help_lines : string list

(** Reply formatting: [ANSWER ...], [HELLO ...], [TRACE <json>],
    [ERR <code> <msg>] (message flattened to one line), [BUSY], [BYE],
    [PONG]. *)

(** [s] with each line break (LF or CR) replaced by a space: a text that
    may hold one goes into a reply line through this. *)
val one_line : string -> string

(** [cached] adds a [cached] token (before [switched]): the answer was
    served from the answer cache and [reductions]/[retrievals] are 0. *)
val answer_line :
  result:string -> reductions:int -> retrievals:int -> cached:bool ->
  switched:bool -> unit -> string

(** [HELLO strategem/<version> learner=<learner>]. [?version] defaults
    to the line-dialect {!version}; the server passes {!Frame.version}
    when answering over an upgraded (framed) connection. *)
val hello_line : ?version:int -> learner:string -> unit -> string

val trace_line : string -> string

(** Machine-readable error classes, the first token after [ERR]. *)
type err_code =
  [ `Parse          (** the atom argument did not parse *)
  | `Unknown_verb   (** no such command *)
  | `Malformed      (** known command, unusable arguments *)
  | `Unsupported    (** the form cannot be served (e.g. conjunctive) *)
  | `No_state_dir   (** [SNAPSHOT] without [--state-dir] *)
  | `Internal       (** anything else *) ]

val err_code_to_string : err_code -> string
val err : code:err_code -> string -> string
val busy : string
val bye : string
val pong : string
