(** Protocol v4: length-prefixed binary framing with request ids.

    Every v4 message — request or response — is one frame:

    {v
      offset  size  field
      0       1     magic      0x84
      1       1     type       request 0x01..0x0C, response 0x81..0x84
      2       4     request id unsigned 32-bit, big-endian
      6       4     length     payload byte count, big-endian
      10      len   payload    UTF-8 text (atoms, reply lines)
    v}

    Request ids are chosen by the client and echoed verbatim in the
    matching response, so many requests can be in flight on one
    connection and responses can arrive out of order. Payloads carry the
    same text the v3 line protocol would — a [QUERY] frame's payload is
    the atom, an [Ok] response's payload is the reply line(s), multi-line
    replies joined with ['\n'] and {e not} [END]-terminated (framing
    already delimits them).

    The magic byte 0x84 is what lets the server tell v4 apart from the
    v2/v3 line dialect by sniffing the first byte of a connection: no
    printable ASCII line starts with a byte >= 0x80. Full wire reference
    in [docs/PROTOCOL.md]. *)

(** The framed-dialect version announced by [HELLO] over v4 (the line
    dialect stays at {!Protocol.version}). *)
val version : int

val magic : char
(** ['\x84'], the first byte of every frame. *)

val header_size : int
(** 10 bytes: magic, type, id, length. *)

val max_payload : int
(** Upper bound on [length] accepted by {!decode} (4 MiB); larger frames
    are rejected as [Corrupt] so a hostile length field cannot force an
    unbounded buffer. *)

(** Frame types. Requests mirror {!Protocol.request} verbs; responses
    classify the reply like the first token of a v3 reply line would. *)
type kind =
  | Hello       (** 0x01 — payload empty; response [Ok] with banner *)
  | Query       (** 0x02 — payload is the atom *)
  | Trace       (** 0x03 — payload is the atom *)
  | Strategy    (** 0x04 — payload is the atom *)
  | Stats       (** 0x05 — payload empty; response is the STATS text *)
  | Stats_json  (** 0x06 — payload empty; response is the JSON line *)
  | Snapshot    (** 0x07 *)
  | Ping        (** 0x08 — response [Ok] with payload [PONG] *)
  | Help        (** 0x0B — response [Ok] with the command list *)
  | Flight
      (** 0x0C — payload empty; response [Ok] with the flight-recorder
          dump (one JSON line) *)
  | Quit        (** 0x09 — response [Bye], then the server closes *)
  | Shutdown    (** 0x0A — response [Bye], then the server drains *)
  | Ok          (** 0x81 — success; payload is the reply text *)
  | Err         (** 0x82 — payload is [<code> <message>] *)
  | Busy        (** 0x83 — request shed: its loop's FIFO was full *)
  | Bye         (** 0x84 — connection closing after this frame *)
  | Unknown of int
      (** any other type byte; requests get an [Err unknown-verb]
          response rather than killing the connection *)

type t = { id : int; kind : kind; payload : string }

val is_request : kind -> bool
val kind_code : kind -> int
val kind_name : kind -> string

val encode : Buffer.t -> t -> unit
(** Appends the frame to the buffer. Raises [Invalid_argument] if the id
    is outside unsigned 32-bit range or the payload exceeds
    {!max_payload}. *)

val encode_string : t -> string

(** Result of scanning a byte range for one frame. *)
type decoded =
  | Frame of t * int
      (** a complete frame and the total bytes it consumed *)
  | Need_more of int
      (** incomplete; the total frame size needed (or {!header_size} if
          the header itself is still partial) *)
  | Corrupt of string
      (** bad magic or an over-limit length — the connection cannot be
          resynchronized and should be closed *)

val decode : Bytes.t -> pos:int -> limit:int -> decoded
(** [decode buf ~pos ~limit] scans [buf.[pos .. limit-1]] for one frame
    starting at [pos]. Never raises on any byte sequence; the payload is
    copied out of [buf] exactly once. *)

val read : in_channel -> t
(** Blocking convenience for clients: read exactly one frame. Raises
    [End_of_file] on EOF at a frame boundary, [Failure] on a corrupt or
    truncated frame. *)
