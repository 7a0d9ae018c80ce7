(** Client for the strategem serve daemon — the one implementation of
    the wire protocol shared by [strategem client], the bench drivers
    and the tests.

    A client speaks either dialect. [`Lines] is the v2/v3 line protocol:
    one request line, read the reply (lines until [END] for multi-line
    verbs). [`V4] is the framed protocol ({!Frame}): requests carry
    client-chosen ids, many can be posted before any response is read
    ({!post}/{!recv}), and responses may arrive out of order. [`Auto]
    (the default) negotiates: it sends the [HELLO V4] upgrade line and
    switches to frames when the server answers with the v4 banner — an
    older server instead answers [ERR malformed HELLO takes no argument]
    and the client quietly stays on the line dialect, so [`Auto] is safe
    against any historical daemon.

    Replies are returned dialect-independently as the reply lines the
    line protocol would print ([ERR]/[BUSY]/[BYE] reconstructed from
    response frames), so callers never branch on the negotiated
    protocol. Not thread-safe; one client per thread. *)

type t

type proto = [ `Auto | `Lines | `V4 ]

(** [connect ?proto ?host ~port ()] — TCP connect (with [TCP_NODELAY])
    and, under [`Auto], run the upgrade handshake. Default host
    ["127.0.0.1"]. Raises [Unix.Unix_error] on connection failure. *)
val connect : ?proto:proto -> ?host:string -> port:int -> unit -> t

(** The dialect actually in use (after [`Auto] negotiation). *)
val protocol : t -> [ `Lines | `V4 ]

(** {2 Blocking request/response} *)

(** [command t line] sends one protocol line (e.g.
    ["QUERY instructor(russ)"]) and blocks for its full reply. Multi-line
    replies come back without the [END] terminator. An empty line returns
    [[]] without touching the wire. Raises [End_of_file] if the server
    closes mid-reply and [Failure] on a corrupt frame. *)
val command : t -> string -> string list

(** First line of {!command}'s reply ([""] on an empty reply) — the
    common case for single-line verbs like [QUERY]. *)
val request : t -> string -> string

(** {2 Pipelining (v4 only)} *)

(** [post t line] encodes the request as one frame with a fresh id,
    writes it without waiting for any response, and returns the id.
    Raises [Invalid_argument] on a line-dialect client or a line that
    does not parse as a pipelineable verb. *)
val post : t -> string -> int

(** [post_batch t lines] is {!post} for each line in order, but with one
    flush for the lot: a burst that fits the channel buffer (64 KiB)
    reaches the socket in one write, so the server parses it in one read
    rather than frame by frame. Returns the ids in order. *)
val post_batch : t -> string list -> int list

(** The next response the server sends (any id), as [(id, reply lines)].
    Raises [Invalid_argument] on a line-dialect client, [End_of_file]
    when the server closes. *)
val recv : t -> int * string list

(** {2 Raw line passthrough (line dialect only)}

    For callers that need the historical CLI behaviour byte for byte:
    write raw lines, half-close, print everything until EOF. *)

val send_line : t -> string -> unit
(** Write [line ^ "\n"], buffered; flushed by {!half_close} and
    {!command}. Raises [Invalid_argument] on a v4 client. *)

val half_close : t -> unit
(** Flush and [shutdown SHUTDOWN_SEND]: the server sees EOF, serves
    what was sent, and closes once every reply is out. *)

val drain : t -> (string -> unit) -> unit
(** Feed every remaining reply line to the callback until EOF. *)

val close : t -> unit
