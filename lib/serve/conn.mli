(** Reactor connection state: one value per accepted socket, owned by
    its event-loop thread.

    Each connection starts in sniff mode: the first byte decides the
    dialect ({!Frame.magic} means framed v4, anything else the v2/v3
    line protocol), and a line-mode [HELLO V4] upgrades mid-stream.
    Connections accepted on the metrics port start in HTTP mode instead:
    one request head (capped at 8 KiB), one response, close. The
    read side (buffering, dialect detection, incremental parsing) lives
    here; dispatch policy — FIFO stop-and-wait for line mode, free
    pipelining for frames — lives in [server.ml].

    Thread model: each connection is owned by exactly one event loop of
    the reactor fleet (chosen at accept, never changed), and that loop
    both parses and executes its requests, so every operation here is
    called from that loop's thread only and nothing is locked. The one
    shared cell is the global write budget inside {!limits}, which is
    atomic. *)

type t

(** {2 Write-buffer budget}

    Shared by every connection of a server: a per-connection cap plus a
    global cap over the sum of all buffered response bytes. A {!send}
    that would breach either cap sheds the connection's whole buffered
    output, leaves one [BUSY] in its place, and flags the connection
    ({!overflowed}) for the owning loop to disconnect after one
    best-effort flush — a reader that never drains its socket costs a
    bounded number of bytes and one connection, not the server's
    memory. *)

type limits

(** [limits ?max_buf ?global_max ()] — [max_buf] caps one connection's
    buffered output (default 64 MiB), [global_max] the sum across all
    connections sharing this value (default [0] = unlimited); [0]
    disables either cap. With the global cap off, sends skip the shared
    byte count altogether. *)
val limits : ?max_buf:int -> ?global_max:int -> unit -> limits

(** What the read buffer yielded. *)
type incoming =
  | Line_req of Protocol.request
      (** one line-dialect request, parsed in place from the buffer *)
  | Frame_req of Frame.t  (** one complete v4 frame *)
  | Upgrade
      (** a [HELLO V4] line: the mode has already switched to frames;
          the caller must reply with the v4 banner {e before} any
          response to frames that followed in the same buffer *)
  | Junk of string
      (** unrecoverable input (bad magic, oversized line or frame): the
          caller should answer with an error and close *)
  | Http_req of string
      (** an HTTP connection's request line, once its head is complete
          (or cut short by EOF); the caller answers once and closes *)

type read_status = Continue | Eof | Rerror of string

val create :
  ?accept_ns:int ->
  ?http:bool ->
  id:int -> peer:string -> ip:string -> limits:limits ->
  Unix.file_descr -> t
(** [accept_ns] (default [0]) stamps the socket's accept time for the
    lifecycle tracker's [accept] spans. [http] (default [false]) starts
    the connection in HTTP mode instead of sniffing its dialect. *)

val fd : t -> Unix.file_descr
val id : t -> int

val accept_ns : t -> int
(** The [accept_ns] given at create ([0] when not recorded). *)

val peer : t -> string

val ip : t -> string
(** The peer address without the port — the per-IP accounting key. *)

val touch : t -> now:float -> unit
(** Record activity (a read, or write progress) for the idle-timeout
    sweep. *)

val last_active : t -> float

val framed : t -> bool
(** True once the connection has sniffed (or upgraded) into v4. *)

val http : t -> bool
(** A metrics-port connection (created with [~http:true]). *)

(** {2 Read side} *)

val on_readable : t -> emit:(incoming -> unit) -> read_status
(** One non-blocking [read] plus a parse of every complete message now
    buffered, emitted in arrival order. [Continue] covers both progress
    and a spurious wakeup ([EAGAIN]). *)

val finish_read : t -> emit:(incoming -> unit) -> unit
(** Call on EOF: flushes an unterminated trailing line (the blocking
    server honored those — [input_line] yields a final line without a
    newline) or HTTP head, and discards any partial frame. *)

val read_closed : t -> bool
val set_read_closed : t -> unit

(** {2 Line-mode FIFO} *)

val push_pending : t -> Protocol.request -> unit
val pop_pending : t -> Protocol.request option
val pending_count : t -> int

(** {2 Write side} *)

val send : t -> string -> unit
(** Append bytes to the output buffer (dropped once the connection is
    dead). Written to the socket by the next {!flush}. *)

val send_mark : t -> string -> int
(** Like {!send}, returning the connection's cumulative enqueued-bytes
    total after the append — compare against {!flushed_bytes} to learn
    when this response has fully drained to the socket. (If the send was
    dropped — dead or overflowed connection — the mark is the unchanged
    total, which may never be reached; check {!dead}/{!overflowed}.) *)

val flushed_bytes : t -> int
(** Cumulative bytes written to the socket since accept. *)

val flush : t -> [ `Flushed | `Partial | `Error ]
(** Write as much buffered output as the socket accepts. [`Error]
    covers both socket errors and an output buffer past its cap (a
    consumer that never reads). *)

val has_output : t -> bool

(** {2 Lifecycle} *)

val set_closing : t -> unit
(** Close once in-flight responses have been written; stop reading and
    drop the line requests still pending. *)

val closing : t -> bool

val kill : t -> unit
(** Poison: drop buffered and future output. The loop thread reaps the
    fd when it next services the connection. *)

val dead : t -> bool

val overflowed : t -> bool
(** A {!send} hit a write cap: the buffered output was shed and the
    owning loop must disconnect after one flush attempt. *)

val take_shed_bytes : t -> int
(** Bytes dropped by write-cap overflows since the last call (read-and-
    reset, so the caller can feed a monotonic counter). *)

(** {2 Pipeline accounting} *)

(** Requests dispatched from this connection whose response is not yet
    enqueued. *)
val incr_inflight : t -> unit
val decr_inflight : t -> unit
val inflight : t -> int
val pipeline_hwm : t -> int
(** High-water mark of requests simultaneously in flight on this
    connection. *)

val next_rid : t -> int
(** Sequence numbers for line-mode requests (v4 requests carry the
    client's id instead). *)
