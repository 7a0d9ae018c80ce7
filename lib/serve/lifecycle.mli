(** One request's lifecycle record: the timestamps and waits a request
    accumulates on its way through its event loop —
    accept → frame (parse) → queue (the loop's FIFO) → worker
    (execution) → respond → flush — plus the store waits (WAL fsync,
    buffer-pool page faults) attributed to it while it executed. The
    stage names predate run-to-completion serving and are kept for the
    metric and flight-code vocabulary.

    A record is allocated by the owning event loop when the request is
    parsed, carried inside the job through the loop's FIFO, stamped when
    the loop starts executing it, and finalized once the response bytes
    have drained to the socket. Every phase runs on the owning loop's
    thread, so nothing here is locked. When lifecycle telemetry is off
    ([--no-lifecycle]) no record exists and every touch point is one
    [Option] test.

    The loop reads the clock once per stage boundary and shares a stamp
    wherever boundaries coincide: [frame] is the stamp of the read that
    parsed the request (shared by every request that read parsed);
    [queue] is the stamp of the execution pass that runs it (shared by
    the pass); [worker] is the previous request's [respond] stamp, or the
    pass's stamp for the pass's first request; [respond] is read when
    its execution ends; [flush] is the stamp of the finalize pass that
    saw its bytes drained (shared by that pass). The frame stage is
    therefore read-to-pass, the queue stage the wait behind the pass's
    earlier requests.

    The ambient {!current} pointer (for store-wait attribution from
    layers that cannot see the request) is domain-local, and each loop
    domain executes one request at a time, so a wait is always charged
    to the request that paid it. *)

(** The engine that answered: the answer cache, the learned strategy's
    execution, or SLD (fallback forms only). *)
type backend = B_none | B_cache | B_exec | B_sld

type t = {
  lc_conn : int;            (** connection id *)
  lc_rid : int;             (** request id (v4 client id / line seqno) *)
  lc_loop : int;            (** owning event loop *)
  lc_framed : bool;         (** v4 frame (vs line dialect) *)
  lc_req : Protocol.request;
      (** the request; its label (verb word, plus the atom for queries)
          is rendered only on export *)
  lc_accept_ns : int;       (** the connection's accept time *)
  lc_frame_ns : int;        (** the read that parsed the request *)
  mutable lc_queue_ns : int;      (** its execution pass began (0 = never) *)
  mutable lc_worker_ns : int;     (** execution started (0 = never) *)
  mutable lc_respond_ns : int;    (** execution ended (0 = never) *)
  mutable lc_flush_ns : int;      (** response drained (0 = never) *)
  mutable lc_backend : backend;
  mutable lc_shed : bool;         (** answered BUSY: its FIFO was full *)
  mutable lc_error : bool;        (** error reply, or the conn died *)
  mutable lc_wal_wait_ns : int;   (** WAL-fsync wait while executing *)
  mutable lc_wal_syncs : int;
  mutable lc_page_wait_ns : int;  (** page-fault read wait *)
  mutable lc_page_reads : int;
  mutable lc_exec : Trace.span option;
      (** the armed tracer's span tree, when this request was traced *)
}

(** Wall-clock nanoseconds (the clock of {!Trace} spans), as an
    immediate [int]: one read per stage boundary, never boxed. *)
val now_ns : unit -> int

val create :
  conn:int ->
  rid:int ->
  loop:int ->
  framed:bool ->
  req:Protocol.request ->
  accept_ns:int ->
  frame_ns:int ->
  t

(** {1 Ambient record (store-wait attribution)} *)

(** Set by the loop for the duration of one request's execution; read
    by the {!Store.Hooks} observer on the same domain. *)
val set_current : t option -> unit

val current : unit -> t option

val add_wal_wait : t -> int -> unit
val add_page_wait : t -> int -> unit

(** {1 Reads} *)

(** Whole-request nanoseconds: parse to flush (or to the last stamped
    timestamp for requests that never flushed). *)
val total_ns : t -> int

val backend_name : backend -> string

(** The backend that produced an answer. *)
val backend_of : Core.Live.answer -> backend

(** {1 Finalize} *)

(** Replay the record's stamps into the loop's flight ring (request,
    enqueue, worker, respond or shed, flush events) and observe its
    stage latencies ([frame], [queue], [worker], [flush], [total], plus
    [wal_fsync]/[page_read] when the store waited). Owning loop thread
    only; allocates nothing once each stage's series exists. *)
val finalize : t -> flight:Obs.Flight.t -> Metrics.loop_handles -> unit

(** {1 Span-tree export}

    The lifecycle skeleton as a {!Trace} span tree, every span carrying
    the owning loop id as its [loop] attribute:

    {v
      <label> [request]
      ├── accept  (instant: the connection's accept time)
      ├── frame   (parse → enqueue)
      ├── queue   (FIFO append → execution start)
      ├── worker  (execution start → response enqueued)
      │   ├── cache | exec | sld   (the backend that answered)
      │   │   ├── wal_fsync      (when the store waited)
      │   │   └── page_read
      │   └── <armed exec tree>  (when the request was traced)
      └── flush   (response enqueued → bytes drained)
    v}

    Stages never reached (a shed request has no queue/worker) are
    omitted. *)
val to_span : t -> Trace.span
