(** The per-loop flight recorder: an always-on, fixed-size, lock-free
    binary ring of request-lifecycle events.

    One ring belongs to one event loop of the reactor fleet, and {b only
    that loop's thread writes it} — the fleet's no-sharing ownership
    model is what makes recording a handful of plain [Bytes] stores with
    one [Atomic] publish, no lock and no allocation. Any thread may
    {!snapshot} concurrently: readers validate each candidate record's
    sequence stamp after copying it and drop records the writer was
    overwriting mid-copy, so a snapshot is a consistent {e sample}, never
    a stall of the hot path (best-effort by design — this is a crash/slow
    forensics aid, not an audit log).

    Records are 48 bytes, fixed layout:

    {v
      offset  size  field
      0       8     seq      record sequence number (monotonic from 0)
      8       8     ts_ns    wall-clock nanoseconds
      16      2     code     event code (see the [code_*] constants)
      18      2     loop     owning event-loop id
      20      4     conn     connection id
      24      4     rid      request id (v4 client id / line seqno)
      28      4     (pad)
      32      8     a        per-code detail (see docs/TRACING.md)
      40      8     b        per-code detail
    v}

    Capacity is rounded up to a power of two; capacity 0 builds a
    disabled recorder whose {!record} is a single branch. *)

type t

(** [create ~capacity] — a ring holding the last [capacity] (rounded up
    to a power of two) events; [capacity <= 0] disables recording. *)
val create : capacity:int -> t

val enabled : t -> bool
val capacity : t -> int

(** Events ever recorded (= the sequence number the next record gets). *)
val seq : t -> int

(** Append one event. Owning-loop thread only; no-op when disabled.
    Every argument is an immediate [int], so recording allocates
    nothing. *)
val record :
  t ->
  ts_ns:int ->
  code:int ->
  loop:int ->
  conn:int ->
  rid:int ->
  a:int ->
  b:int ->
  unit

(** One decoded record. *)
type event = {
  ev_seq : int;
  ev_ts_ns : int64;
  ev_code : int;
  ev_loop : int;
  ev_conn : int;
  ev_rid : int;
  ev_a : int64;
  ev_b : int64;
}

(** The ring's current contents, oldest first. Safe from any thread;
    records the writer overwrote mid-read are dropped, not torn. *)
val snapshot : t -> event list

(** {1 Event codes}

    The request-lifecycle taxonomy (also the [stage] label vocabulary of
    the [strategem_stage_latency_us] histograms where a duration is
    meaningful). *)

(** [accept] — connection accepted; [a] = owning loop. *)
val code_accept : int

(** [close] — connection closed; [a] = 1 if killed. *)
val code_close : int

(** [shed] — request/conn shed with BUSY; [a] = 1 at accept. *)
val code_shed : int

(** [request] — request parsed; [ts] = parse time. *)
val code_request : int

(** [enqueue] — admitted to the queue; [ts] = enqueue time. *)
val code_enqueue : int

(** [worker] — picked up by a worker; [a]/[b] = WAL-fsync / page-read
    wait ns. *)
val code_worker : int

(** [respond] — response enqueued; [a] = 1 if error reply. *)
val code_respond : int

(** [flush] — response bytes drained; [a] = request total ns. *)
val code_flush : int

val code_name : int -> string

(** One event as a JSON object (a [{"seq":..,"ts_ns":..,"code":"..",..}]
    line fragment for the [FLIGHT] / [/debug/flight] reply). *)
val event_to_json : event -> string
