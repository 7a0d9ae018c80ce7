(** The `strategem serve` daemon: a sharded reactor fleet — one
    {!Eventloop} (epoll on Linux, [select] elsewhere) per domain — that
    owns every socket and runs every request to completion on the loop
    that parsed it. Each loop answers queries through the {!Registry} of
    per-form {!Core.Live} learners on its own thread and writes the
    encoded responses with batched, non-blocking writes; no request ever
    crosses to another domain.

    A dedicated acceptor (the main thread) distributes new connections
    across the fleet by power-of-two-choices on open connections, then
    requests in flight. Each loop owns its epoll instance, wake channel,
    connection table and request FIFO outright — no [Conn.t] is ever
    shared between loops — so parsing, execution and flushing all scale
    across cores. Per-loop [{loop="i"}] conns/wakeups/pipeline-depth
    series and the additive [loops] STATS-JSON block expose the fleet's
    balance.

    A loop appends the requests it parses during one poll to its FIFO
    and then executes the FIFO oldest-first. The FIFO holds at most
    [ceil (queue_depth / loops)] requests: a request parsed while it is
    full is answered [BUSY] on the spot — a v4 client sees a [Busy]
    frame carrying the request's id and keeps its connection; a line
    client keeps the v1..v3 contract of [BUSY] then close. A line
    connection with that many requests pending stops being read until
    its backlog drains, so a client that never reads its replies is
    pushed back by TCP rather than buffered without limit. A connection
    arriving past the [max_conns] cap is shed with [BUSY] and closed at
    accept.

    Connections speak either dialect of {!Protocol} on the same port,
    told apart by sniffing the first byte: {!Frame.magic} (0x84) selects
    the framed v4 protocol — length-prefixed frames with client-chosen
    request ids, so one connection can pipeline many requests — while
    printable ASCII selects the v2/v3 line protocol, served
    request-at-a-time in arrival order exactly as before (a line client
    can also upgrade mid-stream with [HELLO V4]).

    Loops are OCaml 5 domains, so the SLD + exec + learn hot path runs
    on real cores in parallel. The loop count is exported as the
    [strategem_domains] gauge and the additive [domains] STATS field;
    each loop also exports served-request and busy-time counters
    labelled [{domain="i"}]. Learning stays sequentially consistent per
    query form — every form's learner is driven under its per-entry
    mutex — so multicore serving does not change what is learned (see
    the 1-vs-4-loop conformance test).

    Graceful shutdown (the [SHUTDOWN] command, or SIGINT/SIGTERM when
    [handle_signals]): the listener closes, parsed requests are still
    served and their responses flushed, the loops drain and join, and —
    when a state directory is configured — a final snapshot is written,
    so nothing learned is lost. *)

type config = {
  host : string;            (** bind address (default ["127.0.0.1"]) *)
  port : int;               (** [0] picks an ephemeral port *)
  queue_depth : int;
      (** request bound across the fleet (≥ 1): each loop's FIFO holds
          at most [ceil (queue_depth / loops)] parsed requests *)
  max_conns : int;          (** open-connection cap (≥ 1); connections
                                past it are shed with [BUSY] at accept *)
  state_dir : string option;      (** snapshot directory *)
  snapshot_interval : float;      (** seconds; [0.] = periodic off *)
  learner : Core.Learner.kind;    (** per-form learner ([--learner]) *)
  learner_config : Core.Learner.config;
  trace_sample : int;
      (** trace every query and keep the last [N] traced queries per loop
          in its retained buffer; [STATS JSON] lists the newest [N]
          across loops ([recent_traces]), rendered when read. [0] =
          sampling off. Tracing a query costs span allocations, so the
          default is off; [TRACE] always traces its own query
          regardless. A sampled query is never listed by [FLIGHT] unless
          retention kept it for its own reason. Needs [lifecycle]. *)
  cache_mb : int;
      (** answer-cache budget in MiB ([--cache-mb]); [0] ([--no-cache])
          disables both the answer cache and subgoal memoization. Only
          exact alpha-variant repeats hit; a hit still runs the form's
          current strategy so its learner observes every query, and
          learning is unaffected. *)
  metrics_port : int option;
      (** serve [GET /metrics] (Prometheus text 0.0.4), [GET /healthz]
          ([200 ready] / [503 draining]) and [GET /debug/flight] on this
          port ([--metrics-port]; [0] picks an ephemeral port, read back
          via [on_metrics_listen]); [None] = no metrics port. Every event
          loop polls the listener and answers one request per
          connection, so no thread is started. *)
  log_level : Obs.Log.level option;
      (** JSONL structured-log threshold ([--log-level]); [None] turns
          structured logging off entirely. *)
  log_file : string option;
      (** structured-log destination ([--log-file]); [None] = stderr. *)
  slow_query_us : float;
      (** requests whose end-to-end time, judged once at finalize,
          reaches this threshold are counted
          ([strategem_slow_queries_total]), retained with reason [slow]
          and logged in one [warn] record — rate limited to one record
          per second ([--slow-query-ms]); [0.] = off. A slow request
          retained without a query trace arms its loop, whose next query
          runs traced, so under consistently slow traffic the records
          carry an exec tree without speculative tracing of every query
          (see E21). Needs [lifecycle]. *)
  loops : int;
      (** event loops in the reactor fleet ([--loops], also spelled
          [--workers]); [0] (the default) means
          [min 4 (Domain.recommended_domain_count ())] (see
          {!loop_count}). Each loop is its own domain with a private
          epoll instance and wake channel, and executes every request it
          parses. *)
  max_write_buf : int;
      (** per-connection write-buffer cap in bytes
          ([--max-write-buf-mb]); a {!Conn.send} that would buffer past
          it sheds the connection's output, answers one [BUSY], and
          disconnects. [0] = uncapped; default 64 MiB. *)
  max_write_total : int;
      (** global cap on the sum of all buffered response bytes
          ([--max-write-total-mb]); breaching it sheds the offending
          connection the same way. [0] (the default) = uncapped. *)
  idle_timeout_s : float;
      (** close connections with no traffic for this long
          ([--idle-timeout-s]); swept at most once per second per loop,
          off the poll deadline. In-flight requests hold a connection
          open. [0.] (the default) = off, at zero per-request cost. *)
  max_conns_per_ip : int;
      (** accept-time cap on open connections per peer IP
          ([--max-conns-per-ip]); connections past it are shed with
          [BUSY] and counted in [strategem_ip_limited_total]. [0] (the
          default) = off. *)
  lifecycle : bool;
      (** per-request lifecycle tracking (default [true];
          [--no-lifecycle] turns it off): every dispatched request gets
          a {!Lifecycle} record stamped through
          parse → queue → worker → respond → flush, with WAL-fsync and
          page-fault waits attributed while its loop executes it. Finalized
          records feed [strategem_stage_latency_us{stage, loop}], the
          flight recorder, and retention (the full span tree is kept
          only for slow / error / shed requests, in a bounded per-loop
          buffer served by [FLIGHT] / [/debug/flight], and for sampled
          queries). Off, there is no capture path at all: nothing is
          retained or sampled and no slow record is written. *)
  flight_capacity : int;
      (** per-loop flight-recorder ring capacity in events
          ([--flight-capacity], rounded up to a power of two; default
          4096 ≈ 192 KiB per loop; [0] disables the ring). Always-on
          and lock-free: the owning loop writes, anyone snapshots. *)
  retain : int;
      (** tail-retained trace buffer size per loop ([--retain]; default
          64; [0] keeps no tree, the warn records are still written). *)
}

(** 127.0.0.1:4280, [min 4 cores] loops, queue depth 64, max 10_000
    connections, no per-IP cap, 64 MiB per-conn write cap (global cap
    and idle timeout off), no state dir, periodic snapshots off, PIB
    with {!Core.Learner.default_config}, trace sampling off, 64 MiB
    answer cache, no metrics responder, structured logging and the
    slow-query log off. Lifecycle tracking on, a 4096-event flight ring
    and a 64-trace retention buffer per loop. *)
val default_config : config

(** The fleet size a config asks for: [loops] when positive, else
    [min 4 (Domain.recommended_domain_count ())]. *)
val loop_count : config -> int

(** [run ?handle_signals ?on_listen ?on_metrics_listen config ~rulebase
    ~db] — bind, serve, and block until shutdown. [on_listen] receives
    the actual bound port (useful with [port = 0]) once the server is
    accepting; [on_metrics_listen] likewise receives the metrics
    responder's bound port when [metrics_port] is set.
    [handle_signals] (default [false]) installs SIGINT/SIGTERM handlers
    that trigger the same graceful shutdown as [SHUTDOWN].

    Raises [Invalid_argument] on a nonsensical config and lets
    [Unix.Unix_error] from [bind]/[listen] escape. *)
val run :
  ?handle_signals:bool ->
  ?on_listen:(int -> unit) ->
  ?on_metrics_listen:(int -> unit) ->
  config ->
  rulebase:Datalog.Rulebase.t ->
  db:Datalog.Database.t ->
  unit
