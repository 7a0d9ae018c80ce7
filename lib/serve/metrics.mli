(** Server observability: a thin facade over an {!Obs.Registry}, and the
    single place its metrics are registered. Every number the daemon
    reports lives in a registry instrument, so the same underlying
    counters feed the TCP [STATS]/[STATS JSON] renderers (byte-stable
    for existing clients — new fields are only ever additive) and the
    Prometheus [/metrics] endpoint ({!render_prometheus}). Metric names
    and labels are inventoried in [docs/OBSERVABILITY.md].

    The cache, subgoal-memo and paged-store statistics come
    from one table inside this module: a row per statistic names its
    [STATS] key, Prometheus family, help text, kind, place in the
    [STATS JSON] block and a reader over the layer's own record
    ({!Cache.Answers.counters}, {!Datalog.Sld.Memo.counters},
    {!Store.stats}). Registration, the collect-time mirror, the
    [cache_*]/[memo_*]/[store_*] [STATS] lines and the [cache]/[store]
    JSON blocks all walk it.

    All operations are thread-safe; hot-path updates are lock-sharded
    per time series (see {!Obs.Registry}). Per-form state is created on
    first use. Latencies go into fixed log-scale buckets — bucket [i]
    holds observations in [[2^i, 2^(i+1)) µs) — so percentile reads are
    O(buckets) and never allocate per observation. *)

type t

val create : unit -> t

(** The whole registry in Prometheus text exposition format 0.0.4 —
    the [GET /metrics] body. Runs the collect hooks (cache mirror,
    uptime, queue and pipeline levels, windowed high-water, learner
    gauges). *)
val render_prometheus : t -> string

(** Register a hook run before every [/metrics] render (see
    {!Obs.Registry.on_collect}). *)
val on_collect : t -> (unit -> unit) -> unit

(** {1 Events} *)

val connection : t -> unit

(** A connection or request shed with [BUSY] (connections at the
    [max_conns] cap, requests when their loop's FIFO is full). *)
val busy : t -> unit

val error : t -> unit
val snapshot_saved : t -> forms:int -> unit

(** [n] forms' learned strategies were reloaded from snapshots at
    startup. *)
val forms_loaded : t -> int -> unit

(** Record the depth of one event loop's request FIFO (observed after
    an append or a pop). Keeps three readings: the current-depth gauge
    (whichever loop observed last), an all-time high water
    ([queue_high_water], never resets), and a windowed high water
    ([queue_high_water_window]) that resets each time [STATS] or a
    [/metrics] scrape reads it. *)
val observe_queue_depth : t -> int -> unit

(** A request spent [wait_ns] in its loop's FIFO before the loop began
    executing it (recorded in µs). *)
val queue_waited : t -> wait_ns:int -> unit

(** A finalized request's end-to-end time reached the slow-query
    threshold ([strategem_slow_queries_total]). *)
val slow_query : t -> unit

(** {1 Reactor (protocol v4)} *)

(** The [strategem_conns_open] gauge: sockets the reactor currently
    holds open (also the additive [conns_open] STATS field). *)
val conn_opened : t -> unit

val conn_closed : t -> unit

(** The [strategem_pipeline_depth] gauge: requests parsed whose
    responses have not yet been enqueued, across all connections; an
    all-time high water is kept as
    [strategem_pipeline_depth_high_water]. *)
val set_pipeline_depth : t -> int -> unit

(** The reactor backend ("epoll" / "select"), surfaced in the STATS JSON
    [protocol] block. *)
val set_backend : t -> string -> unit

(** {1 Reactor fleet}

    One domain per event loop: each loop registers its handles at spawn
    and updates only its own [{loop="i"}] / [{domain="i"}] series, so
    the hot path never contends. Rendered as the additive [loops] STATS
    field and the [loops] block ([count] plus a [per_loop] array) in
    [STATS JSON]. *)

(** Record the fleet size: the [strategem_loops] and [strategem_domains]
    gauges and the [loops]/[domains] STATS fields (each loop is one
    domain). *)
val set_loops : t -> int -> unit

(** Per-loop hot-path handles: [strategem_loop_conns_open{loop}],
    [strategem_loop_wakeups_total{loop}],
    [strategem_loop_pipeline_depth{loop}],
    [strategem_domain_connections_total{domain}] and
    [strategem_domain_busy_us_total{domain}]. *)
type loop_handles

val loop_handles : t -> loop:int -> loop_handles
val loop_conn_opened : loop_handles -> unit
val loop_conn_closed : loop_handles -> unit

(** Mirror the loop's monotonic coalesced-wake count
    ({!Eventloop.wakeups}) into its counter series. *)
val set_loop_wakeups : loop_handles -> int -> unit

(** Requests in this loop's FIFO as an execution pass starts. *)
val set_loop_pipeline_depth : loop_handles -> int -> unit

(** One request executed by this loop, which spent [busy_ns] on it (FIFO
    wait excluded; counted in whole µs). The
    family name [strategem_domain_connections_total] predates
    per-request accounting; the name is frozen, the unit is a
    request. *)
val loop_served : loop_handles -> busy_ns:int -> unit

(** The lifecycle stages with a latency series, labeled [frame],
    [queue], [worker], [flush], [total], [wal_fsync] and [page_read]. *)
type stage = Frame | Queue | Worker | Flush | Total | Wal_fsync | Page_read

(** One stage of a finalized request's lifecycle, given in nanoseconds
    and recorded in microseconds:
    [strategem_stage_latency_us{stage, loop}]. [Wal_fsync] and
    [Page_read] are observed only when the store waited. Loop thread
    only (the per-stage handles are unlocked); allocation-free once the
    stage's series exists. *)
val observe_stage : loop_handles -> stage -> int -> unit

(** A request's lifecycle record was finalized
    ([strategem_lifecycle_requests_total]). *)
val lifecycle_finalized : t -> unit

(** A finalized request's trace was kept by tail-based retention
    ([strategem_traces_retained_total{reason}]); [seq] becomes the
    loop's exemplar gauge ([strategem_trace_retained_exemplar{loop}]).
    [reason] is one of [slow], [error], [shed]. *)
val trace_retained : t -> loop_handles -> reason:string -> seq:int -> unit

(** A connection breached a write-buffer cap: its buffered output
    ([shed_bytes]) was dropped, one [BUSY] took its place, and the loop
    disconnected it ([strategem_write_overflow_total],
    [strategem_write_shed_bytes_total]). *)
val write_overflow : t -> shed_bytes:int -> unit

(** A connection hit [--idle-timeout-s] ([strategem_idle_closed_total]). *)
val idle_closed : t -> unit

(** An accept was refused by [--max-conns-per-ip]
    ([strategem_ip_limited_total]). *)
val ip_limited : t -> unit

(** {1 Per-form series} *)

(** One query form's handles: its query/answer/climb counters, latency
    histogram, learner gauges and strategy string. *)
type form

(** The handles of the form with this key, created on first use (cold
    path: takes the metrics lock — callers keep the handle). A new
    form's epsilon gauge starts at [+inf]. *)
val form : t -> string -> form

(** One answered query: latency, whether an answer was found, and whether
    it triggered a strategy climb. Lock- and allocation-free. *)
val query :
  form -> latency_ns:int -> answered:bool -> switched:bool -> unit

(** The form's current strategy, pre-rendered (shown by [STATS]). *)
val set_strategy : form -> string -> unit

(** Set the form's [strategem_learner_*] convergence gauges from a
    {!Core.Learner.progress} reading (fields passed positionally so this
    module stays core-agnostic). The registry calls it from an
    {!on_collect} hook, so the gauges are read off the learner at scrape
    time. *)
val learner_progress :
  form ->
  samples:int ->
  samples_total:int ->
  climbs:int ->
  epsilon:float ->
  delta:float ->
  finished:bool ->
  unit

(** {1 Cache and paged store}

    Each layer keeps its own thread-safe counters; the renderers pull a
    reading through the installed provider (called outside the metrics
    lock), so metrics never double-count. With no provider the layer's
    [STATS] lines and [STATS JSON] block are absent and its
    [strategem_*] series read 0; a provider that returns [None] (the
    layer is off) reports every statistic as 0 with [enabled] false. *)

(** One reading of the serving caches. *)
type cache_reading = {
  answers : Cache.Answers.counters;
  memo : Datalog.Sld.Memo.counters;
}

val set_cache_provider : t -> (unit -> cache_reading option) -> unit

(** Typically [Database.store_stats] partially applied; installed only
    when the daemon serves from a paged database ([--data-dir]). *)
val set_store_provider : t -> (unit -> Store.stats option) -> unit

(** {1 Reads} *)

val queries_total : t -> int
val climbs_total : t -> int
val busy_total : t -> int
val queue_high_water : t -> int

(** [STATS] body: one [key value] line per counter, then one [form ...]
    line per query form (sorted by form key). Deterministic field order. *)
val render_text : t -> string list

(** The same data as a single JSON object (one line). [recent_traces]
    (rendered {!Trace.to_json} objects, oldest first) is appended as the
    [recent_traces] array when given — the daemon passes it when
    [--trace-sample] is on. *)
val render_json : ?recent_traces:string list -> t -> string
