(** Server observability, and the single place its metrics are named.
    The same reading of each statistic feeds the TCP [STATS]/[STATS
    JSON] renderers (byte-stable for existing clients — new fields are
    only ever additive) and the Prometheus [/metrics] endpoint
    ({!render_prometheus}). Metric names and labels are inventoried in
    [docs/OBSERVABILITY.md].

    Every scalar statistic is one row of a table inside this module: a
    row names its [STATS] key, Prometheus family, help text, kind, place
    in the [STATS JSON] object and a reader. The [STATS] lines, the
    JSON object and the [/metrics] families are all built by walking the
    rows at render time, so each statistic is stored once, by its owner;
    a form's
    [STATS] line, its [forms] JSON object and its [{form}] series share
    one field list, as do a loop's [per_loop] JSON entry and its
    [{loop}] series. Each reader reads the statistic's one owner:
    - event counts, queue levels and per-form query counts: this
      module;
    - cache, memo and store statistics: the layer's own record
      ({!Cache.Answers.counters}, {!Datalog.Sld.Memo.counters},
      {!Store.stats}), through the installed providers;
    - open connections ([conns_open], [strategem_conns_open],
      [strategem_loop_conns_open]): the server's per-loop count, which
      counts a connection from accept (a queued handoff included) until
      its close;
    - the pipeline depth: the server's in-flight count;
    - wake deliveries: {!Eventloop.wakeups};
    - a form's strategy and learner gauges: its learner, read when
      [STATS] or [/metrics] renders;
    - [traces_retained_total]: the sum of
      [strategem_traces_retained_total{reason}].

    All operations are thread-safe; hot-path updates are single atomic
    operations, or the histogram's own mutex ({!Obs.Histogram}).
    Per-form state, its latency histogram included, is created on first
    use. Latencies go into fixed log-scale buckets — bucket [i] holds
    observations in [[2^i, 2^(i+1)) µs) — so percentile reads are
    O(buckets) and never allocate per observation. *)

type t

(** [pipeline_depth] reads the requests in flight across the fleet
    (default: always 0). *)
val create : ?pipeline_depth:(unit -> int) -> unit -> t

(** Every family in Prometheus text exposition format 0.0.4 — the
    [GET /metrics] body — built from the rows and histograms at render
    time (which also resets the windowed high water). *)
val render_prometheus : t -> string

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

(** A request was dispatched and [d] requests are now in flight: keeps
    the all-time high water, [strategem_pipeline_depth_high_water]. The
    current depth ([strategem_pipeline_depth]) is read through
    [create]'s [pipeline_depth]. *)
val set_pipeline_depth : t -> int -> unit

(** The reactor backend ("epoll" / "select"), surfaced in the STATS JSON
    [protocol] block. *)
val set_backend : t -> string -> unit

(** {1 Reactor fleet}

    One domain per event loop: each loop registers its handles at spawn
    and updates only its own counts, read as its [{loop="i"}] /
    [{domain="i"}] series, so the hot path never contends. Rendered as the additive [loops] STATS
    field and the [loops] block ([count] plus a [per_loop] array) in
    [STATS JSON]. *)

(** Record the fleet size, one value read by the [strategem_loops] and
    [strategem_domains] gauges and the [loops]/[domains] STATS fields
    (each loop is one domain). *)
val set_loops : t -> int -> unit

(** Per-loop handles: [strategem_loop_conns_open{loop}],
    [strategem_loop_wakeups_total{loop}],
    [strategem_loop_pipeline_depth{loop}],
    [strategem_trace_retained_exemplar{loop}],
    [strategem_domain_connections_total{domain}] and
    [strategem_domain_busy_us_total{domain}]. *)
type loop_handles

(** [conns] reads the connections the loop owns and [wakeups] its
    monotonic coalesced-wake count ({!Eventloop.wakeups}); both are
    read when a statistic renders (default: always 0). *)
val loop_handles :
  ?conns:(unit -> int) ->
  ?wakeups:(unit -> int) ->
  t ->
  loop:int ->
  loop_handles

(** Requests in this loop's FIFO as an execution pass starts. *)
val set_loop_pipeline_depth : loop_handles -> int -> unit

(** One request executed by this loop, which spent [busy_ns] on it (FIFO
    wait excluded; counted in whole µs, a negative duration as 0). The
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
    [Page_read] are observed only when the store waited; a stage never
    observed on a loop exports no series. Allocation-free. *)
val observe_stage : loop_handles -> stage -> int -> unit

(** A request's lifecycle record was finalized
    ([strategem_lifecycle_requests_total]). *)
val lifecycle_finalized : t -> unit

(** A finalized request's trace was kept by tail-based retention
    ([strategem_traces_retained_total{reason}]); [seq] becomes the
    loop's exemplar gauge ([strategem_trace_retained_exemplar{loop}]).
    [reason] is one of [slow], [error], [shed]; any other raises
    [Not_found]. *)
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
    histogram, and the readers of its learner. *)
type form

(** The handles of the form with this key, created on first use (cold
    path: takes the metrics lock — callers keep the handle). A later
    call with the same key returns the first handle and keeps its
    readers. Both readers are called without the metrics lock held:
    [strategy] renders the form's current strategy for [STATS] (default:
    [""]); [progress] feeds the [strategem_learner_*] gauges on every
    [/metrics] render (default: no evidence, epsilon [+inf]). *)
val form :
  ?strategy:(unit -> string) ->
  ?progress:(unit -> Core.Learner.progress) ->
  t ->
  string ->
  form

(** One answered query: latency, whether an answer was found, and whether
    it triggered a strategy climb. Lock- and allocation-free. *)
val query :
  form -> latency_ns:int -> answered:bool -> switched:bool -> unit

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
