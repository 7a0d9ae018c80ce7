(* The STATS facade: every counter the daemon reports lives in an
   Obs.Registry instrument, so the same underlying numbers feed both
   the TCP STATS/STATS JSON renderers (byte-stable for existing
   clients) and the Prometheus /metrics endpoint. This module is the
   single registration site of the metric-name inventory (everything is
   prefixed [strategem_]; see docs/OBSERVABILITY.md) plus the few
   STATS-only bits a scraper has no use for: per-form strategy strings
   and, passed in by the server, the sampled query traces. *)

module R = Obs.Registry

type cache_reading = {
  answers : Cache.Answers.counters;
  memo : Datalog.Sld.Memo.counters;
}

(* The cache, subgoal-memo and paged-store statistics, one row each. A
   row names its STATS key, its Prometheus family, help text
   and kind, its place in the STATS JSON block (["key"], ["sub.key"]
   inside a sub-object, or [""] for none) and a reader over the layer's
   own record. Registration, the collect-time mirror, the STATS lines
   and the JSON blocks all walk the rows; their order is the frozen
   STATS and JSON field order. A block whose reading is [None] (its
   layer is off) reads 0 everywhere. *)
type kind =
  | Counter
  | Gauge
  | Flag  (* a 0/1 gauge, rendered [true]/[false] in JSON *)

type 'r stat = {
  kind : kind;
  key : string;
  name : string;
  json : string;
  help : string;
  read : 'r -> float;
}

let stat kind key name json help read = { kind; key; name; json; help; read }

let cache_stats : cache_reading stat list =
  let answers f c = float_of_int (f c.answers) in
  let memo f c = float_of_int (f c.memo) in
  let zero _ = 0.0 in
  [
    stat Flag "cache_enabled" "strategem_cache_enabled" "enabled"
      "1 when the answer cache is on" (fun _ -> 1.0);
    stat Counter "cache_hits" "strategem_cache_hits_total" "hits"
      "Answer-cache hits" (answers (fun a -> a.hits));
    stat Counter "cache_misses" "strategem_cache_misses_total" "misses"
      "Answer-cache misses" (answers (fun a -> a.misses));
    stat Counter "cache_evictions" "strategem_cache_evictions_total"
      "evictions" "Answer-cache LRU evictions" (answers (fun a -> a.evictions));
    stat Counter "cache_invalidations" "strategem_cache_invalidations_total"
      "invalidations" "Answer-cache entries dropped after DB mutations"
      (answers (fun a -> a.invalidations));
    stat Gauge "cache_entries" "strategem_cache_entries" "entries"
      "Answer-cache resident entries" (answers (fun a -> a.entries));
    stat Gauge "cache_bytes" "strategem_cache_bytes" "bytes"
      "Answer-cache resident bytes (estimated)" (answers (fun a -> a.bytes));
    stat Gauge "cache_capacity_bytes" "strategem_cache_capacity_bytes"
      "capacity_bytes" "Answer-cache capacity in bytes"
      (answers (fun a -> a.capacity_bytes));
    stat Counter "memo_hits" "strategem_memo_hits_total" "memo.hits"
      "Subgoal-memo hits" (memo (fun m -> m.hits));
    stat Counter "memo_misses" "strategem_memo_misses_total" "memo.misses"
      "Subgoal-memo misses" (memo (fun m -> m.misses));
    stat Counter "memo_invalidations" "strategem_memo_invalidations_total"
      "memo.invalidations" "Subgoal-memo invalidations"
      (memo (fun m -> m.invalidations));
    stat Gauge "memo_entries" "strategem_memo_entries" "memo.entries"
      "Subgoal-memo resident entries" (memo (fun m -> m.entries));
    (* Subsumption-based answer reuse was removed; its schema-1 keys and
       series stay and always read 0. *)
    stat Flag "cache_subsume_enabled" "strategem_cache_subsume_enabled"
      "subsume.enabled" "Always 0: subsumption-based answer reuse was removed"
      zero;
    stat Counter "cache_derived_hits" "strategem_cache_derived_hits_total"
      "subsume.derived_hits"
      "Always 0: subsumption-based answer reuse was removed" zero;
    stat Counter "cache_derived_scan_entries"
      "strategem_cache_derived_scan_entries_total"
      "subsume.derived_scan_entries"
      "Always 0: subsumption-based answer reuse was removed" zero;
    stat Counter "cache_subsume_misses" "strategem_cache_subsume_misses_total"
      "subsume.subsume_misses"
      "Always 0: subsumption-based answer reuse was removed" zero;
    stat Gauge "cache_index_keys" "strategem_cache_index_keys"
      "subsume.index_keys"
      "Always 0: subsumption-based answer reuse was removed" zero;
  ]

(* Additive, like the cache block: rendered only when serving from a
   paged store. *)
let store_stats : Store.stats stat list =
  let store f (s : Store.stats) = float_of_int (f s) in
  [
    stat Flag "store_enabled" "strategem_store_enabled" ""
      "1 when the database is backed by the paged store" (fun _ -> 1.0);
    stat Gauge "store_page_size_bytes" "strategem_store_page_size_bytes"
      "page_size_bytes" "Paged-store page size" (store (fun s -> s.page_size));
    stat Gauge "store_pages" "strategem_store_pages" "pages"
      "Pages allocated (checkpoint image plus growth)"
      (store (fun s -> s.pages));
    stat Gauge "store_pool_pages" "strategem_store_pool_pages" "pool_pages"
      "Buffer-pool frames" (store (fun s -> s.pool_pages));
    stat Counter "store_pool_hits" "strategem_store_pool_hits_total"
      "pool_hits" "Buffer-pool hits" (store (fun s -> s.pool_hits));
    stat Counter "store_pool_misses" "strategem_store_pool_misses_total"
      "pool_misses" "Buffer-pool misses" (store (fun s -> s.pool_misses));
    stat Counter "store_pool_evictions" "strategem_store_pool_evictions_total"
      "pool_evictions" "Buffer-pool evictions"
      (store (fun s -> s.pool_evictions));
    stat Counter "store_page_reads" "strategem_store_page_reads_total"
      "page_reads" "Pages read from disk" (store (fun s -> s.page_reads));
    stat Counter "store_page_writes" "strategem_store_page_writes_total"
      "page_writes" "Dirty pages spilled to disk"
      (store (fun s -> s.page_writes));
    stat Gauge "store_wal_bytes" "strategem_store_wal_bytes" "wal_bytes"
      "WAL bytes since the last checkpoint" (store (fun s -> s.wal_bytes));
    stat Counter "store_wal_appends" "strategem_store_wal_appends_total"
      "wal_appends" "WAL records appended" (store (fun s -> s.wal_appends));
    stat Counter "store_wal_syncs" "strategem_store_wal_syncs_total"
      "wal_syncs" "WAL group-commit fsyncs" (store (fun s -> s.wal_syncs));
    stat Counter "store_checkpoints" "strategem_store_checkpoints_total"
      "checkpoints" "Checkpoints taken this run"
      (store (fun s -> s.checkpoints));
    (* A float gauge in Prometheus, whole seconds in STATS and JSON. *)
    stat Gauge "store_checkpoint_age_seconds"
      "strategem_store_checkpoint_age_seconds" "checkpoint_age_seconds"
      "Seconds since the last checkpoint (or open)" (fun (s : Store.stats) ->
        Float.max 0.0 (Unix.gettimeofday () -. s.checkpoint_unix));
    stat Gauge "store_facts" "strategem_store_facts" "facts"
      "Facts in the paged store" (store (fun s -> s.facts));
    stat Gauge "store_symbols" "strategem_store_symbols" "symbols"
      "Symbols in the persistent catalog" (store (fun s -> s.symbols));
    stat Gauge "store_generation" "strategem_store_generation" "generation"
      "Persistent database generation" (store (fun s -> s.generation));
  ]

let value s = function None -> 0.0 | Some r -> s.read r

(* One instrument per row; returns the collect-time mirror. *)
let register reg stats =
  let setters =
    List.map
      (fun s ->
        match s.kind with
        | Counter ->
          let c = R.Counter.solo (R.Counter.v reg ~help:s.help s.name) in
          fun v -> R.Counter.set c (int_of_float v)
        | Gauge | Flag ->
          R.Gauge.set (R.Gauge.solo (R.Gauge.v reg ~help:s.help s.name)))
      stats
  in
  fun r -> List.iter2 (fun s set -> set (value s r)) stats setters

let stat_lines stats r =
  List.map
    (fun s -> Printf.sprintf "%s %d" s.key (int_of_float (value s r)))
    stats

(* Both blocks are additive under schema 1 and carry their own version,
   so their fields can evolve without a top-level bump. *)
let block_version = 1

let json_block buf name stats r =
  Printf.bprintf buf "\"%s\":{\"version\":%d" name block_version;
  let last =
    List.fold_left
      (fun cur s ->
        if s.json = "" then cur
        else begin
          let sub, key =
            match String.index_opt s.json '.' with
            | None -> ("", s.json)
            | Some i ->
              ( String.sub s.json 0 i,
                String.sub s.json (i + 1) (String.length s.json - i - 1) )
          in
          if sub <> cur && cur <> "" then Buffer.add_char buf '}';
          Buffer.add_char buf ',';
          if sub <> cur && sub <> "" then Printf.bprintf buf "\"%s\":{" sub;
          let v = value s r in
          (match s.kind with
          | Flag -> Printf.bprintf buf "\"%s\":%b" key (v <> 0.0)
          | Counter | Gauge ->
            Printf.bprintf buf "\"%s\":%d" key (int_of_float v));
          sub
        end)
      "" stats
  in
  if last <> "" then Buffer.add_char buf '}';
  Buffer.add_string buf "},"

type stage = Frame | Queue | Worker | Flush | Total | Wal_fsync | Page_read

let n_stages = 7

let stage_index = function
  | Frame -> 0
  | Queue -> 1
  | Worker -> 2
  | Flush -> 3
  | Total -> 4
  | Wal_fsync -> 5
  | Page_read -> 6

let stage_name = function
  | Frame -> "frame"
  | Queue -> "queue"
  | Worker -> "worker"
  | Flush -> "flush"
  | Total -> "total"
  | Wal_fsync -> "wal_fsync"
  | Page_read -> "page_read"

(* Per-loop hot-path handles, obtained once by each event loop of the
   reactor fleet at spawn — the loop updates only its own (uncontended)
   series. Levels the loop sets per request are plain ints, mirrored
   into their gauges at collect time so no update boxes a float. *)
type loop_handles = {
  loop_id : int;
  lg_conns : R.Gauge.t;
  lc_wakeups : R.Counter.t;
  lg_pipeline : R.Gauge.t;
  lh_pipeline : int Atomic.t;
  (* the loop's {domain} series: requests it executed, and for how long *)
  lc_served : R.Counter.t;
  lc_busy_us : R.Counter.t;
  (* the {stage, loop} latency histogram children, indexed by
     [stage_index]; each is created on its stage's first observation
     (so a stage never seen exports no series), loop thread only *)
  lh_stage_fam : R.Histogram.fam;
  lh_stages : R.Histogram.t option array;
  lg_exemplar : R.Gauge.t;
}

type form = {
  c_queries : R.Counter.t;
  c_answered : R.Counter.t;
  c_climbs : R.Counter.t;
  h_latency : R.Histogram.t;
  g_eps : R.Gauge.t;
  g_delta : R.Gauge.t;
  g_samples : R.Gauge.t;
  g_samples_total : R.Gauge.t;
  g_learner_climbs : R.Gauge.t;
  g_finished : R.Gauge.t;
  strategy : string Atomic.t;
}

type t = {
  reg : R.t;
  started : float;
  lock : Mutex.t;  (* guards [forms] creation and the providers *)
  forms : (string, form) Hashtbl.t;
  mutable cache_provider : (unit -> cache_reading option) option;
  mutable store_provider : (unit -> Store.stats option) option;
  mirror_cache : cache_reading option -> unit;
  mirror_store : Store.stats option -> unit;
  (* Queue and pipeline levels, set per request as ints and mirrored
     into their gauges at collect time. The window high water is
     consumed (reset) by whichever of STATS or a /metrics scrape reads
     it first — "max depth since the last read"; the all-time high
     waters never reset. *)
  queue_depth : int Atomic.t;
  queue_hwm : int Atomic.t;
  window_hwm : int Atomic.t;
  pipeline_depth : int Atomic.t;
  pipeline_hwm : int Atomic.t;
  g_domains : R.Gauge.t;
  f_domain_conns : R.Counter.fam;
  f_domain_busy_us : R.Counter.fam;
  c_connections : R.Counter.t;
  c_busy : R.Counter.t;
  c_errors : R.Counter.t;
  c_snapshots : R.Counter.t;
  c_snapshot_forms : R.Counter.t;
  c_forms_loaded : R.Counter.t;
  g_uptime : R.Gauge.t;
  g_forms_active : R.Gauge.t;
  g_queue_depth : R.Gauge.t;
  g_queue_hwm : R.Gauge.t;
  g_queue_hwm_window : R.Gauge.t;
  g_conns_open : R.Gauge.t;
  g_pipeline_depth : R.Gauge.t;
  g_pipeline_hwm : R.Gauge.t;
  g_loops : R.Gauge.t;
  f_loop_conns : R.Gauge.fam;
  f_loop_wakeups : R.Counter.fam;
  f_loop_pipeline : R.Gauge.fam;
  f_stage_latency : R.Histogram.fam;
  f_retained : R.Counter.fam;
  (* the reason set is closed (slow / error / shed): pre-labeled handles
     so the per-retention hot path skips the family mutex + hash *)
  retained_by : (string * R.Counter.t) list;
  f_retained_exemplar : R.Gauge.fam;
  c_lifecycle : R.Counter.t;
  retained_count : int Atomic.t;  (* sum over reasons, for STATS *)
  mutable loop_list : loop_handles list;  (* guarded by [lock] *)
  c_write_overflow : R.Counter.t;
  c_write_shed_bytes : R.Counter.t;
  c_idle_closed : R.Counter.t;
  c_ip_limited : R.Counter.t;
  c_slow : R.Counter.t;
  mutable backend : string;  (* reactor backend: "epoll" / "select" *)
  h_queue_wait : R.Histogram.t;
  f_queries : R.Counter.fam;
  f_answered : R.Counter.fam;
  f_climbs : R.Counter.fam;
  f_latency : R.Histogram.fam;
  f_learner_eps : R.Gauge.fam;
  f_learner_delta : R.Gauge.fam;
  f_learner_samples : R.Gauge.fam;
  f_learner_samples_total : R.Gauge.fam;
  f_learner_climbs : R.Gauge.fam;
  f_learner_finished : R.Gauge.fam;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Each block's reading, [None] when no provider is installed. The
   providers have their own locks; they are called outside ours. *)
let readings t =
  let cache, store =
    with_lock t (fun () -> (t.cache_provider, t.store_provider))
  in
  (Option.map (fun f -> f ()) cache, Option.map (fun f -> f ()) store)

let create () =
  let reg = R.create () in
  let counter help name = R.Counter.solo (R.Counter.v reg ~help name) in
  let gauge help name = R.Gauge.solo (R.Gauge.v reg ~help name) in
  let f_retained =
    R.Counter.v reg
      ~help:
        "Request traces retained by tail-based sampling, by reason \
         (slow / error / shed)"
      ~labels:[ "reason" ] "strategem_traces_retained_total"
  in
  (* Kept, never observed: subsumption probes were removed. *)
  ignore
    (R.Histogram.solo
       (R.Histogram.v reg
          ~help:"Always empty: subsumption-based answer reuse was removed"
          "strategem_cache_filter_latency_us"));
  let t =
    {
      reg;
      started = Unix.gettimeofday ();
      lock = Mutex.create ();
      forms = Hashtbl.create 8;
      cache_provider = None;
      store_provider = None;
      mirror_cache = register reg cache_stats;
      mirror_store = register reg store_stats;
      queue_depth = Atomic.make 0;
      queue_hwm = Atomic.make 0;
      window_hwm = Atomic.make 0;
      pipeline_depth = Atomic.make 0;
      pipeline_hwm = Atomic.make 0;
      g_domains =
        gauge "Domains running event loops (one per loop)" "strategem_domains";
      f_domain_conns =
        R.Counter.v reg ~help:"Requests executed, per event-loop domain"
          ~labels:[ "domain" ] "strategem_domain_connections_total";
      f_domain_busy_us =
        R.Counter.v reg
          ~help:"Microseconds spent executing requests, per event-loop domain"
          ~labels:[ "domain" ] "strategem_domain_busy_us_total";
      c_connections =
        counter "Connections admitted" "strategem_connections_total";
      c_busy = counter "Connections shed with BUSY" "strategem_busy_total";
      c_errors = counter "Protocol-level errors" "strategem_errors_total";
      c_snapshots =
        counter "Strategy snapshots written" "strategem_snapshots_total";
      c_snapshot_forms =
        counter "Forms written across all snapshots"
          "strategem_snapshot_forms_total";
      c_forms_loaded =
        counter "Forms whose strategies were reloaded at startup"
          "strategem_forms_loaded_total";
      g_uptime = gauge "Seconds since the daemon started" "strategem_uptime_seconds";
      g_forms_active =
        gauge "Query forms with a live learner" "strategem_forms_active";
      g_queue_depth =
        gauge "Depth of the request FIFO an event loop last touched"
          "strategem_queue_depth";
      g_queue_hwm =
        gauge "All-time high water of any event loop's request FIFO"
          "strategem_queue_depth_high_water";
      g_queue_hwm_window =
        gauge "Request-FIFO high water since the last STATS/scrape"
          "strategem_queue_depth_high_water_window";
      g_conns_open = gauge "Connections currently open" "strategem_conns_open";
      g_pipeline_depth =
        gauge
          "Requests in flight across all connections (dispatched, \
           response not yet enqueued)"
          "strategem_pipeline_depth";
      g_pipeline_hwm =
        gauge "All-time high water of in-flight requests"
          "strategem_pipeline_depth_high_water";
      g_loops =
        gauge "Event loops in the reactor fleet" "strategem_loops";
      f_loop_conns =
        R.Gauge.v reg ~help:"Connections currently owned, per event loop"
          ~labels:[ "loop" ] "strategem_loop_conns_open";
      f_loop_wakeups =
        R.Counter.v reg
          ~help:"Coalesced wake deliveries drained, per event loop"
          ~labels:[ "loop" ] "strategem_loop_wakeups_total";
      f_loop_pipeline =
        R.Gauge.v reg
          ~help:"Requests in this loop's FIFO at its last execution pass"
          ~labels:[ "loop" ] "strategem_loop_pipeline_depth";
      f_stage_latency =
        R.Histogram.v reg
          ~help:
            "Request-lifecycle latency decomposition (microseconds), per \
             stage per owning event loop"
          ~labels:[ "stage"; "loop" ] "strategem_stage_latency_us";
      f_retained;
      retained_by =
        List.map
          (fun reason -> (reason, R.Counter.labels f_retained [ reason ]))
          [ "slow"; "error"; "shed" ];
      f_retained_exemplar =
        R.Gauge.v reg
          ~help:
            "Sequence number of the loop's most recently retained trace \
             (exemplar: quote it to FLIGHT / /debug/flight)"
          ~labels:[ "loop" ] "strategem_trace_retained_exemplar";
      c_lifecycle =
        counter "Requests finalized by the lifecycle tracker"
          "strategem_lifecycle_requests_total";
      retained_count = Atomic.make 0;
      loop_list = [];
      c_write_overflow =
        counter
          "Connections disconnected for breaching a write-buffer cap"
          "strategem_write_overflow_total";
      c_write_shed_bytes =
        counter "Buffered response bytes dropped by write-cap overflows"
          "strategem_write_shed_bytes_total";
      c_idle_closed =
        counter "Connections closed by the idle timeout"
          "strategem_idle_closed_total";
      c_ip_limited =
        counter "Connections refused by the per-IP cap"
          "strategem_ip_limited_total";
      c_slow =
        counter "Requests whose end-to-end time reached the slow-query threshold"
          "strategem_slow_queries_total";
      backend = "";
      h_queue_wait =
        R.Histogram.solo
          (R.Histogram.v reg
             ~help:"Wait in an event loop's request FIFO (microseconds)"
             "strategem_queue_wait_us");
      f_queries =
        R.Counter.v reg ~help:"Queries answered" ~labels:[ "form" ]
          "strategem_queries_total";
      f_answered =
        R.Counter.v reg ~help:"Queries that found an answer"
          ~labels:[ "form" ] "strategem_answers_total";
      f_climbs =
        R.Counter.v reg ~help:"Strategy climbs adopted" ~labels:[ "form" ]
          "strategem_climbs_total";
      f_latency =
        R.Histogram.v reg ~help:"Query latency (microseconds)"
          ~labels:[ "form" ] "strategem_query_latency_us";
      f_learner_eps =
        R.Gauge.v reg
          ~help:
            "Learner accuracy bound epsilon (per-learner definition; \
             converges toward 0 as evidence accumulates)"
          ~labels:[ "form" ] "strategem_learner_epsilon";
      f_learner_delta =
        R.Gauge.v reg ~help:"Learner confidence budget delta"
          ~labels:[ "form" ] "strategem_learner_delta";
      f_learner_samples =
        R.Gauge.v reg ~help:"Learner current sample set size"
          ~labels:[ "form" ] "strategem_learner_samples";
      f_learner_samples_total =
        R.Gauge.v reg ~help:"Observations fed to the learner"
          ~labels:[ "form" ] "strategem_learner_samples_total";
      f_learner_climbs =
        R.Gauge.v reg
          ~help:"Climbs by the current learner (resets on reseed)"
          ~labels:[ "form" ] "strategem_learner_climbs";
      f_learner_finished =
        R.Gauge.v reg ~help:"1 once the learner finished/converged"
          ~labels:[ "form" ] "strategem_learner_finished";
    }
  in
  let level g a = R.Gauge.set g (float_of_int (Atomic.get a)) in
  R.on_collect reg (fun () ->
      R.Gauge.set t.g_uptime (Unix.gettimeofday () -. t.started);
      let n_forms = with_lock t (fun () -> Hashtbl.length t.forms) in
      R.Gauge.set t.g_forms_active (float_of_int n_forms);
      level t.g_queue_depth t.queue_depth;
      level t.g_queue_hwm t.queue_hwm;
      R.Gauge.set t.g_queue_hwm_window
        (float_of_int (Atomic.exchange t.window_hwm 0));
      level t.g_pipeline_depth t.pipeline_depth;
      level t.g_pipeline_hwm t.pipeline_hwm;
      List.iter
        (fun lh -> level lh.lg_pipeline lh.lh_pipeline)
        (with_lock t (fun () -> t.loop_list));
      let cache, store = readings t in
      Option.iter t.mirror_cache cache;
      Option.iter t.mirror_store store);
  t

let render_prometheus t = Obs.Expo.render t.reg
let on_collect t f = R.on_collect t.reg f

let form t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.forms key with
      | Some fh -> fh
      | None ->
        let l = [ key ] in
        let fh =
          {
            c_queries = R.Counter.labels t.f_queries l;
            c_answered = R.Counter.labels t.f_answered l;
            c_climbs = R.Counter.labels t.f_climbs l;
            h_latency = R.Histogram.labels t.f_latency l;
            g_eps = R.Gauge.labels t.f_learner_eps l;
            g_delta = R.Gauge.labels t.f_learner_delta l;
            g_samples = R.Gauge.labels t.f_learner_samples l;
            g_samples_total = R.Gauge.labels t.f_learner_samples_total l;
            g_learner_climbs = R.Gauge.labels t.f_learner_climbs l;
            g_finished = R.Gauge.labels t.f_learner_finished l;
            strategy = Atomic.make "";
          }
        in
        (* A new form's epsilon starts at +inf: no evidence yet. *)
        R.Gauge.set fh.g_eps Float.infinity;
        Hashtbl.add t.forms key fh;
        fh)

let domains t = int_of_float (R.Gauge.value t.g_domains)

(* Each loop is one domain, so the fleet size is also the domain count. *)
let set_loops t n =
  R.Gauge.set t.g_loops (float_of_int n);
  R.Gauge.set t.g_domains (float_of_int n)

let loops t = int_of_float (R.Gauge.value t.g_loops)

let loop_handles t ~loop =
  let l = [ string_of_int loop ] in
  let lh =
    {
      loop_id = loop;
      lg_conns = R.Gauge.labels t.f_loop_conns l;
      lc_wakeups = R.Counter.labels t.f_loop_wakeups l;
      lg_pipeline = R.Gauge.labels t.f_loop_pipeline l;
      lh_pipeline = Atomic.make 0;
      lc_served = R.Counter.labels t.f_domain_conns l;
      lc_busy_us = R.Counter.labels t.f_domain_busy_us l;
      lh_stage_fam = t.f_stage_latency;
      lh_stages = Array.make n_stages None;
      lg_exemplar = R.Gauge.labels t.f_retained_exemplar l;
    }
  in
  with_lock t (fun () -> t.loop_list <- lh :: t.loop_list);
  lh

(* Loop thread only (like every [lh] update): the per-stage child array
   needs no lock. *)
let observe_stage lh stage ns =
  let i = stage_index stage in
  match lh.lh_stages.(i) with
  | Some h -> R.Histogram.observe_ns h ns
  | None ->
    let h =
      R.Histogram.labels lh.lh_stage_fam
        [ stage_name stage; string_of_int lh.loop_id ]
    in
    lh.lh_stages.(i) <- Some h;
    R.Histogram.observe_ns h ns

let lifecycle_finalized t = R.Counter.inc t.c_lifecycle

let trace_retained t lh ~reason ~seq =
  (match List.assoc_opt reason t.retained_by with
  | Some c -> R.Counter.inc c
  | None -> R.Counter.inc (R.Counter.labels t.f_retained [ reason ]));
  R.Gauge.set lh.lg_exemplar (float_of_int seq);
  ignore (Atomic.fetch_and_add t.retained_count 1)

let loop_conn_opened lh = R.Gauge.add lh.lg_conns 1.0
let loop_conn_closed lh = R.Gauge.add lh.lg_conns (-1.0)

(* The loop owns the monotonic count (Eventloop.wakeups); the series
   mirrors it. *)
let set_loop_wakeups lh n = R.Counter.set lh.lc_wakeups n
let set_loop_pipeline_depth lh n = Atomic.set lh.lh_pipeline n

let loop_served lh ~busy_ns =
  R.Counter.inc lh.lc_served;
  R.Counter.add lh.lc_busy_us (busy_ns / 1000)

let write_overflow t ~shed_bytes =
  R.Counter.inc t.c_write_overflow;
  R.Counter.add t.c_write_shed_bytes shed_bytes

let idle_closed t = R.Counter.inc t.c_idle_closed
let ip_limited t = R.Counter.inc t.c_ip_limited

let sorted_loops t =
  with_lock t (fun () -> t.loop_list)
  |> List.sort (fun a b -> compare a.loop_id b.loop_id)

let connection t = R.Counter.inc t.c_connections
let busy t = R.Counter.inc t.c_busy
let error t = R.Counter.inc t.c_errors
let conn_opened t = R.Gauge.add t.g_conns_open 1.0
let conn_closed t = R.Gauge.add t.g_conns_open (-1.0)
let conns_open t = int_of_float (R.Gauge.value t.g_conns_open)

(* Closed and top-level, so the hot path allocates no closure. *)
let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let set_pipeline_depth t d =
  Atomic.set t.pipeline_depth d;
  atomic_max t.pipeline_hwm d

let set_backend t s = t.backend <- s

let snapshot_saved t ~forms =
  R.Counter.inc t.c_snapshots;
  R.Counter.add t.c_snapshot_forms forms

let forms_loaded t n = R.Counter.add t.c_forms_loaded n

let observe_queue_depth t d =
  Atomic.set t.queue_depth d;
  atomic_max t.queue_hwm d;
  atomic_max t.window_hwm d

let queue_waited t ~wait_ns = R.Histogram.observe_ns t.h_queue_wait wait_ns
let slow_query t = R.Counter.inc t.c_slow

let query fh ~latency_ns ~answered ~switched =
  R.Counter.inc fh.c_queries;
  if answered then R.Counter.inc fh.c_answered;
  if switched then R.Counter.inc fh.c_climbs;
  R.Histogram.observe_ns fh.h_latency latency_ns

let set_strategy fh s = Atomic.set fh.strategy s

let learner_progress fh ~samples ~samples_total ~climbs ~epsilon ~delta
    ~finished =
  R.Gauge.set fh.g_eps epsilon;
  R.Gauge.set fh.g_delta delta;
  R.Gauge.set fh.g_samples (float_of_int samples);
  R.Gauge.set fh.g_samples_total (float_of_int samples_total);
  R.Gauge.set fh.g_learner_climbs (float_of_int climbs);
  R.Gauge.set fh.g_finished (if finished then 1.0 else 0.0)

let set_cache_provider t f = with_lock t (fun () -> t.cache_provider <- Some f)
let set_store_provider t f = with_lock t (fun () -> t.store_provider <- Some f)

let sorted_forms t =
  with_lock t (fun () ->
      Hashtbl.fold (fun k fh acc -> (k, fh) :: acc) t.forms [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sum_forms forms f = List.fold_left (fun n (_, fh) -> n + f fh) 0 forms

let queries_total t =
  sum_forms (sorted_forms t) (fun fh -> R.Counter.value fh.c_queries)

let climbs_total t =
  sum_forms (sorted_forms t) (fun fh -> R.Counter.value fh.c_climbs)

let busy_total t = R.Counter.value t.c_busy
let queue_high_water t = Atomic.get t.queue_hwm

(* Every STATS field and its order is part of the frozen text contract;
   values are read out of the registry instruments. New fields are only
   ever appended next to their kin (queue_depth and
   queue_high_water_window arrived after queue_high_water). *)
let render_text t =
  let cache, store = readings t in
  let forms = sorted_forms t in
  let qw = R.Histogram.snapshot t.h_queue_wait in
  let counters =
    [
      Printf.sprintf "uptime_seconds %d"
        (int_of_float (Unix.gettimeofday () -. t.started));
      Printf.sprintf "connections_total %d" (R.Counter.value t.c_connections);
      Printf.sprintf "queries_total %d"
        (sum_forms forms (fun fh -> R.Counter.value fh.c_queries));
      Printf.sprintf "answered_total %d"
        (sum_forms forms (fun fh -> R.Counter.value fh.c_answered));
      Printf.sprintf "climbs_total %d"
        (sum_forms forms (fun fh -> R.Counter.value fh.c_climbs));
      Printf.sprintf "busy_total %d" (R.Counter.value t.c_busy);
      Printf.sprintf "errors_total %d" (R.Counter.value t.c_errors);
      Printf.sprintf "snapshots_total %d" (R.Counter.value t.c_snapshots);
      Printf.sprintf "forms_loaded %d" (R.Counter.value t.c_forms_loaded);
      Printf.sprintf "forms_active %d" (List.length forms);
      Printf.sprintf "queue_high_water %d" (Atomic.get t.queue_hwm);
      Printf.sprintf "queue_depth %d" (Atomic.get t.queue_depth);
      Printf.sprintf "queue_high_water_window %d"
        (Atomic.exchange t.window_hwm 0);
      Printf.sprintf "queue_wait_count %d" qw.R.Histogram.count;
      Printf.sprintf "queue_wait_mean_us %.0f" (R.Histogram.mean qw);
      Printf.sprintf "queue_wait_p95_us %d" (R.Histogram.quantile qw 0.95);
      (* Additive (multicore serving): domains, one per event loop. *)
      Printf.sprintf "domains %d" (domains t);
      (* Additive (event-loop front end): reactor connection and
         pipelining state. *)
      Printf.sprintf "conns_open %d" (conns_open t);
      Printf.sprintf "pipeline_depth %d" (Atomic.get t.pipeline_depth);
      Printf.sprintf "pipeline_depth_high_water %d"
        (Atomic.get t.pipeline_hwm);
      (* Additive (reactor fleet): loop count plus the write-cap, idle
         and per-IP shedding counters. *)
      Printf.sprintf "loops %d" (loops t);
      Printf.sprintf "write_overflow_total %d"
        (R.Counter.value t.c_write_overflow);
      Printf.sprintf "write_shed_bytes_total %d"
        (R.Counter.value t.c_write_shed_bytes);
      Printf.sprintf "idle_closed_total %d" (R.Counter.value t.c_idle_closed);
      Printf.sprintf "ip_limited_total %d" (R.Counter.value t.c_ip_limited);
      (* Additive (request-lifecycle tracing): requests finalized by the
         lifecycle tracker and traces kept by tail-based retention. *)
      Printf.sprintf "lifecycle_requests_total %d"
        (R.Counter.value t.c_lifecycle);
      Printf.sprintf "traces_retained_total %d"
        (Atomic.get t.retained_count);
    ]
  in
  let block stats = Option.fold ~none:[] ~some:(stat_lines stats) in
  let counters = counters @ block cache_stats cache @ block store_stats store in
  let form_lines =
    List.map
      (fun (key, fh) ->
        let h = R.Histogram.snapshot fh.h_latency in
        Printf.sprintf
          "form %s queries %d answered %d climbs %d mean_us %.0f \
           p50_us %d p95_us %d p99_us %d strategy %s"
          key
          (R.Counter.value fh.c_queries)
          (R.Counter.value fh.c_answered)
          (R.Counter.value fh.c_climbs)
          (R.Histogram.mean h)
          (R.Histogram.quantile h 0.50)
          (R.Histogram.quantile h 0.95)
          (R.Histogram.quantile h 0.99)
          (Atomic.get fh.strategy))
      forms
  in
  counters @ form_lines

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let schema_version = 1

let render_json ?recent_traces t =
  let cache, store = readings t in
  let forms = sorted_forms t in
  let qw = R.Histogram.snapshot t.h_queue_wait in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":%d,\"uptime_seconds\":%d,\"connections_total\":%d,\
        \"queries_total\":%d,\"answered_total\":%d,\
        \"climbs_total\":%d,\"busy_total\":%d,\"errors_total\":%d,\
        \"snapshots_total\":%d,\"forms_loaded\":%d,\
        \"forms_active\":%d,\"queue_high_water\":%d,\"queue_depth\":%d,\
        \"queue_high_water_window\":%d,\
        \"queue_wait\":{\"count\":%d,\"mean_us\":%.1f,\"p50_us\":%d,\
        \"p95_us\":%d,\"p99_us\":%d},\"domains\":%d,"
       schema_version
       (int_of_float (Unix.gettimeofday () -. t.started))
       (R.Counter.value t.c_connections)
       (sum_forms forms (fun fh -> R.Counter.value fh.c_queries))
       (sum_forms forms (fun fh -> R.Counter.value fh.c_answered))
       (sum_forms forms (fun fh -> R.Counter.value fh.c_climbs))
       (R.Counter.value t.c_busy)
       (R.Counter.value t.c_errors)
       (R.Counter.value t.c_snapshots)
       (R.Counter.value t.c_forms_loaded)
       (List.length forms)
       (Atomic.get t.queue_hwm) (Atomic.get t.queue_depth)
       (Atomic.exchange t.window_hwm 0)
       qw.R.Histogram.count (R.Histogram.mean qw)
       (R.Histogram.quantile qw 0.50)
       (R.Histogram.quantile qw 0.95)
       (R.Histogram.quantile qw 0.99)
       (domains t));
  (* Additive block (schema stays 1): the v4 reactor's transport-level
     state, absent only from pre-v4 builds. *)
  Buffer.add_string buf
    (Printf.sprintf
       "\"protocol\":{\"backend\":\"%s\",\"frame_version\":%d,\
        \"conns_open\":%d,\"pipeline_depth\":%d,\
        \"pipeline_depth_high_water\":%d},"
       (json_escape t.backend) Frame.version (conns_open t)
       (Atomic.get t.pipeline_depth)
       (Atomic.get t.pipeline_hwm));
  (* Additive block (schema stays 1): the reactor fleet — per-loop
     connection/wakeup/pipeline readings plus the shedding counters. *)
  Buffer.add_string buf
    (Printf.sprintf
       "\"loops\":{\"count\":%d,\"write_overflow_total\":%d,\
        \"write_shed_bytes_total\":%d,\"idle_closed_total\":%d,\
        \"ip_limited_total\":%d,\"per_loop\":["
       (loops t)
       (R.Counter.value t.c_write_overflow)
       (R.Counter.value t.c_write_shed_bytes)
       (R.Counter.value t.c_idle_closed)
       (R.Counter.value t.c_ip_limited));
  List.iteri
    (fun i lh ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":%d,\"conns\":%d,\"wakeups\":%d,\"pipeline_depth\":%d}"
           lh.loop_id
           (int_of_float (R.Gauge.value lh.lg_conns))
           (R.Counter.value lh.lc_wakeups)
           (Atomic.get lh.lh_pipeline)))
    (sorted_loops t);
  Buffer.add_string buf "]},";
  (* Additive block (schema stays 1): request-lifecycle tracing. *)
  Buffer.add_string buf
    (Printf.sprintf
       "\"lifecycle\":{\"requests_total\":%d,\"traces_retained_total\":%d},"
       (R.Counter.value t.c_lifecycle)
       (Atomic.get t.retained_count));
  Option.iter (json_block buf "cache" cache_stats) cache;
  Option.iter (json_block buf "store" store_stats) store;
  Buffer.add_string buf "\"forms\":{";
  List.iteri
    (fun i (key, fh) ->
      if i > 0 then Buffer.add_char buf ',';
      let h = R.Histogram.snapshot fh.h_latency in
      Buffer.add_string buf
        (Printf.sprintf
           "\"%s\":{\"queries\":%d,\"answered\":%d,\"climbs\":%d,\
            \"mean_us\":%.1f,\"p50_us\":%d,\"p95_us\":%d,\
            \"p99_us\":%d,\"strategy\":\"%s\"}"
           (json_escape key)
           (R.Counter.value fh.c_queries)
           (R.Counter.value fh.c_answered)
           (R.Counter.value fh.c_climbs)
           (R.Histogram.mean h)
           (R.Histogram.quantile h 0.50)
           (R.Histogram.quantile h 0.95)
           (R.Histogram.quantile h 0.99)
           (json_escape (Atomic.get fh.strategy))))
    forms;
  Buffer.add_string buf "}";
  Option.iter
    (fun traces ->
      Buffer.add_string buf ",\"recent_traces\":[";
      Buffer.add_string buf (String.concat "," traces);
      Buffer.add_char buf ']')
    recent_traces;
  Buffer.add_char buf '}';
  Buffer.contents buf
