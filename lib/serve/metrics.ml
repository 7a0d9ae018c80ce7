(* The STATS facade: every statistic the daemon reports is one row of a
   table in this module, so the same reading feeds the TCP STATS / STATS
   JSON renderers (byte-stable for existing clients) and the Prometheus
   /metrics endpoint. This module spells out the whole metric-name
   inventory (everything is prefixed [strategem_]; see
   docs/OBSERVABILITY.md). *)

module H = Obs.Histogram

type cache_reading = {
  answers : Cache.Answers.counters;
  memo : Datalog.Sld.Memo.counters;
}

(* One row per statistic. A row names its STATS key, its Prometheus
   family, help text and kind, its place in the STATS JSON object
   (["key"], ["sub.key"] inside a sub-object) and a reader; an empty
   key, name or place means the statistic is not shown there. The
   STATS lines, the JSON objects and the /metrics families all walk the
   rows at render time; their order is the frozen STATS and JSON field
   order (Prometheus sorts families by name). *)
type kind = Counter | Gauge

type value =
  | Int of int
  | Whole of float  (* a float series, whole units in STATS and JSON *)
  | Mean of float  (* [%.0f] in STATS, [%.1f] in JSON *)
  | Bool of bool  (* 0/1 in STATS and Prometheus, true/false in JSON *)
  | Str of string  (* a JSON string *)
  | Json of string  (* already-rendered JSON *)

type 'r stat = {
  kind : kind;
  key : string;
  name : string;
  json : string;
  help : string;
  read : 'r -> value;
}

let stat kind key name json help read = { kind; key; name; json; help; read }

(* A statistic shown in STATS and JSON under one name. *)
let same kind key name help read = stat kind key name key help read

(* The same, with no series. *)
let field key read = same Gauge key "" "" read

let text_value = function
  | Int n -> string_of_int n
  | Whole f -> string_of_int (int_of_float f)
  | Mean f -> Printf.sprintf "%.0f" f
  | Bool b -> if b then "1" else "0"
  | Str s | Json s -> s

let json_value = function
  | Mean f -> Printf.sprintf "%.1f" f
  | Bool b -> string_of_bool b
  | Str s -> "\"" ^ Trace.json_escape s ^ "\""
  | v -> text_value v

(* A row's Prometheus sample: a counter prints whole, a gauge as a
   float. *)
let series_value kind v =
  let f =
    match v with
    | Int n -> float_of_int n
    | Whole f | Mean f -> f
    | Bool b -> if b then 1.0 else 0.0
    | Str _ | Json _ -> 0.0
  in
  match kind with
  | Counter -> Obs.Expo.Int (int_of_float f)
  | Gauge -> Obs.Expo.Float f

(* The cache, subgoal-memo and paged-store statistics. A reader gets
   [None] when its layer is off, and then reads 0. *)
let cache_stats : cache_reading option stat list =
  let answers f = function Some c -> Int (f c.answers) | None -> Int 0 in
  let memo f = function Some c -> Int (f c.memo) | None -> Int 0 in
  let removed _ = Int 0 in
  [
    stat Gauge "cache_enabled" "strategem_cache_enabled" "enabled"
      "1 when the answer cache is on" (fun c -> Bool (Option.is_some c));
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
    stat Gauge "cache_subsume_enabled" "strategem_cache_subsume_enabled"
      "subsume.enabled" "Always 0: subsumption-based answer reuse was removed"
      (fun _ -> Bool false);
    stat Counter "cache_derived_hits" "strategem_cache_derived_hits_total"
      "subsume.derived_hits"
      "Always 0: subsumption-based answer reuse was removed" removed;
    stat Counter "cache_derived_scan_entries"
      "strategem_cache_derived_scan_entries_total"
      "subsume.derived_scan_entries"
      "Always 0: subsumption-based answer reuse was removed" removed;
    stat Counter "cache_subsume_misses" "strategem_cache_subsume_misses_total"
      "subsume.subsume_misses"
      "Always 0: subsumption-based answer reuse was removed" removed;
    stat Gauge "cache_index_keys" "strategem_cache_index_keys"
      "subsume.index_keys"
      "Always 0: subsumption-based answer reuse was removed" removed;
  ]

(* Additive, like the cache block: rendered only when serving from a
   paged store. *)
let store_stats : Store.stats option stat list =
  let store f = function Some (s : Store.stats) -> Int (f s) | None -> Int 0 in
  [
    stat Gauge "store_enabled" "strategem_store_enabled" ""
      "1 when the database is backed by the paged store" (fun s ->
        Bool (Option.is_some s));
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
      "Seconds since the last checkpoint (or open)" (function
      | Some (s : Store.stats) ->
        Whole (Float.max 0.0 (Unix.gettimeofday () -. s.checkpoint_unix))
      | None -> Whole 0.0);
    stat Gauge "store_facts" "strategem_store_facts" "facts"
      "Facts in the paged store" (store (fun s -> s.facts));
    stat Gauge "store_symbols" "strategem_store_symbols" "symbols"
      "Symbols in the persistent catalog" (store (fun s -> s.symbols));
    stat Gauge "store_generation" "strategem_store_generation" "generation"
      "Persistent database generation" (store (fun s -> s.generation));
  ]

(* One family per row that names one, with a series per (label values,
   reading) pair. *)
let families ?(labels = []) stats series =
  List.filter_map
    (fun s ->
      if s.name = "" then None
      else
        Some
          {
            Obs.Expo.name = s.name;
            help = s.help;
            kind = (match s.kind with Counter -> Counter | Gauge -> Gauge);
            label_names = labels;
            samples =
              List.map
                (fun (l, r) -> (l, series_value s.kind (s.read r)))
                series;
          })
    stats

let stat_lines stats r =
  List.filter_map
    (fun s ->
      if s.key = "" then None else Some (s.key ^ " " ^ text_value (s.read r)))
    stats

(* Each row's field in row order, comma-separated. A place ["sub.key"]
   opens the object ["sub"]; the first place outside it closes it. *)
let json_fields buf stats r =
  let cur = ref "" and first = ref true in
  List.iter
    (fun s ->
      if s.json <> "" then begin
        let sub, key =
          match String.index_opt s.json '.' with
          | None -> ("", s.json)
          | Some i ->
            ( String.sub s.json 0 i,
              String.sub s.json (i + 1) (String.length s.json - i - 1) )
        in
        if sub <> !cur && !cur <> "" then Buffer.add_char buf '}';
        if not !first then Buffer.add_char buf ',';
        if sub <> !cur && sub <> "" then Printf.bprintf buf "\"%s\":{" sub;
        cur := sub;
        first := false;
        Printf.bprintf buf "\"%s\":%s" key (json_value (s.read r))
      end)
    stats;
  if !cur <> "" then Buffer.add_char buf '}'

let json_object buf stats r =
  Buffer.add_char buf '{';
  json_fields buf stats r;
  Buffer.add_char buf '}'

(* The cache and store blocks are additive under schema 1 and carry
   their own version, so their fields can evolve without a top-level
   bump. *)
let block_version = 1

let json_block buf name stats r =
  Printf.bprintf buf "\"%s\":{\"version\":%d," name block_version;
  json_fields buf stats r;
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

(* The [stage] label values, by [stage_index]. *)
let stage_names =
  [| "frame"; "queue"; "worker"; "flush"; "total"; "wal_fsync"; "page_read" |]

(* Per-loop handles, obtained once by each event loop of the reactor
   fleet at spawn: the loop updates only its own (uncontended) counts.
   Its open connections and wake deliveries are the server's and the
   event loop's own counts, read through [conns] and [wakeups]. *)
type loop_handles = {
  loop_id : int;
  conns : unit -> int;
  wakeups : unit -> int;
  pipeline : int Atomic.t;
  exemplar : int Atomic.t;  (* seq of the latest retained trace *)
  (* requests the loop executed, and for how long *)
  served : int Atomic.t;
  busy_us : int Atomic.t;
  (* the {stage, loop} latency histograms, indexed by [stage_index]; a
     stage never observed exports no series *)
  stages : H.t array;
}

(* The [per_loop] entries of the [loops] JSON object, and the {loop}
   series. *)
let loop_stats : loop_handles stat list =
  let count a lh = Int (Atomic.get (a lh)) in
  [
    stat Gauge "" "" "id" "" (fun lh -> Int lh.loop_id);
    stat Gauge "" "strategem_loop_conns_open" "conns"
      "Connections currently owned, per event loop" (fun lh ->
        Int (lh.conns ()));
    stat Counter "" "strategem_loop_wakeups_total" "wakeups"
      "Coalesced wake deliveries drained, per event loop" (fun lh ->
        Int (lh.wakeups ()));
    stat Gauge "" "strategem_loop_pipeline_depth" "pipeline_depth"
      "Requests in this loop's FIFO at its last execution pass"
      (count (fun lh -> lh.pipeline));
    stat Gauge "" "strategem_trace_retained_exemplar" ""
      "Sequence number of the loop's most recently retained trace \
       (exemplar: quote it to FLIGHT / /debug/flight)"
      (count (fun lh -> lh.exemplar));
  ]

(* The {domain} series: each loop is one domain. *)
let domain_stats : loop_handles stat list =
  let count a lh = Int (Atomic.get (a lh)) in
  [
    stat Counter "" "strategem_domain_connections_total" ""
      "Requests executed, per event-loop domain" (count (fun lh -> lh.served));
    stat Counter "" "strategem_domain_busy_us_total" ""
      "Microseconds spent executing requests, per event-loop domain"
      (count (fun lh -> lh.busy_us));
  ]

type form = {
  queries : int Atomic.t;
  answered : int Atomic.t;
  climbs : int Atomic.t;
  h_latency : H.t;
  strategy : unit -> string;
  progress : unit -> Core.Learner.progress;
}

(* What a form's rows read: its handles, one latency snapshot and, only
   when a series needs it, its learner's progress. *)
type form_reading = {
  fh : form;
  h : H.snapshot;
  p : Core.Learner.progress Lazy.t;
}

let form_reading fh =
  {
    fh;
    h = H.snapshot fh.h_latency;
    p = Lazy.from_fun fh.progress;
  }

(* The fields of a form's STATS line and of its JSON object, and its
   {form} series. *)
let form_stats : form_reading stat list =
  let count c f = Int (Atomic.get (c f.fh)) in
  let quantile q f = Int (H.quantile f.h q) in
  let learner name help v =
    stat Gauge "" name "" help (fun f -> v (Lazy.force f.p))
  in
  [
    same Counter "queries" "strategem_queries_total" "Queries answered"
      (count (fun fh -> fh.queries));
    same Counter "answered" "strategem_answers_total"
      "Queries that found an answer" (count (fun fh -> fh.answered));
    same Counter "climbs" "strategem_climbs_total" "Strategy climbs adopted"
      (count (fun fh -> fh.climbs));
    field "mean_us" (fun f -> Mean (H.mean f.h));
    field "p50_us" (quantile 0.50);
    field "p95_us" (quantile 0.95);
    field "p99_us" (quantile 0.99);
    field "strategy" (fun f -> Str (f.fh.strategy ()));
    learner "strategem_learner_epsilon"
      "Learner accuracy bound epsilon (per-learner definition; converges \
       toward 0 as evidence accumulates)" (fun p -> Whole p.epsilon);
    learner "strategem_learner_delta" "Learner confidence budget delta"
      (fun p -> Whole p.delta);
    learner "strategem_learner_samples" "Learner current sample set size"
      (fun p -> Int p.samples);
    learner "strategem_learner_samples_total" "Observations fed to the learner"
      (fun p -> Int p.samples_total);
    learner "strategem_learner_climbs"
      "Climbs by the current learner (resets on reseed)" (fun p ->
        Int p.climbs);
    learner "strategem_learner_finished" "1 once the learner finished/converged"
      (fun p -> Bool p.finished);
  ]

type t = {
  started : float;
  lock : Mutex.t;  (* guards [by_key], [loop_list] and the providers *)
  by_key : (string, form) Hashtbl.t;
  mutable loop_list : loop_handles list;
  mutable cache_provider : (unit -> cache_reading option) option;
  mutable store_provider : (unit -> Store.stats option) option;
  pipeline_depth : unit -> int;
  (* Event counts and queue levels. The window high water is consumed
     (reset) by whichever of STATS or a /metrics scrape reads it first —
     "max depth since the last read"; the all-time high waters never
     reset. *)
  connections : int Atomic.t;
  busy : int Atomic.t;
  errors : int Atomic.t;
  snapshots : int Atomic.t;
  snapshot_forms : int Atomic.t;
  forms_loaded : int Atomic.t;
  queue_depth : int Atomic.t;
  queue_hwm : int Atomic.t;
  window_hwm : int Atomic.t;
  pipeline_hwm : int Atomic.t;
  write_overflow : int Atomic.t;
  write_shed_bytes : int Atomic.t;
  idle_closed : int Atomic.t;
  ip_limited : int Atomic.t;
  lifecycle : int Atomic.t;
  slow : int Atomic.t;
  mutable n_loops : int;  (* one domain per loop *)
  mutable backend : string;  (* reactor backend: "epoll" / "select" *)
  h_queue_wait : H.t;
  (* retained traces by reason; the reason set is closed *)
  retained_by : (string * int Atomic.t) list;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* What the top-level rows read: the forms and loops (copied out under
   the lock; sorted by key and id) and one queue-wait snapshot. *)
type reading = {
  m : t;
  forms : (string * form) list;
  loops : loop_handles list;
  qw : H.snapshot;
}

let reading m =
  let forms, loops =
    with_lock m (fun () ->
        ( Hashtbl.fold (fun k fh acc -> (k, fh) :: acc) m.by_key [],
          m.loop_list ))
  in
  {
    m;
    forms = List.sort (fun (a, _) (b, _) -> String.compare a b) forms;
    loops = List.sort (fun a b -> compare a.loop_id b.loop_id) loops;
    qw = H.snapshot m.h_queue_wait;
  }

let schema_version = 1

(* The top-level statistics, in STATS and JSON order. *)
let stats : reading stat list =
  let count a r = Int (Atomic.get (a r.m)) in
  let sum c r =
    Int (List.fold_left (fun n (_, fh) -> n + Atomic.get (c fh)) 0 r.forms)
  in
  let quantile q r = Int (H.quantile r.qw q) in
  [
    stat Gauge "" "" "schema" "" (fun _ -> Int schema_version);
    same Gauge "uptime_seconds" "strategem_uptime_seconds"
      "Seconds since the daemon started" (fun r ->
        Whole (Unix.gettimeofday () -. r.m.started));
    same Counter "connections_total" "strategem_connections_total"
      "Connections admitted" (count (fun m -> m.connections));
    field "queries_total" (sum (fun fh -> fh.queries));
    field "answered_total" (sum (fun fh -> fh.answered));
    field "climbs_total" (sum (fun fh -> fh.climbs));
    same Counter "busy_total" "strategem_busy_total"
      "Connections shed with BUSY" (count (fun m -> m.busy));
    same Counter "errors_total" "strategem_errors_total"
      "Protocol-level errors" (count (fun m -> m.errors));
    same Counter "snapshots_total" "strategem_snapshots_total"
      "Strategy snapshots written" (count (fun m -> m.snapshots));
    same Counter "forms_loaded" "strategem_forms_loaded_total"
      "Forms whose strategies were reloaded at startup"
      (count (fun m -> m.forms_loaded));
    same Gauge "forms_active" "strategem_forms_active"
      "Query forms with a live learner" (fun r -> Int (List.length r.forms));
    same Gauge "queue_high_water" "strategem_queue_depth_high_water"
      "All-time high water of any event loop's request FIFO"
      (count (fun m -> m.queue_hwm));
    same Gauge "queue_depth" "strategem_queue_depth"
      "Depth of the request FIFO an event loop last touched"
      (count (fun m -> m.queue_depth));
    same Gauge "queue_high_water_window"
      "strategem_queue_depth_high_water_window"
      "Request-FIFO high water since the last STATS/scrape" (fun r ->
        Int (Atomic.exchange r.m.window_hwm 0));
    stat Gauge "queue_wait_count" "" "queue_wait.count" "" (fun r ->
        Int r.qw.H.count);
    stat Gauge "queue_wait_mean_us" "" "queue_wait.mean_us" "" (fun r ->
        Mean (H.mean r.qw));
    stat Gauge "" "" "queue_wait.p50_us" "" (quantile 0.50);
    stat Gauge "queue_wait_p95_us" "" "queue_wait.p95_us" "" (quantile 0.95);
    stat Gauge "" "" "queue_wait.p99_us" "" (quantile 0.99);
    (* Additive (multicore serving): domains, one per event loop. *)
    same Gauge "domains" "strategem_domains"
      "Domains running event loops (one per loop)" (fun r -> Int r.m.n_loops);
    (* Additive (event-loop front end): reactor connection and
       pipelining state. *)
    stat Gauge "" "" "protocol.backend" "" (fun r -> Str r.m.backend);
    stat Gauge "" "" "protocol.frame_version" "" (fun _ -> Int Frame.version);
    stat Gauge "conns_open" "strategem_conns_open" "protocol.conns_open"
      "Connections currently open" (fun r ->
        Int (List.fold_left (fun n lh -> n + lh.conns ()) 0 r.loops));
    stat Gauge "pipeline_depth" "strategem_pipeline_depth"
      "protocol.pipeline_depth"
      "Requests in flight across all connections (dispatched, response not \
       yet enqueued)" (fun r -> Int (r.m.pipeline_depth ()));
    stat Gauge "pipeline_depth_high_water"
      "strategem_pipeline_depth_high_water" "protocol.pipeline_depth_high_water"
      "All-time high water of in-flight requests"
      (count (fun m -> m.pipeline_hwm));
    (* Additive (reactor fleet): loop count, the write-cap, idle and
       per-IP shedding counters, and each loop's readings. *)
    stat Gauge "loops" "strategem_loops" "loops.count"
      "Event loops in the reactor fleet" (fun r -> Int r.m.n_loops);
    stat Counter "write_overflow_total" "strategem_write_overflow_total"
      "loops.write_overflow_total"
      "Connections disconnected for breaching a write-buffer cap"
      (count (fun m -> m.write_overflow));
    stat Counter "write_shed_bytes_total" "strategem_write_shed_bytes_total"
      "loops.write_shed_bytes_total"
      "Buffered response bytes dropped by write-cap overflows"
      (count (fun m -> m.write_shed_bytes));
    stat Counter "idle_closed_total" "strategem_idle_closed_total"
      "loops.idle_closed_total" "Connections closed by the idle timeout"
      (count (fun m -> m.idle_closed));
    stat Counter "ip_limited_total" "strategem_ip_limited_total"
      "loops.ip_limited_total" "Connections refused by the per-IP cap"
      (count (fun m -> m.ip_limited));
    stat Gauge "" "" "loops.per_loop" "" (fun r ->
        let buf = Buffer.create 64 in
        Buffer.add_char buf '[';
        List.iteri
          (fun i lh ->
            if i > 0 then Buffer.add_char buf ',';
            json_object buf loop_stats lh)
          r.loops;
        Buffer.add_char buf ']';
        Json (Buffer.contents buf));
    (* Additive (request-lifecycle tracing): requests finalized by the
       lifecycle tracker and traces kept by tail-based retention. *)
    stat Counter "lifecycle_requests_total"
      "strategem_lifecycle_requests_total" "lifecycle.requests_total"
      "Requests finalized by the lifecycle tracker"
      (count (fun m -> m.lifecycle));
    stat Gauge "traces_retained_total" "" "lifecycle.traces_retained_total" ""
      (fun r ->
        Int
          (List.fold_left
             (fun n (_, c) -> n + Atomic.get c)
             0 r.m.retained_by));
    stat Counter "" "strategem_snapshot_forms_total" ""
      "Forms written across all snapshots" (count (fun m -> m.snapshot_forms));
    stat Counter "" "strategem_slow_queries_total" ""
      "Requests whose end-to-end time reached the slow-query threshold"
      (count (fun m -> m.slow));
  ]

(* Each block's reading, [None] when no provider is installed. The
   providers have their own locks; they are called outside ours. *)
let readings t =
  let cache, store =
    with_lock t (fun () -> (t.cache_provider, t.store_provider))
  in
  (Option.map (fun f -> f ()) cache, Option.map (fun f -> f ()) store)

let create ?(pipeline_depth = fun () -> 0) () =
  {
    started = Unix.gettimeofday ();
    lock = Mutex.create ();
    by_key = Hashtbl.create 8;
    loop_list = [];
    cache_provider = None;
    store_provider = None;
    pipeline_depth;
    connections = Atomic.make 0;
    busy = Atomic.make 0;
    errors = Atomic.make 0;
    snapshots = Atomic.make 0;
    snapshot_forms = Atomic.make 0;
    forms_loaded = Atomic.make 0;
    queue_depth = Atomic.make 0;
    queue_hwm = Atomic.make 0;
    window_hwm = Atomic.make 0;
    pipeline_hwm = Atomic.make 0;
    write_overflow = Atomic.make 0;
    write_shed_bytes = Atomic.make 0;
    idle_closed = Atomic.make 0;
    ip_limited = Atomic.make 0;
    lifecycle = Atomic.make 0;
    slow = Atomic.make 0;
    n_loops = 0;
    backend = "";
    h_queue_wait = H.create ();
    retained_by =
      List.map
        (fun reason -> (reason, Atomic.make 0))
        [ "slow"; "error"; "shed" ];
  }

(* Every family, built from the rows and the histograms at render time:
   each statistic is read from its one owner, once per render. *)
let render_prometheus t =
  let r = reading t in
  let cache, store = readings t in
  let loops = List.map (fun lh -> ([ string_of_int lh.loop_id ], lh)) r.loops in
  let forms = List.map (fun (key, fh) -> ([ key ], form_reading fh)) r.forms in
  let family kind name help label_names samples =
    { Obs.Expo.name; help; kind; label_names; samples }
  in
  let histogram name help label_names samples =
    family Histogram name help label_names
      (List.map (fun (l, h) -> (l, Obs.Expo.Hist h)) samples)
  in
  let stage_series lh =
    List.filter_map
      (fun i ->
        let h = H.snapshot lh.stages.(i) in
        if h.H.count = 0 then None
        else Some ([ stage_names.(i); string_of_int lh.loop_id ], h))
      (List.init n_stages Fun.id)
  in
  Obs.Expo.render
    (List.concat
       [
         families stats [ ([], r) ];
         families ~labels:[ "loop" ] loop_stats loops;
         families ~labels:[ "domain" ] domain_stats loops;
         families ~labels:[ "form" ] form_stats forms;
         (* a layer with no provider reads 0, like one that is off *)
         families cache_stats [ ([], Option.join cache) ];
         families store_stats [ ([], Option.join store) ];
         [
           family Counter "strategem_traces_retained_total"
             "Request traces retained by tail-based sampling, by reason \
              (slow / error / shed)"
             [ "reason" ]
             (List.map
                (fun (reason, c) -> ([ reason ], Obs.Expo.Int (Atomic.get c)))
                t.retained_by);
           histogram "strategem_queue_wait_us"
             "Wait in an event loop's request FIFO (microseconds)" []
             [ ([], r.qw) ];
           (* Kept, never observed: subsumption probes were removed. *)
           histogram "strategem_cache_filter_latency_us"
             "Always empty: subsumption-based answer reuse was removed" []
             [ ([], H.snapshot (H.create ())) ];
           histogram "strategem_stage_latency_us"
             "Request-lifecycle latency decomposition (microseconds), per \
              stage per owning event loop"
             [ "stage"; "loop" ]
             (List.concat_map stage_series r.loops);
           histogram "strategem_query_latency_us" "Query latency (microseconds)"
             [ "form" ]
             (List.map (fun (l, f) -> (l, f.h)) forms);
         ];
       ])

(* A form with no learner: no evidence yet, so epsilon is +inf. *)
let no_progress () =
  {
    Core.Learner.samples = 0;
    samples_total = 0;
    climbs = 0;
    epsilon = Float.infinity;
    delta = 0.0;
    finished = false;
  }

let form ?(strategy = fun () -> "") ?(progress = no_progress) t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.by_key key with
      | Some fh -> fh
      | None ->
        let fh =
          {
            queries = Atomic.make 0;
            answered = Atomic.make 0;
            climbs = Atomic.make 0;
            h_latency = H.create ();
            strategy;
            progress;
          }
        in
        Hashtbl.add t.by_key key fh;
        fh)

let set_loops t n = t.n_loops <- n

let loop_handles ?(conns = fun () -> 0) ?(wakeups = fun () -> 0) t ~loop =
  let lh =
    {
      loop_id = loop;
      conns;
      wakeups;
      pipeline = Atomic.make 0;
      exemplar = Atomic.make 0;
      served = Atomic.make 0;
      busy_us = Atomic.make 0;
      stages = Array.init n_stages (fun _ -> H.create ());
    }
  in
  with_lock t (fun () -> t.loop_list <- lh :: t.loop_list);
  lh

let observe_stage lh stage ns = H.observe_ns lh.stages.(stage_index stage) ns

let lifecycle_finalized t = Atomic.incr t.lifecycle

let trace_retained t lh ~reason ~seq =
  Atomic.incr (List.assoc reason t.retained_by);
  Atomic.set lh.exemplar seq

let set_loop_pipeline_depth lh n = Atomic.set lh.pipeline n

(* The duration is a wall-clock difference: a negative one (the clock
   stepped back) counts 0, so the busy-µs counter never decreases. *)
let loop_served lh ~busy_ns =
  Atomic.incr lh.served;
  ignore (Atomic.fetch_and_add lh.busy_us (Int.max 0 busy_ns / 1000))

let write_overflow t ~shed_bytes =
  Atomic.incr t.write_overflow;
  ignore (Atomic.fetch_and_add t.write_shed_bytes shed_bytes)

let idle_closed t = Atomic.incr t.idle_closed
let ip_limited t = Atomic.incr t.ip_limited
let connection t = Atomic.incr t.connections
let busy t = Atomic.incr t.busy
let error t = Atomic.incr t.errors

(* Closed and top-level, so the hot path allocates no closure. *)
let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let set_pipeline_depth t d = atomic_max t.pipeline_hwm d
let set_backend t s = t.backend <- s

let snapshot_saved t ~forms =
  Atomic.incr t.snapshots;
  ignore (Atomic.fetch_and_add t.snapshot_forms forms)

let forms_loaded t n = ignore (Atomic.fetch_and_add t.forms_loaded n)

let observe_queue_depth t d =
  Atomic.set t.queue_depth d;
  atomic_max t.queue_hwm d;
  atomic_max t.window_hwm d

let queue_waited t ~wait_ns = H.observe_ns t.h_queue_wait wait_ns
let slow_query t = Atomic.incr t.slow

let query fh ~latency_ns ~answered ~switched =
  Atomic.incr fh.queries;
  if answered then Atomic.incr fh.answered;
  if switched then Atomic.incr fh.climbs;
  H.observe_ns fh.h_latency latency_ns

let set_cache_provider t f = with_lock t (fun () -> t.cache_provider <- Some f)
let set_store_provider t f = with_lock t (fun () -> t.store_provider <- Some f)

let sum_forms t c =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ fh n -> n + Atomic.get (c fh)) t.by_key 0)

let queries_total t = sum_forms t (fun fh -> fh.queries)
let climbs_total t = sum_forms t (fun fh -> fh.climbs)
let busy_total t = Atomic.get t.busy
let queue_high_water t = Atomic.get t.queue_hwm

(* Every STATS field and its order is part of the frozen text contract.
   New fields are only ever appended next to their kin. The form lines
   read each form's strategy off its learner, outside the metrics
   lock. *)
let render_text t =
  let r = reading t in
  let cache, store = readings t in
  let block stats = Option.fold ~none:[] ~some:(stat_lines stats) in
  let form_line (key, fh) =
    String.concat " "
      ("form" :: key :: stat_lines form_stats (form_reading fh))
  in
  stat_lines stats r @ block cache_stats cache @ block store_stats store
  @ List.map form_line r.forms

let render_json ?recent_traces t =
  let r = reading t in
  let cache, store = readings t in
  let buf = Buffer.create 512 in
  Buffer.add_char buf '{';
  json_fields buf stats r;
  Buffer.add_char buf ',';
  Option.iter (json_block buf "cache" cache_stats) cache;
  Option.iter (json_block buf "store" store_stats) store;
  Buffer.add_string buf "\"forms\":{";
  List.iteri
    (fun i (key, fh) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\"%s\":" (Trace.json_escape key);
      json_object buf form_stats (form_reading fh))
    r.forms;
  Buffer.add_char buf '}';
  Option.iter
    (fun traces ->
      Buffer.add_string buf ",\"recent_traces\":[";
      Buffer.add_string buf (String.concat "," traces);
      Buffer.add_char buf ']')
    recent_traces;
  Buffer.add_char buf '}';
  Buffer.contents buf
