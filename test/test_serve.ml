(* The serve subsystem: protocol parsing (both the line dialect and v4
   framing), the admission queue's shed/drain semantics, metrics, the
   per-form registry (lazy creation, sharing, online climbs), snapshot
   save/load resumption, and the TCP server end to end in-process —
   concurrent clients, pipelining, slow/partial frames, load shedding,
   graceful shutdown. *)

open Helpers
module D = Datalog

let kb_text =
  "instructor(X) :- prof(X).\n\
   instructor(X) :- grad(X).\n\
   prof(russ).\n\
   grad(manolis).\n"

let kb () =
  let rules, facts, _ = D.Parser.parse_kb kb_text in
  (D.Rulebase.of_list rules, D.Database.of_list facts)

(* ---------- Protocol ---------- *)

let protocol_parse () =
  let check name expected line =
    check_bool name true (Serve.Protocol.parse line = expected)
  in
  check "query" (Serve.Protocol.Query "instructor(russ)")
    "QUERY instructor(russ)";
  check "query lowercase" (Serve.Protocol.Query "p(a)") "query p(a)";
  check "query trimmed" (Serve.Protocol.Query "p(a)") "  QUERY   p(a)  ";
  check "stats" Serve.Protocol.Stats "STATS";
  check "stats json" Serve.Protocol.Stats_json "STATS json";
  check "strategy" (Serve.Protocol.Strategy "p(q)") "STRATEGY p(q)";
  check "snapshot" Serve.Protocol.Snapshot "SNAPSHOT";
  check "ping" Serve.Protocol.Ping "PING";
  check "quit" Serve.Protocol.Quit "QUIT";
  check "shutdown" Serve.Protocol.Shutdown "SHUTDOWN";
  check "empty" Serve.Protocol.Empty "   ";
  check "hello" Serve.Protocol.Hello "HELLO";
  check "hello v4 upgrade" Serve.Protocol.Hello_v4 "HELLO V4";
  check "hello v4 case-insensitive" Serve.Protocol.Hello_v4 "hello v4";
  check "hello with junk is malformed"
    (Serve.Protocol.Malformed "HELLO takes no argument") "HELLO V5";
  check "trace" (Serve.Protocol.Trace "p(a)") "TRACE p(a)";
  check "bare query is malformed"
    (Serve.Protocol.Malformed "QUERY needs an atom") "QUERY";
  check "bare trace is malformed"
    (Serve.Protocol.Malformed "TRACE needs an atom") "TRACE";
  check "ping with junk is malformed"
    (Serve.Protocol.Malformed "PING takes no argument") "PING now";
  check "unknown verb carries the verb" (Serve.Protocol.Unknown "FROBNICATE")
    "FROBNICATE 3";
  check "flight" Serve.Protocol.Flight "FLIGHT";
  check "flight lowercase" Serve.Protocol.Flight "flight";
  check "flight with junk is malformed"
    (Serve.Protocol.Malformed "FLIGHT takes no argument") "FLIGHT now";
  check_string "answer line" "ANSWER yes reductions=2 retrievals=2 switched"
    (Serve.Protocol.answer_line ~result:"yes" ~reductions:2 ~retrievals:2
       ~cached:false ~switched:true ());
  check_string "cached answer line"
    "ANSWER yes reductions=0 retrievals=0 cached switched"
    (Serve.Protocol.answer_line ~result:"yes" ~reductions:0 ~retrievals:0
       ~cached:true ~switched:true ());
  check_string "hello line carries version and learner"
    (Printf.sprintf "HELLO strategem/%d learner=pib" Serve.Protocol.version)
    (Serve.Protocol.hello_line ~learner:"pib" ());
  check_string "hello line takes a version override"
    "HELLO strategem/4 learner=pib"
    (Serve.Protocol.hello_line ~version:4 ~learner:"pib" ());
  check_string "err is structured and flattens newlines" "ERR internal a b"
    (Serve.Protocol.err ~code:`Internal "a\nb");
  check_string "err code renders" "ERR unknown-verb FROBNICATE"
    (Serve.Protocol.err ~code:`Unknown_verb "FROBNICATE")

(* The in-place parser must behave identically at any buffer offset, and
   never raise on any byte sequence. *)
let protocol_parse_sub_agrees =
  let gen =
    QCheck2.Gen.(
      string_size ~gen:(map Char.chr (int_range 1 255)) (int_bound 40))
  in
  qcheck ~count:500 "parse_sub agrees with parse at any offset" gen
    (fun line ->
      let reference = Serve.Protocol.parse line in
      let padded = Bytes.of_string ("XX" ^ line ^ "YY") in
      Serve.Protocol.parse_sub padded ~pos:2 ~len:(String.length line)
      = reference)

let protocol_parse_total =
  let gen =
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 60))
  in
  qcheck ~count:500 "parse never raises" gen (fun line ->
      match Serve.Protocol.parse line with _ -> true)

(* ---------- Frame (protocol v4) ---------- *)

let frame_kinds =
  [
    Serve.Frame.Hello; Serve.Frame.Query; Serve.Frame.Trace;
    Serve.Frame.Strategy; Serve.Frame.Stats; Serve.Frame.Stats_json;
    Serve.Frame.Snapshot; Serve.Frame.Ping; Serve.Frame.Help;
    Serve.Frame.Flight; Serve.Frame.Quit; Serve.Frame.Shutdown;
    Serve.Frame.Ok; Serve.Frame.Err; Serve.Frame.Busy; Serve.Frame.Bye;
  ]

let frame_roundtrip =
  let gen =
    QCheck2.Gen.(
      triple (int_bound 0xFFFF_FFFF)
        (oneofl frame_kinds)
        (string_size (int_bound 80)))
  in
  qcheck ~count:500 "v4 frame encode/decode round-trips" gen
    (fun (id, kind, payload) ->
      let f = { Serve.Frame.id; kind; payload } in
      let s = Serve.Frame.encode_string f in
      match
        Serve.Frame.decode (Bytes.of_string s) ~pos:0 ~limit:(String.length s)
      with
      | Serve.Frame.Frame (f', used) -> f' = f && used = String.length s
      | _ -> false)

(* A truncated frame must never decode, raise, or be misread: every
   strict prefix is Need_more, and decode at an offset inside a stream
   of two frames finds the second one. *)
let frame_truncation () =
  let f =
    { Serve.Frame.id = 42; kind = Serve.Frame.Query; payload = "relative(bob)" }
  in
  let s = Serve.Frame.encode_string f in
  for len = 0 to String.length s - 1 do
    match
      Serve.Frame.decode (Bytes.of_string (String.sub s 0 len)) ~pos:0
        ~limit:len
    with
    | Serve.Frame.Need_more need ->
      check_bool "need covers the missing bytes" true (need > len)
    | Serve.Frame.Frame _ -> Alcotest.fail "decoded a truncated frame"
    | Serve.Frame.Corrupt _ -> Alcotest.fail "truncation is not corruption"
  done;
  let two = s ^ s in
  (match
     Serve.Frame.decode (Bytes.of_string two) ~pos:(String.length s)
       ~limit:(String.length two)
   with
  | Serve.Frame.Frame (f', _) -> check_bool "second frame found" true (f' = f)
  | _ -> Alcotest.fail "offset decode failed");
  (* corruption is detected, not decoded *)
  (match Serve.Frame.decode (Bytes.of_string "garbage") ~pos:0 ~limit:7 with
  | Serve.Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let b = Bytes.of_string s in
  (* length field = max_payload + 1 *)
  Bytes.set b 6 '\x00';
  Bytes.set b 7 '\x40';
  Bytes.set b 8 '\x00';
  Bytes.set b 9 '\x01';
  match Serve.Frame.decode b ~pos:0 ~limit:(Bytes.length b) with
  | Serve.Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "hostile length accepted"

(* ---------- Metrics ---------- *)

let metrics_counters_and_histogram () =
  let m = Serve.Metrics.create () in
  Serve.Metrics.connection m;
  Serve.Metrics.busy m;
  Serve.Metrics.observe_queue_depth m 3;
  Serve.Metrics.observe_queue_depth m 1;
  let form = Serve.Metrics.form m "f_1_b" in
  for i = 1 to 100 do
    Serve.Metrics.query form ~latency_ns:(i * 1000) ~answered:(i mod 2 = 0)
      ~switched:(i = 50)
  done;
  check_int "queries" 100 (Serve.Metrics.queries_total m);
  check_int "climbs" 1 (Serve.Metrics.climbs_total m);
  check_int "busy" 1 (Serve.Metrics.busy_total m);
  check_int "queue high water" 3 (Serve.Metrics.queue_high_water m);
  let text = String.concat "\n" (Serve.Metrics.render_text m) in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "text has totals" true (contains "queries_total 100" text);
  check_bool "text has form line" true (contains "form f_1_b queries 100" text);
  let json = Serve.Metrics.render_json m in
  check_bool "json one line" true (not (String.contains json '\n'));
  check_bool "json has form" true (contains "\"f_1_b\"" json);
  check_bool "json has climbs" true (contains "\"climbs\":1" json)

(* The per-request bookkeeping a served query pays outside the engine:
   the FIFO-wait, queue-depth, pipeline-depth and per-form query
   updates, the loop's busy time, and the lifecycle finalize (flight
   events plus every stage histogram, WAL and page waits included). After
   one warm-up request, 1,000 requests allocate nothing. *)
let bookkeeping_allocates_nothing () =
  let m = Serve.Metrics.create () in
  let lh = Serve.Metrics.loop_handles m ~loop:0 in
  let form = Serve.Metrics.form m "instructor_1_b" in
  let flight = Obs.Flight.create ~capacity:64 in
  let n = 1_000 in
  let records =
    Array.init (n + 1) (fun i ->
        let t = 1_000_000 * (i + 1) in
        let lc =
          Serve.Lifecycle.create ~conn:1 ~rid:i ~loop:0 ~framed:true
            ~req:(Serve.Protocol.Query "instructor(manolis)") ~accept_ns:t
            ~frame_ns:(t + 1_000)
        in
        lc.Serve.Lifecycle.lc_queue_ns <- t + 2_000;
        lc.Serve.Lifecycle.lc_worker_ns <- t + 3_000;
        lc.Serve.Lifecycle.lc_respond_ns <- t + 9_000;
        lc.Serve.Lifecycle.lc_flush_ns <- t + 12_000;
        Serve.Lifecycle.add_wal_wait lc 500;
        Serve.Lifecycle.add_page_wait lc 700;
        lc)
  in
  let serve (lc : Serve.Lifecycle.t) =
    let w = lc.Serve.Lifecycle.lc_worker_ns
    and r = lc.Serve.Lifecycle.lc_respond_ns in
    Serve.Metrics.set_pipeline_depth m 1;
    Serve.Metrics.observe_queue_depth m 1;
    Serve.Metrics.queue_waited m ~wait_ns:(w - lc.Serve.Lifecycle.lc_queue_ns);
    Serve.Metrics.query form ~latency_ns:(r - w) ~answered:true
      ~switched:false;
    Serve.Metrics.loop_served lh ~busy_ns:(r - w);
    Serve.Metrics.set_pipeline_depth m 0;
    Serve.Lifecycle.finalize lc ~flight lh;
    Serve.Metrics.lifecycle_finalized m
  in
  serve records.(0);
  let before = Gc.minor_words () in
  for i = 1 to n do
    serve records.(i)
  done;
  let words = Gc.minor_words () -. before in
  if words > 0.0 then
    Alcotest.failf "%.0f minor words for %d requests (budget: 0)" words n;
  check_int "every query counted" (n + 1) (Serve.Metrics.queries_total m)

(* The learner gauges are pulled from the learner at render time: after
   a stream that climbs, each /metrics gauge equals the learner's own
   progress reading. *)
let learner_gauges_read_at_render () =
  let rulebase, db = kb () in
  let m = Serve.Metrics.create () in
  let reg = Serve.Registry.create ~rulebase m in
  let manolis = D.Parser.parse_atom "instructor(manolis)" in
  for _ = 1 to 200 do
    ignore (Serve.Registry.answer reg ~db manolis)
  done;
  let entry = List.hd (Serve.Registry.entries reg) in
  let p =
    Serve.Registry.with_live entry (fun live ->
        Core.Learner.progress (Core.Live.learner live))
  in
  check_bool "the stream climbed" true (p.Core.Learner.climbs > 0);
  let samples = Obs.Expo.parse_samples (Serve.Metrics.render_prometheus m) in
  let gauge name =
    match
      List.find_opt
        (fun s ->
          s.Obs.Expo.metric = name
          && s.Obs.Expo.labels = [ ("form", "instructor_1_b") ])
        samples
    with
    | Some s -> s.Obs.Expo.value
    | None -> Alcotest.failf "no %s sample for instructor_1_b" name
  in
  (* compared as exposed: rendered to 12 significant digits *)
  let check_gauge name v =
    check_string (name ^ " equals the learner's reading")
      (Obs.Expo.float_str v)
      (Obs.Expo.float_str (gauge name))
  in
  check_gauge "strategem_learner_samples" (float_of_int p.Core.Learner.samples);
  check_gauge "strategem_learner_samples_total"
    (float_of_int p.Core.Learner.samples_total);
  check_gauge "strategem_learner_climbs" (float_of_int p.Core.Learner.climbs);
  check_gauge "strategem_learner_epsilon" p.Core.Learner.epsilon;
  check_gauge "strategem_learner_delta" p.Core.Learner.delta;
  check_gauge "strategem_learner_finished"
    (if p.Core.Learner.finished then 1.0 else 0.0);
  check_int "samples_total counts every query" 200
    p.Core.Learner.samples_total

(* Golden lock on the cache, memo and store statistics: the STATS lines,
   the STATS JSON blocks and the Prometheus families, byte for byte.
   Every reading is distinct and non-zero so a field read from the wrong
   counter shows; the subsumption keys always read 0; the checkpoint lies
   in the future so its age clamps to 0. *)

let golden_cache =
  {
    Serve.Metrics.answers =
      {
        Cache.Answers.hits = 11;
        misses = 12;
        evictions = 13;
        invalidations = 14;
        entries = 15;
        bytes = 16;
        capacity_bytes = 17;
      };
    memo =
      {
        D.Sld.Memo.hits = 18;
        misses = 19;
        invalidations = 20;
        entries = 21;
      };
  }

let golden_store () =
  {
    Store.page_size = 4096;
    pages = 31;
    pool_pages = 32;
    pool_hits = 33;
    pool_misses = 34;
    pool_evictions = 35;
    page_reads = 36;
    page_writes = 37;
    wal_bytes = 38;
    wal_appends = 39;
    wal_syncs = 40;
    checkpoints = 41;
    checkpoint_unix = Unix.gettimeofday () +. 3600.0;
    facts = 42;
    symbols = 43;
    generation = 44;
  }

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let block_lines m =
  List.filter
    (fun l ->
      List.exists (fun p -> has_prefix p l) [ "cache_"; "memo_"; "store_" ])
    (Serve.Metrics.render_text m)

(* From the ["cache"] key up to the ["forms"] block: the cache and store
   JSON blocks, or [""] when neither is rendered. *)
let json_blocks m =
  let json = Serve.Metrics.render_json m in
  let find needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length json then None
      else if String.sub json i n = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  match (find "\"cache\":", find "\"forms\":") with
  | Some a, Some b -> String.sub json a (b - a)
  | None, Some b -> (
    match find "\"store\":" with
    | Some a -> String.sub json a (b - a)
    | None -> "")
  | _ -> Alcotest.fail "no forms block"

(* The exposition lines of the 34 block families (HELP, TYPE and sample),
   or only their samples. *)
let prom_lines ?(samples_only = false) m =
  String.split_on_char '\n' (Serve.Metrics.render_prometheus m)
  |> List.filter (fun l ->
         let l' =
           if has_prefix "# HELP " l || has_prefix "# TYPE " l then
             if samples_only then "" else String.sub l 7 (String.length l - 7)
           else l
         in
         List.exists
           (fun p -> has_prefix p l')
           [ "strategem_cache_"; "strategem_memo_"; "strategem_store_" ]
         && not (has_prefix "strategem_cache_filter_latency_us" l'))

let check_lines name expected got =
  Alcotest.(check (list string)) name expected got

let metrics_blocks_golden () =
  let m = Serve.Metrics.create () in
  Serve.Metrics.set_cache_provider m (fun () -> Some golden_cache);
  Serve.Metrics.set_store_provider m (fun () -> Some (golden_store ()));
  check_lines "STATS block lines"
    [
      "cache_enabled 1";
      "cache_hits 11";
      "cache_misses 12";
      "cache_evictions 13";
      "cache_invalidations 14";
      "cache_entries 15";
      "cache_bytes 16";
      "cache_capacity_bytes 17";
      "memo_hits 18";
      "memo_misses 19";
      "memo_invalidations 20";
      "memo_entries 21";
      "cache_subsume_enabled 0";
      "cache_derived_hits 0";
      "cache_derived_scan_entries 0";
      "cache_subsume_misses 0";
      "cache_index_keys 0";
      "store_enabled 1";
      "store_page_size_bytes 4096";
      "store_pages 31";
      "store_pool_pages 32";
      "store_pool_hits 33";
      "store_pool_misses 34";
      "store_pool_evictions 35";
      "store_page_reads 36";
      "store_page_writes 37";
      "store_wal_bytes 38";
      "store_wal_appends 39";
      "store_wal_syncs 40";
      "store_checkpoints 41";
      "store_checkpoint_age_seconds 0";
      "store_facts 42";
      "store_symbols 43";
      "store_generation 44";
    ]
    (block_lines m);
  check_string "STATS JSON blocks"
    "\"cache\":{\"version\":1,\"enabled\":true,\"hits\":11,\"misses\":12,\
     \"evictions\":13,\"invalidations\":14,\"entries\":15,\"bytes\":16,\
     \"capacity_bytes\":17,\"memo\":{\"hits\":18,\"misses\":19,\
     \"invalidations\":20,\"entries\":21},\"subsume\":{\"enabled\":false,\
     \"derived_hits\":0,\"derived_scan_entries\":0,\"subsume_misses\":0,\
     \"index_keys\":0}},\"store\":{\"version\":1,\"page_size_bytes\":4096,\
     \"pages\":31,\"pool_pages\":32,\"pool_hits\":33,\"pool_misses\":34,\
     \"pool_evictions\":35,\"page_reads\":36,\"page_writes\":37,\
     \"wal_bytes\":38,\"wal_appends\":39,\"wal_syncs\":40,\
     \"checkpoints\":41,\"checkpoint_age_seconds\":0,\"facts\":42,\
     \"symbols\":43,\"generation\":44},"
    (json_blocks m);
  check_lines "Prometheus block families"
    [
      "# HELP strategem_cache_bytes Answer-cache resident bytes (estimated)";
      "# TYPE strategem_cache_bytes gauge";
      "strategem_cache_bytes 16";
      "# HELP strategem_cache_capacity_bytes Answer-cache capacity in bytes";
      "# TYPE strategem_cache_capacity_bytes gauge";
      "strategem_cache_capacity_bytes 17";
      "# HELP strategem_cache_derived_hits_total Always 0: \
       subsumption-based answer reuse was removed";
      "# TYPE strategem_cache_derived_hits_total counter";
      "strategem_cache_derived_hits_total 0";
      "# HELP strategem_cache_derived_scan_entries_total Always 0: \
       subsumption-based answer reuse was removed";
      "# TYPE strategem_cache_derived_scan_entries_total counter";
      "strategem_cache_derived_scan_entries_total 0";
      "# HELP strategem_cache_enabled 1 when the answer cache is on";
      "# TYPE strategem_cache_enabled gauge";
      "strategem_cache_enabled 1";
      "# HELP strategem_cache_entries Answer-cache resident entries";
      "# TYPE strategem_cache_entries gauge";
      "strategem_cache_entries 15";
      "# HELP strategem_cache_evictions_total Answer-cache LRU evictions";
      "# TYPE strategem_cache_evictions_total counter";
      "strategem_cache_evictions_total 13";
      "# HELP strategem_cache_hits_total Answer-cache hits";
      "# TYPE strategem_cache_hits_total counter";
      "strategem_cache_hits_total 11";
      "# HELP strategem_cache_index_keys Always 0: subsumption-based answer \
       reuse was removed";
      "# TYPE strategem_cache_index_keys gauge";
      "strategem_cache_index_keys 0";
      "# HELP strategem_cache_invalidations_total Answer-cache entries \
       dropped after DB mutations";
      "# TYPE strategem_cache_invalidations_total counter";
      "strategem_cache_invalidations_total 14";
      "# HELP strategem_cache_misses_total Answer-cache misses";
      "# TYPE strategem_cache_misses_total counter";
      "strategem_cache_misses_total 12";
      "# HELP strategem_cache_subsume_enabled Always 0: subsumption-based \
       answer reuse was removed";
      "# TYPE strategem_cache_subsume_enabled gauge";
      "strategem_cache_subsume_enabled 0";
      "# HELP strategem_cache_subsume_misses_total Always 0: \
       subsumption-based answer reuse was removed";
      "# TYPE strategem_cache_subsume_misses_total counter";
      "strategem_cache_subsume_misses_total 0";
      "# HELP strategem_memo_entries Subgoal-memo resident entries";
      "# TYPE strategem_memo_entries gauge";
      "strategem_memo_entries 21";
      "# HELP strategem_memo_hits_total Subgoal-memo hits";
      "# TYPE strategem_memo_hits_total counter";
      "strategem_memo_hits_total 18";
      "# HELP strategem_memo_invalidations_total Subgoal-memo invalidations";
      "# TYPE strategem_memo_invalidations_total counter";
      "strategem_memo_invalidations_total 20";
      "# HELP strategem_memo_misses_total Subgoal-memo misses";
      "# TYPE strategem_memo_misses_total counter";
      "strategem_memo_misses_total 19";
      "# HELP strategem_store_checkpoint_age_seconds Seconds since the last \
       checkpoint (or open)";
      "# TYPE strategem_store_checkpoint_age_seconds gauge";
      "strategem_store_checkpoint_age_seconds 0";
      "# HELP strategem_store_checkpoints_total Checkpoints taken this run";
      "# TYPE strategem_store_checkpoints_total counter";
      "strategem_store_checkpoints_total 41";
      "# HELP strategem_store_enabled 1 when the database is backed by the \
       paged store";
      "# TYPE strategem_store_enabled gauge";
      "strategem_store_enabled 1";
      "# HELP strategem_store_facts Facts in the paged store";
      "# TYPE strategem_store_facts gauge";
      "strategem_store_facts 42";
      "# HELP strategem_store_generation Persistent database generation";
      "# TYPE strategem_store_generation gauge";
      "strategem_store_generation 44";
      "# HELP strategem_store_page_reads_total Pages read from disk";
      "# TYPE strategem_store_page_reads_total counter";
      "strategem_store_page_reads_total 36";
      "# HELP strategem_store_page_size_bytes Paged-store page size";
      "# TYPE strategem_store_page_size_bytes gauge";
      "strategem_store_page_size_bytes 4096";
      "# HELP strategem_store_page_writes_total Dirty pages spilled to disk";
      "# TYPE strategem_store_page_writes_total counter";
      "strategem_store_page_writes_total 37";
      "# HELP strategem_store_pages Pages allocated (checkpoint image plus \
       growth)";
      "# TYPE strategem_store_pages gauge";
      "strategem_store_pages 31";
      "# HELP strategem_store_pool_evictions_total Buffer-pool evictions";
      "# TYPE strategem_store_pool_evictions_total counter";
      "strategem_store_pool_evictions_total 35";
      "# HELP strategem_store_pool_hits_total Buffer-pool hits";
      "# TYPE strategem_store_pool_hits_total counter";
      "strategem_store_pool_hits_total 33";
      "# HELP strategem_store_pool_misses_total Buffer-pool misses";
      "# TYPE strategem_store_pool_misses_total counter";
      "strategem_store_pool_misses_total 34";
      "# HELP strategem_store_pool_pages Buffer-pool frames";
      "# TYPE strategem_store_pool_pages gauge";
      "strategem_store_pool_pages 32";
      "# HELP strategem_store_symbols Symbols in the persistent catalog";
      "# TYPE strategem_store_symbols gauge";
      "strategem_store_symbols 43";
      "# HELP strategem_store_wal_appends_total WAL records appended";
      "# TYPE strategem_store_wal_appends_total counter";
      "strategem_store_wal_appends_total 39";
      "# HELP strategem_store_wal_bytes WAL bytes since the last checkpoint";
      "# TYPE strategem_store_wal_bytes gauge";
      "strategem_store_wal_bytes 38";
      "# HELP strategem_store_wal_syncs_total WAL group-commit fsyncs";
      "# TYPE strategem_store_wal_syncs_total counter";
      "strategem_store_wal_syncs_total 40";
    ]
    (prom_lines m)

let metrics_blocks_golden_off () =
  (* A cacheless daemon: the provider reports all zeros, no store. *)
  let m = Serve.Metrics.create () in
  Serve.Metrics.set_cache_provider m (fun () -> None);
  check_lines "STATS block lines, cache off"
    [
      "cache_enabled 0";
      "cache_hits 0";
      "cache_misses 0";
      "cache_evictions 0";
      "cache_invalidations 0";
      "cache_entries 0";
      "cache_bytes 0";
      "cache_capacity_bytes 0";
      "memo_hits 0";
      "memo_misses 0";
      "memo_invalidations 0";
      "memo_entries 0";
      "cache_subsume_enabled 0";
      "cache_derived_hits 0";
      "cache_derived_scan_entries 0";
      "cache_subsume_misses 0";
      "cache_index_keys 0";
    ]
    (block_lines m);
  check_string "STATS JSON blocks, cache off"
    "\"cache\":{\"version\":1,\"enabled\":false,\"hits\":0,\"misses\":0,\
     \"evictions\":0,\"invalidations\":0,\"entries\":0,\"bytes\":0,\
     \"capacity_bytes\":0,\"memo\":{\"hits\":0,\"misses\":0,\
     \"invalidations\":0,\"entries\":0},\"subsume\":{\"enabled\":false,\
     \"derived_hits\":0,\"derived_scan_entries\":0,\"subsume_misses\":0,\
     \"index_keys\":0}},"
    (json_blocks m);
  check_lines "Prometheus block samples, cache off, no store"
    [
      "strategem_cache_bytes 0";
      "strategem_cache_capacity_bytes 0";
      "strategem_cache_derived_hits_total 0";
      "strategem_cache_derived_scan_entries_total 0";
      "strategem_cache_enabled 0";
      "strategem_cache_entries 0";
      "strategem_cache_evictions_total 0";
      "strategem_cache_hits_total 0";
      "strategem_cache_index_keys 0";
      "strategem_cache_invalidations_total 0";
      "strategem_cache_misses_total 0";
      "strategem_cache_subsume_enabled 0";
      "strategem_cache_subsume_misses_total 0";
      "strategem_memo_entries 0";
      "strategem_memo_hits_total 0";
      "strategem_memo_invalidations_total 0";
      "strategem_memo_misses_total 0";
      "strategem_store_checkpoint_age_seconds 0";
      "strategem_store_checkpoints_total 0";
      "strategem_store_enabled 0";
      "strategem_store_facts 0";
      "strategem_store_generation 0";
      "strategem_store_page_reads_total 0";
      "strategem_store_page_size_bytes 0";
      "strategem_store_page_writes_total 0";
      "strategem_store_pages 0";
      "strategem_store_pool_evictions_total 0";
      "strategem_store_pool_hits_total 0";
      "strategem_store_pool_misses_total 0";
      "strategem_store_pool_pages 0";
      "strategem_store_symbols 0";
      "strategem_store_wal_appends_total 0";
      "strategem_store_wal_bytes 0";
      "strategem_store_wal_syncs_total 0";
    ]
    (prom_lines ~samples_only:true m);
  (* No provider at all: neither block is rendered. *)
  let bare = Serve.Metrics.create () in
  check_lines "STATS block lines, no providers" [] (block_lines bare);
  check_string "STATS JSON blocks, no providers" "" (json_blocks bare)

(* Whole-output lock on everything outside the cache/store table: the
   full STATS text (form lines included), the full STATS JSON and every
   other Prometheus family, for a [Metrics.t] driven through the public
   API to distinct non-zero readings. Two forms get their strategies
   from real learners (the bound one climbs to grad-first); two loops
   carry per-loop readings. The open-connection and wake counts and the
   current pipeline depth read 0: outside a running server nothing owns
   them. Only the uptime values are masked. STATS is rendered twice: the
   second read finds the windowed high water reset to 0, and each later
   read sees only the depths observed since. The expected output is
   [metrics_golden.expected]. *)

let mask_uptime_line l =
  List.fold_left
    (fun l p -> if has_prefix p l then p ^ "_" else l)
    l
    [ "uptime_seconds "; "strategem_uptime_seconds " ]

let mask_uptime_json json =
  let key = "\"uptime_seconds\":" in
  let n = String.length key in
  let rec find i =
    if String.sub json i n = key then i + n else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length json && json.[!stop] >= '0' && json.[!stop] <= '9'
  do
    incr stop
  done;
  String.sub json 0 start ^ "_"
  ^ String.sub json !stop (String.length json - !stop)

(* The exposition lines of every family outside the cache/store table. *)
let prom_rest m =
  String.split_on_char '\n' (Serve.Metrics.render_prometheus m)
  |> List.filter (fun l ->
         let l' =
           if has_prefix "# HELP " l || has_prefix "# TYPE " l then
             String.sub l 7 (String.length l - 7)
           else l
         in
         l <> ""
         && (has_prefix "strategem_cache_filter_latency_us" l'
            || not
                 (List.exists
                    (fun p -> has_prefix p l')
                    [ "strategem_cache_"; "strategem_memo_"; "strategem_store_" ])))
  |> List.map mask_uptime_line

let golden_metrics () =
  let rulebase, db = kb () in
  let m = Serve.Metrics.create () in
  let reg = Serve.Registry.create ~rulebase m in
  for _ = 1 to 200 do
    ignore
      (Serve.Registry.answer reg ~db (D.Parser.parse_atom "instructor(manolis)"))
  done;
  ignore (Serve.Registry.answer reg ~db (D.Parser.parse_atom "instructor(X)"));
  let bound, free =
    match Serve.Registry.entries reg with
    | [ b; f ] -> (Serve.Registry.metrics b, Serve.Registry.metrics f)
    | _ -> Alcotest.fail "expected two forms"
  in
  List.iteri
    (fun i us ->
      Serve.Metrics.query bound ~latency_ns:(us * 1000) ~answered:(i <> 3)
        ~switched:(i = 2))
    [ 3; 5; 9; 17; 33; 65; 129 ];
  List.iteri
    (fun i us ->
      Serve.Metrics.query free ~latency_ns:(us * 1000) ~answered:(i < 2)
        ~switched:(i <> 1))
    [ 250; 700; 1500 ];
  let times n f = for _ = 1 to n do f () done in
  times 17 (fun () -> Serve.Metrics.connection m);
  times 4 (fun () -> Serve.Metrics.busy m);
  times 6 (fun () -> Serve.Metrics.error m);
  List.iter (fun forms -> Serve.Metrics.snapshot_saved m ~forms) [ 5; 8; 10 ];
  Serve.Metrics.forms_loaded m 11;
  Serve.Metrics.observe_queue_depth m 12;
  Serve.Metrics.observe_queue_depth m 9;
  List.iter
    (fun us -> Serve.Metrics.queue_waited m ~wait_ns:(us * 1000))
    [ 10; 20; 40; 80; 160; 320; 640; 1280; 2560; 5120; 10; 20; 40 ];
  List.iter (Serve.Metrics.set_pipeline_depth m) [ 1; 14; 7; 0 ];
  Serve.Metrics.set_backend m "epoll";
  Serve.Metrics.set_loops m 2;
  let l0 = Serve.Metrics.loop_handles m ~loop:0 in
  let l1 = Serve.Metrics.loop_handles m ~loop:1 in
  Serve.Metrics.set_loop_pipeline_depth l0 19;
  Serve.Metrics.set_loop_pipeline_depth l1 23;
  List.iter (fun ns -> Serve.Metrics.loop_served l0 ~busy_ns:ns)
    [ 40_000; 90_000 ];
  Serve.Metrics.loop_served l1 ~busy_ns:700_000;
  Serve.Metrics.observe_stage l0 Serve.Metrics.Total 300_000;
  Serve.Metrics.observe_stage l0 Serve.Metrics.Queue 5_000;
  Serve.Metrics.observe_stage l1 Serve.Metrics.Page_read 2_000_000;
  Serve.Metrics.write_overflow m ~shed_bytes:4096;
  Serve.Metrics.write_overflow m ~shed_bytes:100;
  times 25 (fun () -> Serve.Metrics.idle_closed m);
  times 27 (fun () -> Serve.Metrics.ip_limited m);
  times 29 (fun () -> Serve.Metrics.lifecycle_finalized m);
  times 31 (fun () -> Serve.Metrics.slow_query m);
  Serve.Metrics.trace_retained m l0 ~reason:"slow" ~seq:3;
  Serve.Metrics.trace_retained m l1 ~reason:"error" ~seq:8;
  Serve.Metrics.trace_retained m l1 ~reason:"shed" ~seq:9;
  Serve.Metrics.trace_retained m l1 ~reason:"shed" ~seq:10;
  m

let metrics_whole_golden () =
  let m = golden_metrics () in
  let text () = List.map mask_uptime_line (Serve.Metrics.render_text m) in
  let first = text () in
  let second = text () in
  Serve.Metrics.observe_queue_depth m 2;
  let json =
    mask_uptime_json (Serve.Metrics.render_json ~recent_traces:[ "{}" ] m)
  in
  Serve.Metrics.observe_queue_depth m 3;
  let prom = prom_rest m in
  let expected =
    In_channel.with_open_bin "metrics_golden.expected" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  check_lines "STATS twice, STATS JSON, /metrics" expected
    (first @ [ "----" ] @ second @ [ "----"; json; "----" ] @ prom)

(* ---------- Registry ---------- *)

let registry_forms () =
  let q = D.Parser.parse_atom "instructor(manolis)" in
  let form = Serve.Registry.form_of_query q in
  check_string "canonical form" "instructor(q)" (D.Atom.to_string form);
  check_string "key" "instructor_1_b" (Serve.Registry.key_of_form form);
  let free = Serve.Registry.form_of_query (D.Parser.parse_atom "instructor(X)") in
  check_string "free key" "instructor_1_f" (Serve.Registry.key_of_form free)

let registry_shares_and_learns () =
  let rulebase, db = kb () in
  let m = Serve.Metrics.create () in
  let reg = Serve.Registry.create ~rulebase m in
  let ans =
    Serve.Registry.answer reg ~db (D.Parser.parse_atom "instructor(russ)")
  in
  check_bool "russ answered" true (ans.Core.Live.result <> None);
  ignore
    (Serve.Registry.answer reg ~db (D.Parser.parse_atom "instructor(fred)"));
  check_int "one entry for both constants" 1
    (List.length (Serve.Registry.entries reg));
  (* a grad-heavy stream flips the learned order to grad-first *)
  let switched = ref false in
  for _ = 1 to 200 do
    let a =
      Serve.Registry.answer reg ~db (D.Parser.parse_atom "instructor(manolis)")
    in
    if a.Core.Live.switched then switched := true
  done;
  check_bool "climbed" true !switched;
  let e = List.hd (Serve.Registry.entries reg) in
  let s = Serve.Registry.strategy_string e in
  check_bool "grad-first strategy" true
    (String.length s > 2 && String.sub s 3 17 = "R_instructor_grad")

(* ---------- Snapshot ---------- *)

let temp_dir () =
  let d = Filename.temp_file "strategem" ".state" in
  Sys.remove d;
  d

let snapshot_file dir =
  In_channel.with_open_bin (Filename.concat dir "strategies")
    In_channel.input_all

let snapshot_lines dir = String.split_on_char '\n' (snapshot_file dir)

(* (key, strategy) per form, in key order *)
let learned_strategies reg =
  Serve.Registry.entries reg
  |> List.map (fun e ->
         (Serve.Registry.key e, Serve.Registry.strategy_string e))

let snapshot_roundtrip () =
  let rulebase, db = kb () in
  let dir = temp_dir () in
  let m = Serve.Metrics.create () in
  let reg = Serve.Registry.create ~rulebase m in
  for _ = 1 to 200 do
    ignore
      (Serve.Registry.answer reg ~db (D.Parser.parse_atom "instructor(manolis)"))
  done;
  let learned =
    Serve.Registry.strategy_string (List.hd (Serve.Registry.entries reg))
  in
  check_int "saved one form" 1 (Serve.Snapshot.save ~dir reg);
  (* a fresh registry (a restarted server) resumes the learned strategy *)
  let reg' = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  check_int "loaded one form" 1 (Serve.Snapshot.load ~dir reg');
  let resumed =
    Serve.Registry.strategy_string (List.hd (Serve.Registry.entries reg'))
  in
  check_string "strategy resumed" learned resumed;
  (* load into yet another registry from a missing dir is a no-op *)
  check_int "missing dir" 0
    (Serve.Snapshot.load ~dir:(dir ^ ".nope")
       (Serve.Registry.create ~rulebase (Serve.Metrics.create ())))

(* ---------- Server end to end (in-process TCP) ---------- *)

let server_config ?(loops = 2) ?(queue_depth = 8) ?max_conns ?state_dir
    ?(idle_timeout_s = 0.0) ?(max_conns_per_ip = 0) ?max_write_buf () =
  {
    Serve.Server.default_config with
    port = 0;
    queue_depth;
    max_conns =
      Option.value max_conns ~default:Serve.Server.default_config.max_conns;
    state_dir;
    loops;
    idle_timeout_s;
    max_conns_per_ip;
    max_write_buf =
      Option.value max_write_buf
        ~default:Serve.Server.default_config.max_write_buf;
  }

let start_server ?loops ?queue_depth ?max_conns ?state_dir ?idle_timeout_s
    ?max_conns_per_ip ?max_write_buf () =
  let rulebase, db = kb () in
  let port = Atomic.make 0 in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run
          ~on_listen:(fun p -> Atomic.set port p)
          (server_config ?loops ?queue_depth ?max_conns ?state_dir
             ?idle_timeout_s ?max_conns_per_ip ?max_write_buf ())
          ~rulebase ~db)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if Atomic.get port = 0 then Alcotest.fail "server did not start";
  (thread, Atomic.get port)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* One-shot conversation: send every line, half-close, read every reply. *)
let talk port lines =
  let fd, ic, oc = connect port in
  List.iter (send oc) lines;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let replies = In_channel.input_lines ic in
  close_in_noerr ic;
  replies

let server_concurrent_clients () =
  let thread, port = start_server ~loops:2 () in
  (* Client A holds its connection open; client B must still be
     answered. *)
  let _fd_a, ic_a, oc_a = connect port in
  check_bool "A ping" true (send oc_a "PING"; input_line ic_a = "PONG");
  let replies = talk port [ "QUERY instructor(manolis)"; "QUERY nonsense(" ] in
  check_bool "B answered while A held a worker" true
    (match replies with
    | [ a; b ] ->
      a = "ANSWER yes reductions=2 retrievals=2"
      && String.length b >= 3
      && String.sub b 0 3 = "ERR"
    | _ -> false);
  (* hammer it from two threads at once; all queries must be answered *)
  let n = 50 in
  let one_client () =
    let replies =
      talk port (List.init n (fun _ -> "QUERY instructor(manolis)"))
    in
    List.length (List.filter (fun r -> String.sub r 0 6 = "ANSWER") replies)
  in
  let count_b = ref 0 in
  let t = Thread.create (fun () -> count_b := one_client ()) () in
  let count_a = one_client () in
  Thread.join t;
  check_int "all of A's queries answered" n count_a;
  check_int "all of B's queries answered" n !count_b;
  send oc_a "QUIT";
  check_bool "A said bye" true (input_line ic_a = "BYE");
  close_in_noerr ic_a;
  let replies = talk port [ "STATS"; "SHUTDOWN" ] in
  check_bool "stats then bye" true
    (List.mem "END" replies && List.mem "BYE" replies);
  (* the parse-error line counts as an error, not a query *)
  check_bool "stats counted the queries" true
    (List.exists (fun l -> l = Printf.sprintf "queries_total %d" ((2 * n) + 1))
       replies);
  check_bool "stats counted the error" true
    (List.mem "errors_total 1" replies);
  Thread.join thread

let server_sheds_when_full () =
  (* connection-granular shedding: past [max_conns] the accept itself is
     refused with BUSY and the socket closed; established connections
     are untouched. *)
  let thread, port = start_server ~max_conns:1 () in
  let fd_a, ic_a, oc_a = connect port in
  send oc_a "PING";
  check_string "first conn served" "PONG" (input_line ic_a);
  let _fd_b, ic_b, _oc_b = connect port in
  check_string "second conn shed" "BUSY" (input_line ic_b);
  check_bool "and closed" true
    (match input_line ic_b with
    | _ -> false
    | exception End_of_file -> true);
  close_in_noerr ic_b;
  send oc_a "SHUTDOWN";
  check_string "survivor still served" "BYE" (input_line ic_a);
  close_in_noerr ic_a;
  ignore fd_a;
  Thread.join thread

(* A server over the genealogy workload, whose free query
   [relative(X)] is slow enough to keep a loop busy for a while. *)
let start_genealogy_server ~loops ~queue_depth () =
  let rulebase = Workload.Genealogy.rulebase () in
  let pop = Workload.Genealogy.populate (Stats.Rng.create 5L) ~n_people:2_000 in
  let db = Workload.Genealogy.db pop in
  let people = Workload.Genealogy.people pop in
  let port = Atomic.make 0 in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run
          ~on_listen:(fun p -> Atomic.set port p)
          (server_config ~loops ~queue_depth ())
          ~rulebase ~db)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if Atomic.get port = 0 then Alcotest.fail "server did not start";
  (thread, Atomic.get port, people)

let server_v4_busy_keeps_conn () =
  (* request-granular shedding on a framed connection: a shed request
     answers with a Busy frame carrying its id, and the connection
     stays open. *)
  let thread, port, people =
    start_genealogy_server ~loops:1 ~queue_depth:1 ()
  in
  let c = Serve.Client.connect ~proto:`V4 ~port () in
  (* the free query and six more in one write: the loop parses the whole
     burst before it runs any of it, so the depth-1 FIFO takes the first
     and the rest overflow it, however fast the first one runs *)
  let posted =
    Serve.Client.post_batch c
      ("QUERY relative(X)"
      :: List.init 6 (fun i ->
             Printf.sprintf "QUERY relative(%s)" (List.nth people i)))
  in
  let slow = List.hd posted in
  let responses = List.map (fun _ -> Serve.Client.recv c) posted in
  check_bool "every response id was posted" true
    (List.sort compare (List.map fst responses) = List.sort compare posted);
  check_bool "at least one request shed" true
    (List.exists (fun (_, lines) -> lines = [ "BUSY" ]) responses);
  check_bool "the slow query still answered" true
    (List.exists
       (fun (id, lines) ->
         id = slow
         &&
         match lines with
         | [ l ] -> String.length l >= 6 && String.sub l 0 6 = "ANSWER"
         | _ -> false)
       responses);
  (* shedding did not cost the connection *)
  check_string "conn still usable" "PONG" (Serve.Client.request c "PING");
  check_string "drains on shutdown" "BYE" (Serve.Client.request c "SHUTDOWN");
  Serve.Client.close c;
  Thread.join thread

let server_v4_pipelining () =
  (* the queue must hold the whole window, or shedding kicks in (that
     path has its own test) *)
  let thread, port = start_server ~loops:2 ~queue_depth:64 () in
  let c = Serve.Client.connect ~proto:`Auto ~port () in
  check_bool "auto negotiated v4" true (Serve.Client.protocol c = `V4);
  let banner = Serve.Client.request c "HELLO" in
  check_bool "framed banner carries the v4 version" true
    (String.length banner >= 18
    && String.sub banner 0 18
       = Printf.sprintf "HELLO strategem/%d " Serve.Frame.version);
  let n = 32 in
  let ids =
    List.init n (fun _ -> Serve.Client.post c "QUERY instructor(manolis)")
  in
  let got = List.init n (fun _ -> Serve.Client.recv c) in
  check_bool "all 32 ids answered exactly once" true
    (List.sort compare (List.map fst got) = List.sort compare ids);
  check_bool "every reply is an answer" true
    (List.for_all
       (fun (_, lines) ->
         match lines with
         | [ l ] -> String.length l >= 6 && String.sub l 0 6 = "ANSWER"
         | _ -> false)
       got);
  let stats = Serve.Client.command c "STATS" in
  let has prefix l =
    String.length l >= String.length prefix
    && String.sub l 0 (String.length prefix) = prefix
  in
  check_bool "stats reports conns_open" true
    (List.exists (has "conns_open ") stats);
  check_bool "stats reports the pipeline high water" true
    (List.exists (has "pipeline_depth_high_water ") stats);
  check_string "quit closes the framed conn" "BYE"
    (Serve.Client.request c "QUIT");
  Serve.Client.close c;
  let c2 = Serve.Client.connect ~proto:`Lines ~port () in
  ignore (Serve.Client.command c2 "SHUTDOWN");
  Serve.Client.close c2;
  Thread.join thread

let server_slow_frame () =
  (* slowloris: one frame dripped in three installments must not block
     the loop (other connections stay live) and must still be answered;
     junk after it on the same (now framed) connection draws a
     structured error, then close. *)
  let thread, port = start_server ~loops:2 () in
  let fd, ic, oc = connect port in
  let frame =
    Serve.Frame.encode_string
      { Serve.Frame.id = 9; kind = Serve.Frame.Query;
        payload = "instructor(russ)" }
  in
  let len = String.length frame in
  output_string oc (String.sub frame 0 3);
  flush oc;
  Thread.delay 0.05;
  check_bool "server responsive mid-frame" true (talk port [ "PING" ] = [ "PONG" ]);
  output_string oc (String.sub frame 3 4);
  flush oc;
  Thread.delay 0.05;
  output_string oc (String.sub frame 7 (len - 7));
  flush oc;
  let reply = Serve.Frame.read ic in
  check_int "dripped frame id echoed" 9 reply.Serve.Frame.id;
  check_bool "dripped frame answered" true
    (reply.Serve.Frame.kind = Serve.Frame.Ok
    && String.length reply.Serve.Frame.payload >= 6
    && String.sub reply.Serve.Frame.payload 0 6 = "ANSWER");
  send oc "garbage";
  (match Serve.Frame.read ic with
  | f -> check_bool "junk drew an error frame" true (f.Serve.Frame.kind = Serve.Frame.Err)
  | exception (End_of_file | Failure _) -> ());
  close_in_noerr ic;
  ignore fd;
  ignore (talk port [ "SHUTDOWN" ]);
  Thread.join thread

let client_falls_back_to_lines () =
  (* a fake pre-v4 daemon: line protocol only, where HELLO V4 parses as
     a malformed HELLO — exactly what a historical server answers. *)
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 1;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept srv in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (try
           while true do
             let line = String.trim (input_line ic) in
             (match String.uppercase_ascii line with
             | "HELLO V4" ->
               output_string oc "ERR malformed HELLO takes no argument\n"
             | "PING" -> output_string oc "PONG\n"
             | "QUIT" -> output_string oc "BYE\n"
             | _ -> output_string oc "ERR unknown-verb\n");
             flush oc
           done
         with End_of_file | Sys_error _ -> ());
        close_in_noerr ic)
      ()
  in
  let c = Serve.Client.connect ~proto:`Auto ~port () in
  check_bool "fell back to the line dialect" true
    (Serve.Client.protocol c = `Lines);
  check_string "and the fallback conn works" "PONG"
    (Serve.Client.request c "PING");
  check_string "bye" "BYE" (Serve.Client.request c "QUIT");
  Serve.Client.close c;
  Thread.join server;
  Unix.close srv

let server_snapshot_restart () =
  let dir = temp_dir () in
  let thread, port = start_server ~state_dir:dir () in
  let replies =
    talk port
      (List.init 200 (fun _ -> "QUERY instructor(manolis)") @ [ "SHUTDOWN" ])
  in
  (* With the (default-on) answer cache, every query after the first is a
     hit, so the climb lands on a cached reply. *)
  check_bool "climbed under live traffic" true
    (List.exists
       (fun r -> r = "ANSWER yes reductions=0 retrievals=0 cached switched")
       replies);
  Thread.join thread;
  (* restart against the same state dir: the learned strategy is back
     without a single climb *)
  let thread, port = start_server ~state_dir:dir () in
  let replies =
    talk port [ "STRATEGY instructor(q)"; "QUERY instructor(manolis)"; "SHUTDOWN" ]
  in
  check_bool "resumed grad-first" true
    (List.exists
       (fun r ->
         r = "OK instructor_1_b ⟨R_instructor_grad D_grad R_instructor_prof \
              D_prof⟩")
       replies);
  check_bool "fast from the first query" true
    (List.mem "ANSWER yes reductions=1 retrievals=1" replies);
  Thread.join thread

(* ---------- Reactor fleet ---------- *)

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Read a multi-line (END-terminated) reply off a persistent line conn. *)
let read_until_end ic =
  let rec go acc =
    let line = input_line ic in
    if line = "END" then List.rev acc else go (line :: acc)
  in
  go []

(* A quoted predicate name may hold line breaks, and a form's strategy
   names its arcs after the predicate. No reply line may carry one: a
   line client's STATS must end at its own END, with its next reply in
   step, and STRATEGY must stay one line. *)
let server_predicate_name_breaks_no_line () =
  let thread, port = start_server () in
  let v4 = Serve.Client.connect ~proto:`V4 ~port () in
  let atom = "'x\nEND\nzzz'(a)" in
  ignore (Serve.Client.request v4 ("QUERY " ^ atom));
  check_int "STRATEGY is one line" 1
    (List.length (Serve.Client.command v4 ("STRATEGY " ^ atom)));
  Serve.Client.close v4;
  let _fd, ic, oc = connect port in
  send oc "STATS";
  let stats = read_until_end ic in
  check_bool "the form line is whole" true
    (List.exists (fun l -> has_prefix "form x-0aEND-0azzz_1_b " l) stats);
  send oc "PING";
  check_string "the next reply is in step" "PONG" (input_line ic);
  send oc "SHUTDOWN";
  check_string "bye" "BYE" (input_line ic);
  close_in_noerr ic;
  Thread.join thread

(* Two predicates whose names differ only in bytes outside
   [[A-Za-z0-9_]] are two forms with two keys: two STATS form lines, one
   snapshot section each, and both learned strategies restored. *)
let registry_keys_injective () =
  let rules, facts, _ =
    D.Parser.parse_kb
      "'a b'(X) :- prof(X).\n\
       'a b'(X) :- grad(X).\n\
       'a-b'(X) :- prof(X).\n\
       'a-b'(X) :- grad(X).\n\
       prof(russ).\n\
       grad(manolis).\n"
  in
  let rulebase = D.Rulebase.of_list rules and db = D.Database.of_list facts in
  let m = Serve.Metrics.create () in
  let reg = Serve.Registry.create ~rulebase m in
  List.iter
    (fun pred ->
      let q = D.Parser.parse_atom (pred ^ "(manolis)") in
      for _ = 1 to 200 do
        ignore (Serve.Registry.answer reg ~db q)
      done)
    [ "'a b'"; "'a-b'" ];
  let learned = learned_strategies reg in
  let stats = Serve.Metrics.render_text m in
  check_int "two form lines" 2
    (List.length (List.filter (has_prefix "form ") stats));
  check_bool "forms_active 2" true (List.mem "forms_active 2" stats);
  let dir = temp_dir () in
  let saved = Serve.Snapshot.save ~dir reg in
  check_int "one section per saved form" saved
    (List.length (List.filter (has_prefix "form ") (snapshot_lines dir)));
  let reg' = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  check_int "both forms loaded" 2 (Serve.Snapshot.load ~dir reg');
  check_lines "both learned strategies restored"
    (List.map snd learned)
    (List.map snd (learned_strategies reg'));
  check_lines "keys" [ "a-20b_1_b"; "a-2db_1_b" ] (List.map fst learned)

(* Two domains record queries and lifecycle stages while a third renders
   /metrics in a loop: every render lints clean, and the final render
   counts every call. *)
let metrics_render_while_recording () =
  let m = Serve.Metrics.create () in
  let form = Serve.Metrics.form m "f_1_b" in
  let n = 20_000 in
  let finished = Atomic.make 0 in
  let record loop =
    let lh = Serve.Metrics.loop_handles m ~loop in
    Domain.spawn (fun () ->
        for i = 1 to n do
          Serve.Metrics.query form ~latency_ns:(i * 100) ~answered:true
            ~switched:false;
          Serve.Metrics.observe_stage lh Serve.Metrics.Total (i * 100)
        done;
        Atomic.incr finished)
  in
  let recorders = [ record 0; record 1 ] in
  let renders = ref 0 in
  let rec render_until_done () =
    let body = Serve.Metrics.render_prometheus m in
    incr renders;
    (match Obs.Expo.lint body with
    | Ok () -> ()
    | Error problems ->
      Alcotest.failf "render %d does not lint: %s" !renders
        (String.concat "; " problems));
    if Atomic.get finished < 2 then render_until_done ()
  in
  render_until_done ();
  List.iter Domain.join recorders;
  let samples = Obs.Expo.parse_samples (Serve.Metrics.render_prometheus m) in
  let value metric labels =
    match
      List.find_opt
        (fun s -> s.Obs.Expo.metric = metric && s.Obs.Expo.labels = labels)
        samples
    with
    | Some s -> int_of_float s.Obs.Expo.value
    | None -> Alcotest.failf "no %s sample" metric
  in
  let form_label = [ ("form", "f_1_b") ] in
  check_int "queries counted" (2 * n)
    (value "strategem_queries_total" form_label);
  check_int "latencies counted" (2 * n)
    (value "strategem_query_latency_us_count" form_label);
  List.iter
    (fun loop ->
      check_int "stages counted per loop" n
        (value "strategem_stage_latency_us_count"
           [ ("stage", "total"); ("loop", loop) ]))
    [ "0"; "1" ]

let conn_write_cap_sheds () =
  (* per-conn cap: the send that would breach it sheds the whole
     buffered output, leaves one BUSY, and flags the conn for teardown *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let limits = Serve.Conn.limits ~max_buf:32 () in
  let c = Serve.Conn.create ~id:1 ~peer:"t" ~ip:"t" ~limits a in
  Serve.Conn.send c (String.make 16 'x');
  check_bool "under the cap buffers" false (Serve.Conn.overflowed c);
  Serve.Conn.send c (String.make 20 'y');
  check_bool "over the cap sheds" true (Serve.Conn.overflowed c);
  check_bool "shedding means closing" true (Serve.Conn.closing c);
  check_int "shed bytes count buffered + refused" 36
    (Serve.Conn.take_shed_bytes c);
  check_int "take_shed_bytes resets" 0 (Serve.Conn.take_shed_bytes c);
  (* output after the overflow is dropped, never buffered *)
  Serve.Conn.send c "more";
  check_bool "flush delivers the notice" true (Serve.Conn.flush c = `Flushed);
  let buf = Bytes.create 64 in
  let n = Unix.read b buf 0 64 in
  check_string "peer sees one BUSY, nothing else" "BUSY\n"
    (Bytes.sub_string buf 0 n);
  Serve.Conn.kill c;
  Unix.close a;
  Unix.close b;
  (* global cap: the breaching conn is shed, its peers are spared, and
     draining a survivor gives the budget back *)
  let shared = Serve.Conn.limits ~global_max:50 () in
  let mk id =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (Serve.Conn.create ~id ~peer:"t" ~ip:"t" ~limits:shared a, a, b)
  in
  let c1, a1, b1 = mk 2 in
  let c2, a2, b2 = mk 3 in
  Serve.Conn.send c1 (String.make 40 'x');
  Serve.Conn.send c2 (String.make 20 'y');
  check_bool "breaching conn shed" true (Serve.Conn.overflowed c2);
  check_bool "innocent conn spared" false (Serve.Conn.overflowed c1);
  check_bool "survivor drains" true (Serve.Conn.flush c1 = `Flushed);
  let c3, a3, b3 = mk 4 in
  Serve.Conn.send c3 (String.make 20 'z');
  check_bool "drained budget admits new output" false
    (Serve.Conn.overflowed c3);
  List.iter Serve.Conn.kill [ c1; c2; c3 ];
  List.iter Unix.close [ a1; b1; a2; b2; a3; b3 ]

let server_fleet_balances_conns () =
  let thread, port = start_server ~loops:2 () in
  let conns = List.init 4 (fun _ -> connect port) in
  (* a round trip on each conn guarantees every fd has been adopted by
     its loop before we read the per-loop gauges *)
  List.iter
    (fun (_, ic, oc) ->
      send oc "PING";
      check_string "conn served" "PONG" (input_line ic))
    conns;
  let _, ic0, oc0 = List.hd conns in
  send oc0 "STATS json";
  let json = input_line ic0 in
  check_bool "json reports the fleet size" true
    (contains "\"loops\":{\"count\":2" json);
  check_bool "loop 0 took half the conns" true
    (contains "\"id\":0,\"conns\":2" json);
  check_bool "loop 1 took the other half" true
    (contains "\"id\":1,\"conns\":2" json);
  (* the text rendering carries the additive fleet line *)
  send oc0 "STATS";
  check_bool "text reports the fleet size" true
    (List.mem "loops 2" (read_until_end ic0));
  List.iter (fun (_, ic, _) -> close_in_noerr ic) (List.tl conns);
  send oc0 "SHUTDOWN";
  check_string "bye" "BYE" (input_line ic0);
  close_in_noerr ic0;
  Thread.join thread

let server_fleet_drains_every_loop () =
  (* graceful shutdown with a slow query in flight on each loop of a
     2-loop fleet: every response must still be flushed by its owner *)
  let thread, port, _people =
    start_genealogy_server ~loops:2 ~queue_depth:8 ()
  in
  let c1 = Serve.Client.connect ~proto:`V4 ~port () in
  let c2 = Serve.Client.connect ~proto:`V4 ~port () in
  let s1 = Serve.Client.post c1 "QUERY relative(X)" in
  let s2 = Serve.Client.post c2 "QUERY relative(X)" in
  Thread.delay 0.05;
  let sd = Serve.Client.post c1 "SHUTDOWN" in
  let r1 = List.init 2 (fun _ -> Serve.Client.recv c1) in
  let answered id rs =
    List.exists
      (fun (i, lines) ->
        i = id
        &&
        match lines with
        | [ l ] -> String.length l >= 6 && String.sub l 0 6 = "ANSWER"
        | _ -> false)
      rs
  in
  check_bool "loop 0's in-flight query answered through the drain" true
    (answered s1 r1);
  check_bool "shutdown acknowledged" true
    (List.exists (fun (i, lines) -> i = sd && lines = [ "BYE" ]) r1);
  check_bool "loop 1's in-flight query answered through the drain" true
    (answered s2 [ Serve.Client.recv c2 ]);
  Serve.Client.close c1;
  Serve.Client.close c2;
  Thread.join thread

let server_fleet_isolates_slow_peer () =
  (* slowloris on loop 0 must not stall loop 1: with a partial frame
     wedged on the first conn, a conn on the other loop stays live *)
  let thread, port = start_server ~loops:2 () in
  let fd, ic, oc = connect port in
  let frame =
    Serve.Frame.encode_string
      { Serve.Frame.id = 7; kind = Serve.Frame.Query;
        payload = "instructor(russ)" }
  in
  output_string oc (String.sub frame 0 3);
  flush oc;
  Thread.delay 0.05;
  (* second conn lands on loop 1 (least connections) *)
  let fd_b, ic_b, oc_b = connect port in
  send oc_b "PING";
  check_string "loop 1 live while loop 0 holds a partial frame" "PONG"
    (input_line ic_b);
  output_string oc (String.sub frame 3 (String.length frame - 3));
  flush oc;
  let reply = Serve.Frame.read ic in
  check_int "the dripped frame still answered" 7 reply.Serve.Frame.id;
  check_bool "with an answer" true (reply.Serve.Frame.kind = Serve.Frame.Ok);
  send oc_b "SHUTDOWN";
  check_string "bye" "BYE" (input_line ic_b);
  close_in_noerr ic;
  close_in_noerr ic_b;
  ignore fd;
  ignore fd_b;
  Thread.join thread

let server_write_cap_disconnects () =
  (* a 64-byte write cap: PONG fits, a STATS reply does not — the conn
     is answered BUSY and disconnected, the server survives *)
  let thread, port = start_server ~max_write_buf:64 () in
  let _fd, ic, oc = connect port in
  send oc "PING";
  check_string "small reply fits the cap" "PONG" (input_line ic);
  send oc "STATS";
  check_string "oversized reply shed as BUSY" "BUSY" (input_line ic);
  check_bool "then disconnected" true
    (match input_line ic with
    | _ -> false
    | exception End_of_file -> true);
  close_in_noerr ic;
  check_bool "server survives the shed conn" true
    (talk port [ "PING" ] = [ "PONG" ]);
  ignore (talk port [ "SHUTDOWN" ]);
  Thread.join thread

let server_per_ip_cap () =
  let thread, port = start_server ~max_conns_per_ip:1 () in
  let _fd, ic_a, oc_a = connect port in
  send oc_a "PING";
  check_string "first conn from the ip served" "PONG" (input_line ic_a);
  let _fd_b, ic_b, _oc_b = connect port in
  check_string "second conn from the same ip shed" "BUSY" (input_line ic_b);
  check_bool "and closed" true
    (match input_line ic_b with
    | _ -> false
    | exception End_of_file -> true);
  close_in_noerr ic_b;
  send oc_a "STATS";
  check_bool "the shed accept was counted" true
    (List.mem "ip_limited_total 1" (read_until_end ic_a));
  send oc_a "QUIT";
  check_string "bye" "BYE" (input_line ic_a);
  close_in_noerr ic_a;
  (* closing the survivor frees the ip slot (asynchronously: retry). A
     conversation that lands before the release is shed, and the server's
     close can beat the client's half-close, which then fails with
     ENOTCONN, or reset the connection under the client's read (the shed
     close discards the unread PING), which fails with a reset: both are
     a shed too, so retry them the same way. Only a PONG before the
     deadline passes. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let talk_or_shed lines =
    try talk port lines with
    | Unix.Unix_error ((Unix.ENOTCONN | Unix.ECONNRESET), _, _) | Sys_error _
      ->
      []
  in
  let rec admitted () =
    talk_or_shed [ "PING" ] = [ "PONG" ]
    || (Unix.gettimeofday () < deadline
       && (Thread.delay 0.02; admitted ()))
  in
  check_bool "slot released after close" true (admitted ());
  let rec shutdown () =
    List.mem "BYE" (talk_or_shed [ "SHUTDOWN" ])
    || (Unix.gettimeofday () < deadline
       && (Thread.delay 0.02; shutdown ()))
  in
  check_bool "shutdown admitted" true (shutdown ());
  Thread.join thread

let eventloop_wakeups_coalesce () =
  (* The wake channel is kernel-coalesced (eventfd) behind an atomic
     flag: a burst of cross-thread posts between two polls must drain as
     ONE counted wakeup, not one per post — the {loop} wakeup counters
     report batches. *)
  let l = Serve.Eventloop.create () in
  Fun.protect
    ~finally:(fun () -> Serve.Eventloop.close l)
    (fun () ->
      check_int "no wakeups before any poll" 0 (Serve.Eventloop.wakeups l);
      let posters =
        List.init 4 (fun _ ->
            Thread.create
              (fun () ->
                for _ = 1 to 25 do
                  Serve.Eventloop.wake l
                done)
              ())
      in
      List.iter Thread.join posters;
      Serve.Eventloop.iterate l ~timeout_ms:0;
      check_int "100 posts drain as one coalesced wakeup" 1
        (Serve.Eventloop.wakeups l);
      Serve.Eventloop.iterate l ~timeout_ms:0;
      check_int "a quiet iteration adds none" 1 (Serve.Eventloop.wakeups l);
      Serve.Eventloop.wake l;
      Serve.Eventloop.iterate l ~timeout_ms:0;
      check_int "a separate burst counts separately" 2
        (Serve.Eventloop.wakeups l))

(* ---------- Request lifecycle + flight recorder ---------- *)

(* Open a connection to [port] and send [request] verbatim. *)
let http_open ~port request =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  ignore (Unix.write_substring fd request 0 (String.length request));
  fd

(* Send the rest of a request on [fd] (if any) and read the reply until
   the server closes; a reset (a close with unread input) reads as an
   empty reply. *)
let http_finish fd rest =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      if rest <> "" then
        ignore (Unix.write_substring fd rest 0 (String.length rest));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match Unix.read fd chunk 0 4096 with
        | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      in
      go ();
      Buffer.contents buf)

(* Send [request] verbatim to the metrics port and read the reply. *)
let http_raw ~port request = http_finish (http_open ~port request) ""

(* Split a raw HTTP reply into its head and its body. *)
let http_split raw =
  let rec body_start i =
    if i + 4 > String.length raw then None
    else if String.sub raw i 4 = "\r\n\r\n" then Some i
    else body_start (i + 1)
  in
  match body_start 0 with
  | Some i ->
    (String.sub raw 0 i, String.sub raw (i + 4) (String.length raw - i - 4))
  | None -> (raw, "")

(* One blocking HTTP GET against the daemon's metrics port: the body. *)
let http_get ~port path =
  snd
    (http_split
       (http_raw ~port
          (Printf.sprintf
             "GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n" path)))

(* Start an in-process server with [cfg] on the university KB: its
   thread, port and metrics port (0 without one). *)
let start_cfg_server cfg =
  let rulebase, db = kb () in
  let port = Atomic.make 0 and mport = Atomic.make 0 in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run ~on_listen:(Atomic.set port)
          ~on_metrics_listen:(Atomic.set mport) cfg ~rulebase ~db)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if Atomic.get port = 0 then Alcotest.fail "server did not start";
  (thread, Atomic.get port, Atomic.get mport)

let server_lifecycle_flight_e2e () =
  (* End to end over a 1-loop fleet with a threshold that marks every
     request slow: a pipelined v4 QUERY must surface in the FLIGHT dump
     as a retained span tree whose accept→frame→queue→worker→backend→
     flush stages nest, order, and carry the owning loop id — including
     after conversion to Chrome trace-event JSON — and the {stage,loop}
     histogram series must lint on a live /metrics scrape. *)
  let rulebase, db = kb () in
  let port = Atomic.make 0 and mport = Atomic.make 0 in
  let cfg =
    {
      (server_config ~loops:1 ()) with
      Serve.Server.slow_query_us = 0.001;
      metrics_port = Some 0;
    }
  in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run
          ~on_listen:(fun p -> Atomic.set port p)
          ~on_metrics_listen:(fun p -> Atomic.set mport p)
          cfg ~rulebase ~db)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (Atomic.get port = 0 || Atomic.get mport = 0)
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  if Atomic.get port = 0 || Atomic.get mport = 0 then
    Alcotest.fail "server did not start";
  let c = Serve.Client.connect ~proto:`V4 ~port:(Atomic.get port) () in
  let qid = Serve.Client.post c "QUERY instructor(manolis)" in
  let rid, lines = Serve.Client.recv c in
  check_int "query answered under its id" qid rid;
  check_bool "with an ANSWER" true
    (match lines with
    | [ l ] -> String.length l >= 6 && String.sub l 0 6 = "ANSWER"
    | _ -> false);
  (* Finalization happens on the owning loop after the response bytes
     drain, so the retained trace may lag the reply by a poll: retry. *)
  let find_retained () =
    let reply = Serve.Client.request c "FLIGHT" in
    match Trace.Json.parse reply with
    | Trace.Json.Obj fields -> (
      match List.assoc_opt "retained" fields with
      | Some (Trace.Json.Arr entries) ->
        List.find_map
          (fun e ->
            match e with
            | Trace.Json.Obj ef -> (
              match
                (List.assoc_opt "rid" ef, List.assoc_opt "span" ef)
              with
              | Some (Trace.Json.Num rid), Some span
                when int_of_string rid = qid ->
                Some (ef, span)
              | _ -> None)
            | _ -> None)
          entries
      | _ -> None)
    | _ -> None
  in
  let rec poll () =
    match find_retained () with
    | Some found -> found
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "query trace never retained"
      else begin
        Thread.delay 0.05;
        poll ()
      end
  in
  let entry, span_v = poll () in
  (match List.assoc_opt "reason" entry with
  | Some (Trace.Json.Str "slow") -> ()
  | _ -> Alcotest.fail "retention reason must be slow");
  (match List.assoc_opt "loop" entry with
  | Some (Trace.Json.Num "0") -> ()
  | _ -> Alcotest.fail "1-loop fleet: retained on loop 0");
  let span = Trace.of_json_value span_v in
  check_string "root is the request span" "request" (Trace.kind span);
  check_bool "root carries the loop id" true
    (Trace.attr span "loop" = Some "0");
  check_bool "root carries the rid" true
    (Trace.attr span "rid" = Some (string_of_int qid));
  let stages = List.map Trace.kind (Trace.children span) in
  (* accept→frame→queue→worker→flush, in order (all present here) *)
  check_bool "stage order" true
    (stages = [ "accept"; "frame"; "queue"; "worker"; "flush" ]);
  List.iter
    (fun sp ->
      check_bool "every stage carries the loop id" true
        (Trace.attr sp "loop" = Some "0"))
    (Trace.children span);
  let worker =
    List.find (fun sp -> Trace.kind sp = "worker") (Trace.children span)
  in
  (* A cold query of a strategy-served form: its execution answered. *)
  check_bool "worker span shows the backend (exec)" true
    (List.exists (fun sp -> Trace.kind sp = "exec") (Trace.children worker));
  (* Stage timestamps are monotone through the pipeline. *)
  let start k =
    Trace.start_ns
      (List.find (fun sp -> Trace.kind sp = k) (Trace.children span))
  in
  check_bool "frame≤queue≤worker≤flush" true
    (start "frame" <= start "queue"
    && start "queue" <= start "worker"
    && start "worker" <= start "flush");
  (* ---- the same tree through the Chrome trace-event exporter ---- *)
  (match Trace.Json.parse (Trace.to_chrome [ span ]) with
  | Trace.Json.Obj [ ("traceEvents", Trace.Json.Arr events) ] ->
    let field ev k =
      match ev with
      | Trace.Json.Obj fs -> List.assoc_opt k fs
      | _ -> None
    in
    let num ev k =
      match field ev k with
      | Some (Trace.Json.Num raw) -> float_of_string raw
      | _ -> Alcotest.failf "chrome event missing %s" k
    in
    check_bool "one event per span" true
      (List.length events >= 6 (* request + 5 stages *));
    List.iter
      (fun ev ->
        check_bool "every event is a complete span on the loop's lane"
          true
          (field ev "ph" = Some (Trace.Json.Str "X")
          && field ev "tid" = Some (Trace.Json.Num "0")))
      events;
    (* preorder: the request event leads, stages follow in order *)
    let names =
      List.filter_map
        (fun ev ->
          match field ev "cat" with
          | Some (Trace.Json.Str k) -> Some k
          | _ -> None)
        events
    in
    check_bool "request leads the export" true
      (match names with "request" :: _ -> true | _ -> false);
    let idx k =
      let rec go i = function
        | [] -> Alcotest.failf "chrome export missing %s" k
        | x :: _ when x = k -> i
        | _ :: tl -> go (i + 1) tl
      in
      go 0 names
    in
    check_bool "stage events keep pipeline order" true
      (idx "accept" < idx "frame"
      && idx "frame" < idx "queue"
      && idx "queue" < idx "worker"
      && idx "worker" < idx "flush");
    (* nesting: every stage but accept fits inside the request event
       (accept predates the request's first frame byte by design) *)
    let root_ev = List.hd events in
    List.iter
      (fun k ->
        let ev = List.nth events (idx k) in
        check_bool (k ^ " nests inside the request event") true
          (num ev "ts" >= num root_ev "ts"
          && num ev "ts" +. num ev "dur"
             <= num root_ev "ts" +. num root_ev "dur" +. 0.5))
      [ "frame"; "queue"; "worker"; "flush" ]
  | _ -> Alcotest.fail "chrome export must parse as {traceEvents:[...]}");
  (* ---- ring events for the request are in the dump too ---- *)
  let dump = Serve.Client.request c "FLIGHT" in
  List.iter
    (fun code ->
      check_bool (code ^ " event recorded") true
        (contains (Printf.sprintf "\"code\":\"%s\"" code) dump))
    [ "accept"; "request"; "enqueue"; "worker"; "respond"; "flush" ];
  (* ---- STATS carries the additive lifecycle fields ---- *)
  let stats = Serve.Client.command c "STATS" in
  let field_at_least name floor =
    List.exists
      (fun l ->
        match String.split_on_char ' ' l with
        | [ n; v ] -> n = name && int_of_string_opt v >= Some floor
        | _ -> false)
      stats
  in
  check_bool "lifecycle_requests_total counted" true
    (field_at_least "lifecycle_requests_total" 1);
  check_bool "traces_retained_total counted" true
    (field_at_least "traces_retained_total" 1);
  (* ---- live /metrics scrape: {stage,loop} series, and it lints ---- *)
  let body = http_get ~port:(Atomic.get mport) "/metrics" in
  (match Obs.Expo.lint body with
  | Ok () -> ()
  | Error problems ->
    Alcotest.failf "live fleet scrape must lint: %s"
      (String.concat "; " problems));
  List.iter
    (fun needle ->
      check_bool (needle ^ " series exported") true (contains needle body))
    [
      "strategem_stage_latency_us_bucket{stage=\"total\",loop=\"0\"";
      "strategem_stage_latency_us_bucket{stage=\"worker\",loop=\"0\"";
      "strategem_traces_retained_total{reason=\"slow\"}";
      "strategem_trace_retained_exemplar{loop=\"0\"}";
      "strategem_lifecycle_requests_total";
      "strategem_loop_wakeups_total{loop=\"0\"}";
    ];
  (* ---- /debug/flight serves the same envelope over HTTP ---- *)
  let flight_body = http_get ~port:(Atomic.get mport) "/debug/flight" in
  (match Trace.Json.parse flight_body with
  | Trace.Json.Obj fields ->
    check_bool "/debug/flight envelope version" true
      (List.assoc_opt "version" fields = Some (Trace.Json.Num "1"))
  | _ -> Alcotest.fail "/debug/flight must serve the flight JSON");
  check_string "shutdown" "BYE" (Serve.Client.request c "SHUTDOWN");
  Serve.Client.close c;
  Thread.join thread

let lifecycle_backend_labels () =
  (* The lifecycle names the engine that produced each answer: the
     strategy's execution on an exactly modelled form, SLD only on a
     fallback (here recursive) form, the cache on an exact repeat. *)
  let rules, facts, _ =
    D.Parser.parse_kb
      "instructor(X) :- prof(X).\n\
       instructor(X) :- grad(X).\n\
       anc(X, Y) :- par(X, Y).\n\
       anc(X, Y) :- up(X, Y).\n\
       up(X, Y) :- anc(X, Y).\n\
       grad(manolis).\n\
       par(a, b).\n"
  in
  let rulebase = D.Rulebase.of_list rules and db = D.Database.of_list facts in
  let reg = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  let cache = Cache.Answers.create ~capacity_bytes:(1 lsl 16) () in
  let label q =
    Serve.Lifecycle.backend_name
      (Serve.Lifecycle.backend_of
         (Serve.Registry.answer ~cache reg ~db (D.Parser.parse_atom q)))
  in
  check_string "strategy-served form" "exec" (label "instructor(manolis)");
  check_string "recursive form" "sld" (label "anc(a, b)");
  check_string "exact repeat" "cache" (label "instructor(manolis)")

let server_lifecycle_off_still_serves () =
  (* --no-lifecycle / --flight-capacity 0 / --retain 0: the whole layer
     gone, FLIGHT still answers an empty envelope, serving unaffected. *)
  let rulebase, db = kb () in
  let port = Atomic.make 0 in
  let cfg =
    {
      (server_config ~loops:1 ()) with
      Serve.Server.lifecycle = false;
      flight_capacity = 0;
      retain = 0;
      slow_query_us = 0.001;
    }
  in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run
          ~on_listen:(fun p -> Atomic.set port p)
          cfg ~rulebase ~db)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if Atomic.get port = 0 then Alcotest.fail "server did not start";
  let replies =
    talk (Atomic.get port) [ "QUERY instructor(manolis)"; "FLIGHT"; "SHUTDOWN" ]
  in
  check_bool "query still answered" true
    (List.exists
       (fun l -> String.length l >= 6 && String.sub l 0 6 = "ANSWER")
       replies);
  (match
     List.find_opt
       (fun l -> String.length l > 0 && l.[0] = '{')
       replies
   with
  | Some dump -> (
    match Trace.Json.parse dump with
    | Trace.Json.Obj fields ->
      check_bool "no events recorded" true
        (List.assoc_opt "events" fields = Some (Trace.Json.Arr []));
      check_bool "nothing retained" true
        (List.assoc_opt "retained" fields = Some (Trace.Json.Arr []))
    | _ -> Alcotest.fail "FLIGHT reply must be a JSON object")
  | None -> Alcotest.fail "FLIGHT reply missing");
  check_bool "shutdown acknowledged" true (List.mem "BYE" replies);
  Thread.join thread

let server_idle_timeout_closes () =
  let thread, port = start_server ~idle_timeout_s:0.2 () in
  let _fd, ic, oc = connect port in
  send oc "PING";
  check_string "served while active" "PONG" (input_line ic);
  (* no traffic past the timeout: the sweep (≤ 1 s cadence) closes it *)
  check_bool "idle conn closed by the server" true
    (match input_line ic with
    | _ -> false
    | exception End_of_file -> true);
  close_in_noerr ic;
  let replies = talk port [ "STATS"; "SHUTDOWN" ] in
  check_bool "the idle close was counted" true
    (List.mem "idle_closed_total 1" replies);
  Thread.join thread

(* ---------- Run to completion on the loop ---------- *)

let server_line_backpressure () =
  (* A line client that writes requests and never reads a reply must be
     pushed back by TCP well before it has pushed 64 MiB — the socket
     stays unwritable for a whole second — instead of the server
     buffering its requests (and their replies) without limit. STATS
     replies outweigh their 6-byte requests, so the unread replies fill
     the socket early. *)
  let thread, port = start_server ~loops:1 () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  let chunk =
    Bytes.of_string (String.concat "" (List.init 100 (fun _ -> "STATS\n")))
  in
  let limit = 64 * 1024 * 1024 in
  let rec push accepted off =
    if accepted >= limit then `Accepted accepted
    else
      match Unix.write fd chunk off (Bytes.length chunk - off) with
      | n ->
        let off = off + n in
        push (accepted + n) (if off = Bytes.length chunk then 0 else off)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> (
        match Unix.select [] [ fd ] [] 1.0 with
        | [], [], [] -> `Pushed_back accepted
        | _ -> push accepted off)
      | exception Unix.Unix_error (e, _, _) -> `Dropped (accepted, e)
  in
  (match push 0 0 with
  | `Pushed_back n ->
    check_bool "pushed back before 64 MiB" true (n < limit)
  | `Accepted n -> Alcotest.failf "server accepted %d bytes unread" n
  | `Dropped (n, e) ->
    Alcotest.failf "server dropped the conn after %d bytes: %s" n
      (Unix.error_message e));
  Unix.close fd;
  check_bool "server still serves" true (talk port [ "PING" ] = [ "PONG" ]);
  ignore (talk port [ "SHUTDOWN" ]);
  Thread.join thread

let server_shed_per_loop () =
  (* queue_depth 2 over 2 loops: each loop's FIFO holds one request. A
     v4 connection flooding loop 0 while it runs a slow query is shed at
     its loop's cap; a connection on loop 1 is still answered. *)
  let thread, port, people =
    start_genealogy_server ~loops:2 ~queue_depth:2 ()
  in
  let a = Serve.Client.connect ~proto:`V4 ~port () in
  let b = Serve.Client.connect ~proto:`V4 ~port () in
  (* a round trip on each conn: both fds adopted by their loops *)
  check_string "a served" "PONG" (Serve.Client.request a "PING");
  check_string "b served" "PONG" (Serve.Client.request b "PING");
  let stats_json = Serve.Client.request a "STATS JSON" in
  check_bool "one conn on each loop" true
    (contains "\"id\":0,\"conns\":1" stats_json
    && contains "\"id\":1,\"conns\":1" stats_json);
  (* one write, so loop 0 parses the whole flood before running any *)
  let posted =
    Serve.Client.post_batch a
      ("QUERY relative(X)"
      :: List.init 6 (fun i ->
             Printf.sprintf "QUERY relative(%s)" (List.nth people i)))
  in
  let slow = List.hd posted in
  let peer =
    Serve.Client.request b
      (Printf.sprintf "QUERY relative(%s)" (List.nth people 7))
  in
  check_bool "loop 1 answers while loop 0 sheds" true
    (String.length peer >= 6 && String.sub peer 0 6 = "ANSWER");
  let responses = List.map (fun _ -> Serve.Client.recv a) posted in
  check_bool "the flooding conn was shed" true
    (List.exists (fun (_, lines) -> lines = [ "BUSY" ]) responses);
  check_bool "its slow query still answered" true
    (List.exists
       (fun (id, lines) ->
         id = slow
         &&
         match lines with
         | [ l ] -> String.length l >= 6 && String.sub l 0 6 = "ANSWER"
         | _ -> false)
       responses);
  Serve.Client.close b;
  check_string "drains on shutdown" "BYE" (Serve.Client.request a "SHUTDOWN");
  Serve.Client.close a;
  Thread.join thread

let server_snapshot_failure_logged () =
  (* a state dir nested under a regular file cannot be created, even as
     root: the shutdown snapshot fails and says so in the log *)
  let root = temp_dir () in
  Store.Fsync.ensure_dir root;
  let file = Filename.concat root "plain" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "x");
  let log_path = Filename.concat root "serve.log" in
  let rulebase, db = kb () in
  let port = Atomic.make 0 in
  let cfg =
    {
      (server_config ~state_dir:(Filename.concat file "state") ()) with
      Serve.Server.log_level = Some Obs.Log.Info;
      log_file = Some log_path;
    }
  in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run ~on_listen:(fun p -> Atomic.set port p) cfg ~rulebase
          ~db)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if Atomic.get port = 0 then Alcotest.fail "server did not start";
  let replies =
    talk (Atomic.get port) [ "QUERY instructor(manolis)"; "SHUTDOWN" ]
  in
  check_bool "served" true (List.mem "BYE" replies);
  Thread.join thread;
  let log = In_channel.with_open_bin log_path In_channel.input_all in
  check_bool "snapshot failure logged at warn" true
    (List.exists
       (fun l ->
         contains "\"msg\":\"snapshot failed\"" l
         && contains "\"level\":\"warn\"" l)
       (String.split_on_char '\n' log))

let server_snapshot_verb_unix_error () =
  (* SNAPSHOT into a state dir that cannot be created: an ordinary
     error reply naming the failed call, counted like any other error,
     and no "request handler crashed" record *)
  let root = temp_dir () in
  Store.Fsync.ensure_dir root;
  let file = Filename.concat root "plain" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "x");
  let log_path = Filename.concat root "serve.log" in
  let rulebase, db = kb () in
  let port = Atomic.make 0 in
  let cfg =
    {
      (server_config ~state_dir:(Filename.concat file "state") ()) with
      Serve.Server.log_level = Some Obs.Log.Info;
      log_file = Some log_path;
    }
  in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run ~on_listen:(fun p -> Atomic.set port p) cfg ~rulebase
          ~db)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if Atomic.get port = 0 then Alcotest.fail "server did not start";
  let replies = talk (Atomic.get port) [ "SNAPSHOT"; "STATS"; "SHUTDOWN" ] in
  Thread.join thread;
  check_string "error reply"
    ("ERR internal mkdir: Not a directory " ^ Filename.concat file "state")
    (List.hd replies);
  check_bool "counted in errors_total" true (List.mem "errors_total 1" replies);
  let log = In_channel.with_open_bin log_path In_channel.input_all in
  check_bool "no crash record" false (contains "request handler crashed" log)

let server_quit_drops_pending () =
  (* QUIT with more line requests behind it in the same write: the
     replies end at BYE and the server closes the connection — the
     trailing requests are dropped, not left pending forever — and a
     later shutdown still drains *)
  let thread, port = start_server ~loops:1 () in
  let _fd, ic, oc = connect port in
  output_string oc "PING\nQUIT\nPING\nPING\n";
  flush oc;
  check_string "pong" "PONG" (input_line ic);
  check_string "bye" "BYE" (input_line ic);
  check_bool "then closed" true
    (match input_line ic with
    | _ -> false
    | exception End_of_file -> true);
  close_in_noerr ic;
  check_bool "shutdown drains" true (List.mem "BYE" (talk port [ "SHUTDOWN" ]));
  Thread.join thread

let server_learning_same_across_loops () =
  (* the same 300-query, two-form stream through one loop over one
     connection and through four loops over four connections must
     teach the same thing: same strategies, same climbs, same snapshot
     file, byte for byte *)
  let queries =
    List.init 300 (fun i ->
        if i mod 3 = 2 then "QUERY instructor(X)"
        else "QUERY instructor(manolis)")
  in
  let is_answer r = String.length r >= 6 && String.sub r 0 6 = "ANSWER" in
  let has prefix r =
    String.length r >= String.length prefix
    && String.sub r 0 (String.length prefix) = prefix
  in
  let run ~loops =
    let dir = temp_dir () in
    let thread, port = start_server ~loops ~state_dir:dir () in
    (* open every connection before any sends, so placement puts one
       on each loop; a round trip on each makes sure its loop adopted it *)
    let conns = List.init loops (fun _ -> connect port) in
    List.iter
      (fun (_, ic, oc) ->
        send oc "PING";
        check_string "conn served" "PONG" (input_line ic))
      conns;
    let _, ic0, oc0 = List.hd conns in
    send oc0 "STATS JSON";
    let json = input_line ic0 in
    for k = 0 to loops - 1 do
      check_bool
        (Printf.sprintf "%d loop(s): one conn on loop %d" loops k)
        true
        (contains (Printf.sprintf "\"id\":%d,\"conns\":1" k) json)
    done;
    let answered = Array.make loops 0 in
    let senders =
      List.mapi
        (fun k (fd, ic, oc) ->
          Thread.create
            (fun () ->
              List.iteri
                (fun i q -> if i mod loops = k then send oc q)
                queries;
              Unix.shutdown fd Unix.SHUTDOWN_SEND;
              answered.(k) <-
                List.length (List.filter is_answer (In_channel.input_lines ic));
              close_in_noerr ic)
            ())
        conns
    in
    List.iter Thread.join senders;
    check_int
      (Printf.sprintf "%d loop(s): every query answered" loops)
      300
      (Array.fold_left ( + ) 0 answered);
    let replies =
      talk port
        [
          "STRATEGY instructor(q)"; "STRATEGY instructor(X)"; "STATS";
          "SHUTDOWN";
        ]
    in
    Thread.join thread;
    let strategies = List.filter (has "OK ") replies in
    let climbs = List.find (has "climbs_total ") replies in
    (strategies, climbs, snapshot_file dir)
  in
  let s1, c1, f1 = run ~loops:1 in
  let s4, c4, f4 = run ~loops:4 in
  check_bool "the stream made a learner climb" true (c1 <> "climbs_total 0");
  check_int "two forms' strategies" 2 (List.length s1);
  check_bool "same STRATEGY replies" true (s1 = s4);
  check_string "same climbs_total" c1 c4;
  check_int "two snapshot sections" 2
    (List.length
       (List.filter (has "form ") (String.split_on_char '\n' f1)));
  check_bool "byte-identical snapshot files" true (f1 = f4)

(* ---------- The metrics port on the loops ---------- *)

let server_metrics_port_on_loops () =
  (* The metrics port is served by the event loops, one request per
     connection, byte for byte: status line, headers, body; /healthz
     turns to 503 once a drain has begun and answers through it. *)
  let thread, port, mport =
    start_cfg_server
      { (server_config ~loops:2 ()) with Serve.Server.metrics_port = Some 0 }
  in
  check_bool "ephemeral metrics port chosen" true (mport > 0);
  let get path =
    http_raw ~port:mport
      (Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
         path)
  in
  let plain status reason body =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: text/plain; charset=utf-8\r\n\
       Content-Length: %d\r\nConnection: close\r\n\r\n%s"
      status reason (String.length body) body
  in
  check_string "/healthz ready" (plain 200 "OK" "ready\n") (get "/healthz");
  let head, body = http_split (get "/metrics") in
  check_bool "200 status line" true
    (String.length head >= 15 && String.sub head 0 15 = "HTTP/1.1 200 OK");
  check_bool "exposition content type" true
    (contains "Content-Type: text/plain; version=0.0.4; charset=utf-8" head);
  check_bool "content-length present and exact" true
    (contains (Printf.sprintf "Content-Length: %d" (String.length body)) head);
  (match Obs.Expo.lint body with
  | Ok () -> ()
  | Error problems ->
    Alcotest.failf "scrape must lint: %s" (String.concat "; " problems));
  check_bool "body served" true (contains "strategem_uptime_seconds" body);
  check_bool "query string stripped" true
    (contains "strategem_uptime_seconds" (get "/metrics?x=1"));
  check_string "unknown path is 404" (plain 404 "Not Found" "not found\n")
    (get "/nope");
  check_string "POST elsewhere is 405"
    (plain 405 "Method Not Allowed" "method not allowed\n")
    (http_raw ~port:mport "POST /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  check_string "garbage request line is 400"
    (plain 400 "Bad Request" "bad request\n")
    (http_raw ~port:mport "garbage\r\n\r\n");
  check_string "a head over 8 KiB is closed unanswered" ""
    (http_raw ~port:mport ("GET /" ^ String.make 9000 'a'));
  check_bool "scrapes are not serve connections" true
    (List.mem "conns_open 1" (talk port [ "STATS" ]));
  (* A scrape whose head is unfinished holds its loop's drain until it
     is answered (or its deadline passes), and the loops keep accepting
     scrapes while they drain. Two heads are split across the start of
     the drain: one is finished mid-drain, the other holds the drain
     open through the checks and is finished last. *)
  let split = http_open ~port:mport "GET /healthz HTTP/1.1\r\n" in
  let held = http_open ~port:mport "GET /metrics HTTP/1.1\r\n" in
  Thread.delay 0.05;
  check_bool "shutdown acknowledged" true (talk port [ "SHUTDOWN" ] = [ "BYE" ]);
  Thread.delay 0.1;
  check_string "a head split across the drain's start is answered"
    (plain 503 "Service Unavailable" "draining\n")
    (http_finish split "Host: x\r\n\r\n");
  check_string "/healthz draining during the drain"
    (plain 503 "Service Unavailable" "draining\n")
    (get "/healthz");
  check_bool "/metrics still served during the drain" true
    (contains "strategem_uptime_seconds" (get "/metrics"));
  check_bool "the held scrape is answered last" true
    (contains "strategem_uptime_seconds" (http_finish held "Host: x\r\n\r\n"));
  Thread.join thread

(* ---------- One trace-capture path ---------- *)

let json_field name = function
  | Trace.Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

(* The parsed warn records a retained request wrote to [path]. *)
let retained_records path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (contains "\"msg\":\"request trace retained\"")
  |> List.map Trace.Json.parse

let server_retained_record () =
  (* With every request slow: one warn record per retained request,
     rate limited to one a second with a suppressed count, carrying the
     request's span tree and its loop's flight tail. A slow request
     with no tree arms the loop, so the next query runs traced and the
     next record carries its exec subtree. *)
  let root = temp_dir () in
  Store.Fsync.ensure_dir root;
  let log_path = Filename.concat root "serve.log" in
  let thread, port, _ =
    start_cfg_server
      {
        (server_config ~loops:1 ()) with
        Serve.Server.log_level = Some Obs.Log.Warn;
        log_file = Some log_path;
        slow_query_us = 0.001;
      }
  in
  let _fd, ic, oc = connect port in
  let ask line =
    send oc line;
    ignore (input_line ic)
  in
  let rec await n =
    let records = retained_records log_path in
    if List.length records >= n then records
    else begin
      Thread.delay 0.01;
      await n
    end
  in
  ask "QUERY instructor(manolis)";
  let first = List.hd (await 1) in
  let str name =
    match json_field name first with Some (Trace.Json.Str v) -> v | _ -> ""
  in
  check_string "at warn" "warn" (str "level");
  check_string "reason" "slow" (str "reason");
  check_bool "total_us" true
    (match json_field "total_us" first with
    | Some (Trace.Json.Num _) -> true
    | _ -> false);
  check_bool "nothing suppressed yet" true
    (json_field "suppressed" first = Some (Trace.Json.Num "0"));
  let span_of record =
    match json_field "span" record with
    | Some v -> Trace.of_json_value v
    | None -> Alcotest.fail "record without a span"
  in
  let span = span_of first in
  check_string "the request span" "request" (Trace.kind span);
  check_bool "an untraced query has no exec subtree" true
    (Trace.find_kind span "serve" = []);
  check_bool "the flight tail" true
    (match json_field "events" first with
    | Some (Trace.Json.Arr (_ :: _)) -> true
    | _ -> false);
  (* a burst inside the same second: all suppressed; the PING (slow,
     with no tree) leaves the loop armed *)
  for i = 1 to 10 do
    ask (Printf.sprintf "QUERY instructor(p%d)" i)
  done;
  ask "PING";
  Thread.delay 0.2;
  check_int "one record for the burst" 1
    (List.length (retained_records log_path));
  Thread.delay 1.0;
  ask "QUERY instructor(russ)";
  let second = List.nth (await 2) 1 in
  check_bool "the next record counts the burst" true
    (json_field "suppressed" second = Some (Trace.Json.Num "11"));
  check_bool "the armed query carries its exec subtree" true
    (Trace.find_kind (span_of second) "serve" <> []
    && Trace.find_kind (span_of second) "exec" <> []);
  ask "SHUTDOWN";
  close_in_noerr ic;
  Thread.join thread

let server_sampling_through_retention () =
  (* --trace-sample N: STATS JSON lists the newest N traced query trees
     across loops, oldest first, from the loops' retained buffers; a
     sampled query is never listed by FLIGHT, which keeps only shed,
     error and slow requests. *)
  let recent c =
    match
      json_field "recent_traces"
        (Trace.Json.parse (Serve.Client.request c "STATS JSON"))
    with
    | Some (Trace.Json.Arr traces) -> List.map Trace.of_json_value traces
    | _ -> Alcotest.fail "STATS JSON without recent_traces"
  in
  let retained c =
    match
      json_field "retained" (Trace.Json.parse (Serve.Client.request c "FLIGHT"))
    with
    | Some (Trace.Json.Arr entries) -> entries
    | _ -> Alcotest.fail "FLIGHT without retained"
  in
  let run ~slow_query_us =
    let thread, port, _ =
      start_cfg_server
        {
          (server_config ~loops:2 ()) with
          Serve.Server.trace_sample = 2;
          slow_query_us;
        }
    in
    let c = Serve.Client.connect ~proto:`V4 ~port () in
    ignore (Serve.Client.request c "STATS");
    List.iter
      (fun i ->
        ignore
          (Serve.Client.request c (Printf.sprintf "QUERY instructor(q%d)" i)))
      [ 1; 2; 3; 4; 5 ];
    let traces = recent c and entries = retained c in
    ignore (Serve.Client.request c "SHUTDOWN");
    Serve.Client.close c;
    Thread.join thread;
    (traces, entries)
  in
  let check_recent traces =
    check_bool "the last two query trees, oldest first" true
      (List.map Trace.name traces = [ "instructor(q4)"; "instructor(q5)" ]);
    List.iter
      (fun sp -> check_string "a query tree" "serve" (Trace.kind sp))
      traces
  in
  (* every request slow: the STATS is retained, and so is every query *)
  let traces, entries = run ~slow_query_us:0.001 in
  check_recent traces;
  check_bool "FLIGHT holds the slow STATS" true
    (List.exists
       (fun e ->
         json_field "reason" e = Some (Trace.Json.Str "slow")
         &&
         match json_field "span" e with
         | Some v -> Trace.name (Trace.of_json_value v) = "STATS"
         | None -> false)
       entries);
  check_bool "and no sample entry" true
    (List.for_all
       (fun e -> json_field "reason" e <> Some (Trace.Json.Str "sample"))
       entries);
  (* nothing slow: the queries are sampled only, and FLIGHT lists none *)
  let traces, entries = run ~slow_query_us:0.0 in
  check_recent traces;
  check_int "FLIGHT lists no sampled query" 0 (List.length entries)

(* ---------- One snapshot file per save ---------- *)

(* Two domains save one registry 200 times each while a third loads the
   state dir into fresh registries: no save raises, and every load
   restores both forms with their learned strategies. *)
let snapshot_concurrent_saves () =
  let rulebase, db = kb () in
  let reg = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  List.iter
    (fun q ->
      for _ = 1 to 200 do
        ignore (Serve.Registry.answer reg ~db (D.Parser.parse_atom q))
      done)
    [ "instructor(manolis)"; "instructor(X)" ];
  let learned = learned_strategies reg in
  check_int "two learned forms" 2 (List.length learned);
  let dir = temp_dir () in
  ignore (Serve.Snapshot.save ~dir reg);
  let saving = Atomic.make 2 in
  let saver () =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.decr saving)
          (fun () ->
            for _ = 1 to 200 do
              ignore (Serve.Snapshot.save ~dir reg)
            done))
  in
  let savers = [ saver (); saver () ] in
  let loader =
    Domain.spawn (fun () ->
        let rec go loads bad =
          if Atomic.get saving = 0 then (loads, bad)
          else
            let reg' =
              Serve.Registry.create ~rulebase (Serve.Metrics.create ())
            in
            let n = Serve.Snapshot.load ~dir reg' in
            go (loads + 1)
              (if n = 2 && learned_strategies reg' = learned then bad
               else bad + 1)
        in
        go 0 0)
  in
  let errors =
    List.filter_map
      (fun d ->
        match Domain.join d with
        | () -> None
        | exception e -> Some (Printexc.to_string e))
      savers
  in
  let loads, bad = Domain.join loader in
  check_lines "no save raised" [] errors;
  check_bool "loads ran during the saves" true (loads > 0);
  check_int "loads that missed a form or its strategy" 0 bad

(* Periodic snapshots are written by the acceptor: after a climbing
   stream the state file appears with no SNAPSHOT verb, and a fresh
   registry loads the climbed strategy from it. *)
let server_periodic_snapshot () =
  let dir = temp_dir () in
  let thread, port, _ =
    start_cfg_server
      {
        (server_config ~state_dir:dir ()) with
        Serve.Server.snapshot_interval = 0.05;
      }
  in
  let replies =
    talk port
      (List.init 200 (fun _ -> "QUERY instructor(manolis)")
      @ [ "STRATEGY instructor(q)" ])
  in
  let climbed = List.nth replies 200 in
  check_string "climbed to grad-first"
    "OK instructor_1_b ⟨R_instructor_grad D_grad R_instructor_prof D_prof⟩"
    climbed;
  let rulebase, _ = kb () in
  let loaded () =
    let reg = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
    ignore (Serve.Snapshot.load ~dir reg);
    List.map (fun (k, s) -> "OK " ^ k ^ " " ^ s) (learned_strategies reg)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (not (List.mem climbed (loaded ()))) && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.02
  done;
  check_bool "a fresh registry loads the climbed strategy" true
    (List.mem climbed (loaded ()));
  check_bool "shut down" true (List.mem "BYE" (talk port [ "SHUTDOWN" ]));
  Thread.join thread

(* A state dir holding only per-form files of the earlier layout loads
   nothing and says so in one warn record. *)
let snapshot_old_layout_warns () =
  let dir = temp_dir () in
  Store.Fsync.ensure_dir dir;
  List.iter
    (fun ext ->
      Out_channel.with_open_bin
        (Filename.concat dir ("instructor_1_b" ^ ext))
        (fun oc -> output_string oc "x"))
    [ ".form"; ".graph"; ".strategy" ];
  let log_path = Filename.concat dir "load.log" in
  let log = Obs.Log.open_file ~level:Obs.Log.Info log_path in
  let rulebase, _ = kb () in
  let reg = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  let n = Serve.Snapshot.load ~log ~dir reg in
  Obs.Log.close log;
  check_int "nothing loaded" 0 n;
  let records = In_channel.with_open_bin log_path In_channel.input_lines in
  check_int "one record" 1 (List.length records);
  check_bool "a warn counting the three old files" true
    (contains "\"level\":\"warn\"" (List.hd records)
    && contains "\"files\":3" (List.hd records))

let suite =
  [
    ( "serve",
      [
        case "protocol parse and render" protocol_parse;
        protocol_parse_sub_agrees;
        protocol_parse_total;
        frame_roundtrip;
        case "frame truncation and corruption" frame_truncation;
        slow_case "line client that never reads is pushed back"
          server_line_backpressure;
        slow_case "a full loop sheds while its peer loop answers"
          server_shed_per_loop;
        slow_case "a failed snapshot is logged" server_snapshot_failure_logged;
        case "write caps shed with BUSY-then-disconnect" conn_write_cap_sheds;
        case "metrics counters and histogram" metrics_counters_and_histogram;
        case "registry canonical forms" registry_forms;
        case "registry shares learners and climbs" registry_shares_and_learns;
        case "snapshot save/load resumes the strategy" snapshot_roundtrip;
        slow_case "server answers concurrent clients" server_concurrent_clients;
        slow_case "server sheds connections past max-conns"
          server_sheds_when_full;
        slow_case "v4 sheds requests with Busy, conn survives"
          server_v4_busy_keeps_conn;
        slow_case "v4 pipelines 32 requests on one conn" server_v4_pipelining;
        slow_case "slow partial frame neither blocks nor breaks"
          server_slow_frame;
        slow_case "client auto-negotiation falls back to lines"
          client_falls_back_to_lines;
        slow_case "server restart resumes the snapshot" server_snapshot_restart;
        slow_case "fleet balances conns across loops"
          server_fleet_balances_conns;
        slow_case "fleet drains in-flight work on every loop"
          server_fleet_drains_every_loop;
        slow_case "slowloris on loop 0 does not stall loop 1"
          server_fleet_isolates_slow_peer;
        slow_case "write cap answers BUSY and disconnects"
          server_write_cap_disconnects;
        slow_case "per-ip cap sheds at accept and releases on close"
          server_per_ip_cap;
        slow_case "idle timeout closes quiet conns" server_idle_timeout_closes;
        case "eventfd wake channel coalesces bursts" eventloop_wakeups_coalesce;
        slow_case "lifecycle traces retained, exported, and linted"
          server_lifecycle_flight_e2e;
        slow_case "lifecycle layer off: serving unaffected"
          server_lifecycle_off_still_serves;
        case "metrics blocks golden: cache, memo, store" metrics_blocks_golden;
        case "metrics blocks golden: cache off, no store"
          metrics_blocks_golden_off;
        slow_case "learning identical on 1 loop and on 4 loops"
          server_learning_same_across_loops;
        slow_case "requests behind QUIT are dropped, conn closes"
          server_quit_drops_pending;
        slow_case "SNAPSHOT into an uncreatable state dir is an ERR"
          server_snapshot_verb_unix_error;
        case "lifecycle labels the engine that answered"
          lifecycle_backend_labels;
        case "request bookkeeping allocates nothing"
          bookkeeping_allocates_nothing;
        case "learner gauges are read at render" learner_gauges_read_at_render;
        slow_case "metrics port served on the loops"
          server_metrics_port_on_loops;
        slow_case "one rate-limited record per retained request"
          server_retained_record;
        slow_case "trace sampling through retention"
          server_sampling_through_retention;
        case "metrics whole golden: STATS, STATS JSON, /metrics"
          metrics_whole_golden;
        slow_case "a predicate name breaks no reply line"
          server_predicate_name_breaks_no_line;
        case "distinct predicate names get distinct form keys"
          registry_keys_injective;
        case "metrics render lints clean while domains record"
          metrics_render_while_recording;
        slow_case "concurrent saves never tear the snapshot"
          snapshot_concurrent_saves;
        slow_case "periodic snapshots run on the acceptor"
          server_periodic_snapshot;
        case "an old per-form state dir loads nothing and warns"
          snapshot_old_layout_warns;
      ] );
  ]
