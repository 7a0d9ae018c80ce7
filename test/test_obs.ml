(* The observability layer: histogram quantiles against adversarial
   distributions (the log-bucket "within one bucket boundary"
   guarantee), Prometheus rendering + the exposition linter, the flight
   recorder, and JSONL structured logging with its rate limiter. *)

open Helpers
module H = Obs.Histogram
module E = Obs.Expo

(* ---------- Names ---------- *)

let family_name_validation () =
  check_bool "name regex rejects a leading digit" false (E.name_re_ok "0bad");
  check_bool "name regex accepts colons" true (E.name_re_ok "a:b_c9");
  check_bool "name regex rejects dash" false (E.name_re_ok "a-b");
  check_bool "label regex rejects colon" false (E.label_re_ok "a:b")

(* ---------- Histogram quantiles ---------- *)

(* The exact percentile at the same rank convention the histogram uses:
   rank = max 1 (ceil (q * n)), value = sorted.(rank - 1). The log-bucket
   quantile must return the upper bound of the bucket containing exactly
   that value — that is what "exact to within one bucket boundary"
   means. *)
let exact_percentile values q =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = Int.max 1 (int_of_float (ceil (q *. float_of_int n))) in
  List.nth sorted (rank - 1)

(* Observations are given in µs and recorded through [observe_ns]. *)
let ns_of_us us = int_of_float (us *. 1e3)

let histogram_of values =
  let h = H.create () in
  List.iter (fun us -> H.observe_ns h (ns_of_us us)) values;
  H.snapshot h

(* The upper bound of the bucket that holds [us]: the least
   [bucket_upper i] above its whole µs, else the overflow bucket's. *)
let bucket_upper_of us =
  let whole = ns_of_us us / 1000 in
  let rec go i =
    if i >= H.n_buckets || whole < H.bucket_upper i then H.bucket_upper i
    else go (i + 1)
  in
  go 0

let check_quantiles name values =
  let s = histogram_of values in
  List.iter
    (fun q ->
      let exact = exact_percentile values q in
      check_int
        (Printf.sprintf "%s: p%.0f covers the exact percentile's bucket"
           name (q *. 100.))
        (bucket_upper_of exact)
        (H.quantile s q))
    [ 0.5; 0.9; 0.99 ]

let hist_all_in_one_bucket () =
  (* every observation in [64, 128): all percentiles are that bucket *)
  check_quantiles "one bucket" (List.init 100 (fun i -> 64.0 +. float_of_int (i mod 60)));
  check_int "empty histogram quantile is 0" 0
    (H.quantile (histogram_of []) 0.99)

let hist_bimodal () =
  (* 90 fast (~8 µs) and 10 slow (~100 ms): p50 in the fast mode, p99 in
     the slow mode, orders of magnitude apart *)
  let values =
    List.init 90 (fun _ -> 8.0) @ List.init 10 (fun _ -> 100_000.0)
  in
  check_quantiles "bimodal" values;
  let s = histogram_of values in
  check_bool "p50 stays in the fast mode" true (H.quantile s 0.5 <= 16);
  check_bool "p99 lands in the slow mode" true
    (H.quantile s 0.99 >= 65536)

let hist_monotone_ramp () =
  check_quantiles "ramp" (List.init 1000 (fun i -> float_of_int (i + 1)))

let hist_overflow () =
  let s = histogram_of [ 1e12 ] in
  check_int "overflow observation lands in the overflow bucket"
    (H.bucket_upper H.n_buckets)
    (H.quantile s 0.5);
  check_int "count still tracks" 1 s.H.count

let hist_quantile_qcheck =
  qcheck ~count:300 "random histograms: quantile within one bucket of exact"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (float_range 0.0 2e6))
        (float_range 0.01 0.99))
    (fun (values, q) ->
      H.quantile (histogram_of values) q
      = bucket_upper_of (exact_percentile values q))

(* ---------- Exposition rendering + lint ---------- *)

let sample_families () =
  [
    {
      E.name = "t_queries_total";
      help = "Queries \"answered\"\nso far";
      kind = E.Counter;
      label_names = [ "form" ];
      samples =
        [ ([ "instructor_1_b" ], E.Int 83); ([ "weird\"form\\n" ], E.Int 1) ];
    };
    {
      E.name = "t_epsilon";
      help = "eps";
      kind = E.Gauge;
      label_names = [];
      samples = [ ([], E.Float Float.infinity) ];
    };
    {
      E.name = "t_latency_us";
      help = "lat";
      kind = E.Histogram;
      label_names = [];
      samples = [ ([], E.Hist (histogram_of [ 3.0; 5.0; 900.0 ])) ];
    };
  ]

let render_lints_clean () =
  let doc = E.render (sample_families ()) in
  (match Obs.Expo.lint doc with
  | Ok () -> ()
  | Error problems ->
    Alcotest.failf "rendered document must lint: %s"
      (String.concat "; " problems));
  check_bool "histogram +Inf bucket present" true
    (let needle = "t_latency_us_bucket{le=\"+Inf\"} 3" in
     let rec mem i =
       i + String.length needle <= String.length doc
       && (String.sub doc i (String.length needle) = needle || mem (i + 1))
     in
     mem 0)

let render_parse_roundtrip () =
  let doc = E.render (sample_families ()) in
  let samples = Obs.Expo.parse_samples doc in
  let find metric labels =
    List.find_opt
      (fun s -> s.Obs.Expo.metric = metric && s.Obs.Expo.labels = labels)
      samples
  in
  (match find "t_queries_total" [ ("form", "instructor_1_b") ] with
  | Some s -> check_float "labeled counter value" 83.0 s.Obs.Expo.value
  | None -> Alcotest.fail "labeled counter sample missing");
  (match find "t_queries_total" [ ("form", "weird\"form\\n") ] with
  | Some s -> check_float "escaped label round-trips" 1.0 s.Obs.Expo.value
  | None -> Alcotest.fail "escaped label sample missing");
  (match find "t_epsilon" [] with
  | Some s -> check_bool "+Inf round-trips" true (s.Obs.Expo.value = Float.infinity)
  | None -> Alcotest.fail "gauge sample missing");
  (match find "t_latency_us_sum" [] with
  | Some s -> check_float "histogram sum" 908.0 s.Obs.Expo.value
  | None -> Alcotest.fail "histogram _sum missing")

let float_str_forms () =
  check_string "+Inf" "+Inf" (Obs.Expo.float_str Float.infinity);
  check_string "-Inf" "-Inf" (Obs.Expo.float_str Float.neg_infinity);
  check_string "NaN" "NaN" (Obs.Expo.float_str Float.nan);
  check_string "integral float" "42" (Obs.Expo.float_str 42.0)

let lint_catches_violations () =
  let check_rejects name doc =
    match Obs.Expo.lint doc with
    | Ok () -> Alcotest.failf "%s: lint must reject" name
    | Error problems -> check_bool (name ^ " reports a problem") true (problems <> [])
  in
  check_rejects "missing HELP/TYPE" "a_total 1\n";
  check_rejects "TYPE without HELP" "# TYPE a_total counter\na_total 1\n";
  check_rejects "bad type"
    "# HELP a_total h\n# TYPE a_total widget\na_total 1\n";
  check_rejects "duplicate sample"
    "# HELP a_total h\n# TYPE a_total counter\na_total 1\na_total 2\n";
  check_rejects "invalid metric name"
    "# HELP 0a h\n# TYPE 0a counter\n0a 1\n";
  check_rejects "non-cumulative histogram buckets"
    "# HELP h h\n# TYPE h histogram\n\
     h_bucket{le=\"2\"} 5\nh_bucket{le=\"4\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
     h_sum 10\nh_count 5\n";
  check_rejects "+Inf bucket disagrees with _count"
    "# HELP h h\n# TYPE h histogram\n\
     h_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 2\nh_count 3\n";
  check_rejects "histogram missing _sum"
    "# HELP h h\n# TYPE h histogram\n\
     h_bucket{le=\"+Inf\"} 1\nh_count 1\n";
  match
    Obs.Expo.lint
      "# HELP h h\n# TYPE h histogram\n\
       h_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n"
  with
  | Ok () -> ()
  | Error problems ->
    Alcotest.failf "well-formed histogram must pass: %s"
      (String.concat "; " problems)

(* ---------- Label-value escaping ---------- *)

let contains_s hay needle =
  let rec go i =
    i + String.length needle <= String.length hay
    && (String.sub hay i (String.length needle) = needle || go (i + 1))
  in
  go 0

let label_value_escaping () =
  let doc =
    E.render
      [
        {
          E.name = "esc_total";
          help = "h";
          kind = E.Counter;
          label_names = [ "k" ];
          samples =
            List.map
              (fun v -> ([ v ], E.Int 1))
              [ "back\\slash"; "new\nline"; "quo\"te"; "all\\three\"\n" ];
        };
      ]
  in
  (* The exposition format escapes exactly backslash, newline, and double
     quote inside label values. *)
  check_bool "backslash escaped" true
    (contains_s doc {|esc_total{k="back\\slash"} 1|});
  check_bool "newline escaped" true
    (contains_s doc {|esc_total{k="new\nline"} 1|});
  check_bool "quote escaped" true
    (contains_s doc {|esc_total{k="quo\"te"} 1|});
  check_bool "combined escapes" true
    (contains_s doc {|esc_total{k="all\\three\"\n"} 1|});
  (match Obs.Expo.lint doc with
  | Ok () -> ()
  | Error problems ->
    Alcotest.failf "escaped document must lint: %s"
      (String.concat "; " problems));
  let samples = Obs.Expo.parse_samples doc in
  List.iter
    (fun v ->
      check_bool "escaped value parses back" true
        (List.exists
           (fun s ->
             s.Obs.Expo.metric = "esc_total"
             && s.Obs.Expo.labels = [ ("k", v) ])
           samples))
    [ "back\\slash"; "new\nline"; "quo\"te"; "all\\three\"\n" ]

(* ---------- Flight recorder ---------- *)

module F = Obs.Flight

let flight_records_and_snapshots () =
  let r = F.create ~capacity:8 in
  check_bool "enabled" true (F.enabled r);
  check_int "capacity kept" 8 (F.capacity r);
  for i = 0 to 4 do
    F.record r
      ~ts_ns:(1000 + i)
      ~code:F.code_request ~loop:2 ~conn:7 ~rid:i ~a:i ~b:9
  done;
  check_int "seq counts events" 5 (F.seq r);
  let evs = F.snapshot r in
  check_int "all five present" 5 (List.length evs);
  let e0 = List.hd evs in
  check_int "oldest first" 0 e0.F.ev_seq;
  check_bool "ts survives" true (e0.F.ev_ts_ns = 1000L);
  check_int "code" F.code_request e0.F.ev_code;
  check_int "loop" 2 e0.F.ev_loop;
  check_int "conn" 7 e0.F.ev_conn;
  check_int "rid" 0 e0.F.ev_rid;
  check_bool "detail a" true (e0.F.ev_a = 0L);
  check_bool "detail b" true (e0.F.ev_b = 9L);
  check_string "event JSON shape"
    "{\"seq\":0,\"ts_ns\":1000,\"code\":\"request\",\"loop\":2,\"conn\":7,\
     \"rid\":0,\"a\":0,\"b\":9}"
    (F.event_to_json e0)

let flight_wraps () =
  let r = F.create ~capacity:4 in
  for i = 0 to 9 do
    F.record r ~ts_ns:i ~code:F.code_accept ~loop:0 ~conn:i ~rid:0 ~a:0
      ~b:0
  done;
  let evs = F.snapshot r in
  check_int "only the last capacity survive" 4 (List.length evs);
  check_int "oldest surviving seq" 6 (List.hd evs).F.ev_seq;
  check_int "newest last" 9 (List.nth evs 3).F.ev_seq;
  check_int "conn tracks the survivors" 6 (List.hd evs).F.ev_conn

let flight_capacity_edge_cases () =
  check_int "capacity rounds up to a power of two" 8
    (F.capacity (F.create ~capacity:5));
  let d = F.create ~capacity:0 in
  check_bool "capacity 0 disables" false (F.enabled d);
  F.record d ~ts_ns:1 ~code:F.code_accept ~loop:0 ~conn:0 ~rid:0 ~a:0 ~b:0;
  check_int "disabled ring records nothing" 0 (List.length (F.snapshot d));
  check_int "disabled ring has no seq" 0 (F.seq d)

let flight_code_names () =
  List.iter
    (fun (code, name) -> check_string name name (F.code_name code))
    [
      (F.code_accept, "accept"); (F.code_close, "close");
      (F.code_shed, "shed"); (F.code_request, "request");
      (F.code_enqueue, "enqueue"); (F.code_worker, "worker");
      (F.code_respond, "respond"); (F.code_flush, "flush");
    ]

(* ---------- Structured logging ---------- *)

let log_lines f =
  let path = Filename.temp_file "obs_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t = Obs.Log.open_file ~level:Obs.Log.Debug path in
      f t;
      Obs.Log.close t;
      In_channel.with_open_text path In_channel.input_lines)

let contains hay needle =
  let rec go i =
    i + String.length needle <= String.length hay
    && (String.sub hay i (String.length needle) = needle || go (i + 1))
  in
  go 0

let log_record_shape () =
  let lines =
    log_lines (fun t ->
        Obs.Log.info t "query answered"
          ~fields:
            [
              ("conn", Obs.Log.I 7);
              ("q", Obs.Log.S "instructor(\"x\")\n");
              ("latency_us", Obs.Log.F 12.5);
              ("cached", Obs.Log.B false);
              ("span", Obs.Log.J {|{"name":"root"}|});
            ])
  in
  check_int "one record per call" 1 (List.length lines);
  let l = List.hd lines in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "record has %s" needle) true
        (contains l needle))
    [
      {|"ts":"|};
      {|"mono_ns":|};
      {|"level":"info"|};
      {|"msg":"query answered"|};
      {|"conn":7|};
      {|"q":"instructor(\"x\")\n"|};
      {|"latency_us":12.5|};
      {|"cached":false|};
      {|"span":{"name":"root"}|};
    ]

let log_level_filter () =
  let lines =
    log_lines (fun t ->
        Obs.Log.set_level t Obs.Log.Warn;
        check_bool "debug disabled at warn" false
          (Obs.Log.enabled t Obs.Log.Debug);
        check_bool "error enabled at warn" true
          (Obs.Log.enabled t Obs.Log.Error);
        Obs.Log.debug t "dropped";
        Obs.Log.info t "dropped too";
        Obs.Log.error t "kept")
  in
  check_int "only the error record is written" 1 (List.length lines);
  check_bool "null sink is never enabled" false
    (Obs.Log.enabled Obs.Log.null Obs.Log.Error)

let log_levels_roundtrip () =
  List.iter
    (fun l ->
      check_bool "level round-trips" true
        (Obs.Log.level_of_string (Obs.Log.level_to_string l) = Some l))
    [ Obs.Log.Debug; Obs.Log.Info; Obs.Log.Warn; Obs.Log.Error ];
  check_bool "warning is an alias" true
    (Obs.Log.level_of_string "warning" = Some Obs.Log.Warn)

let limiter_admits_and_counts () =
  let lim = Obs.Log.Limiter.create ~min_interval_s:10.0 in
  check_bool "first event admitted" true
    (Obs.Log.Limiter.admit lim ~now:100.0 = Some 0);
  check_bool "burst suppressed" true
    (Obs.Log.Limiter.admit lim ~now:100.1 = None);
  check_bool "still suppressed" true
    (Obs.Log.Limiter.admit lim ~now:109.9 = None);
  check_bool "after the interval, admitted with the suppressed count" true
    (Obs.Log.Limiter.admit lim ~now:110.5 = Some 2)

let suite =
  [
    ( "obs",
      [
        case "family and name validation" family_name_validation;
        case "histogram: one-bucket distribution" hist_all_in_one_bucket;
        case "histogram: bimodal distribution" hist_bimodal;
        case "histogram: monotone ramp" hist_monotone_ramp;
        case "histogram: overflow bucket" hist_overflow;
        hist_quantile_qcheck;
        case "render lints clean" render_lints_clean;
        case "render/parse round-trip" render_parse_roundtrip;
        case "float formatting" float_str_forms;
        case "lint catches violations" lint_catches_violations;
        case "label-value escaping" label_value_escaping;
        case "flight ring records and snapshots" flight_records_and_snapshots;
        case "flight ring wraps" flight_wraps;
        case "flight ring capacity edge cases" flight_capacity_edge_cases;
        case "flight event-code names" flight_code_names;
        case "log record shape" log_record_shape;
        case "log level filtering" log_level_filter;
        case "log level round-trip" log_levels_roundtrip;
        case "slow-query limiter" limiter_admits_and_counts;
      ] );
  ]
