open Helpers
module T = Trace
module C = Core

(* ---------- The null tracer ---------- *)

let null_is_inert () =
  check_bool "null disabled" false (T.enabled T.null);
  check_bool "make enabled" true (T.enabled (T.make ()));
  let sp = T.root T.null "q" in
  check_bool "root on null is dummy" true (sp == T.dummy);
  let child = T.push T.null sp ~kind:"sld" "child" in
  check_bool "push on null is dummy" true (child == T.dummy);
  T.event T.null sp ~kind:"retrieval" ~cost:1.0 ~attrs:[ ("k", "v") ] "e";
  T.add_cost T.null sp 5.0;
  T.set_attr T.null sp "k" "v";
  T.finish T.null sp;
  check_bool "no root recorded" true (T.root_span T.null = None);
  check_float "dummy stays cost-free" 0.0 (T.total_cost T.dummy);
  check_int "dummy has no children" 0 (List.length (T.children T.dummy));
  check_int "dummy has no attrs" 0 (List.length (T.attrs T.dummy))

(* ---------- Recording ---------- *)

(* A small fixed tree used by several tests:
   query
   ├── sld (cost 0)
   │   ├── reduction r1 (cost 1)
   │   └── retrieval d1 (cost 1, pattern attr)
   └── exec (cost 0)
       ├── arc Rp (cost 1)
       └── arc Dp (cost 2.5) *)
let build_fixed () =
  let t = T.make () in
  let root = T.root t ~kind:"query" "instructor(manolis)" in
  let sld = T.push t root ~kind:"sld" "sld" in
  T.event t sld ~kind:"reduction" ~cost:1.0 "instructor(manolis)";
  T.event t sld ~kind:"retrieval" ~cost:1.0
    ~attrs:[ ("pattern", "prof(manolis)"); ("hit", "false") ]
    "prof";
  let exec = T.push t root ~kind:"exec" "exec" in
  T.event t exec ~kind:"arc" ~cost:1.0 ~attrs:[ ("arc_id", "0") ] "Rp";
  T.event t exec ~kind:"arc" ~cost:2.5 ~attrs:[ ("arc_id", "2") ] "Dp";
  T.finish t exec;
  T.finish t sld;
  T.finish t root;
  (t, root)

let recording_sums_costs () =
  let _, root = build_fixed () in
  check_float "root own cost" 0.0 (T.cost root);
  check_float "total cost" 5.5 (T.total_cost root);
  check_int "two phases" 2 (List.length (T.children root));
  let execs = T.find_kind root "exec" in
  check_int "one exec phase" 1 (List.length execs);
  check_float "exec subtree cost" 3.5 (T.total_cost (List.hd execs));
  check_int "two arcs" 2 (List.length (T.find_kind root "arc"));
  let d1 = List.hd (T.find_kind root "retrieval") in
  check_bool "attr lookup" true (T.attr d1 "pattern" = Some "prof(manolis)");
  check_bool "missing attr" true (T.attr d1 "nope" = None)

let add_cost_and_attrs () =
  let t = T.make () in
  let root = T.root t "q" in
  T.add_cost t root 2.0;
  T.add_cost t root 0.5;
  check_float "add_cost accumulates" 2.5 (T.cost root);
  T.set_attr t root "learner" "pib";
  T.set_attr t root "learner" "palo";
  check_bool "last write wins" true (T.attr root "learner" = Some "palo");
  (* A new root replaces the old one. *)
  let root2 = T.root t "q2" in
  check_bool "root replaced" true
    (match T.root_span t with Some sp -> sp == root2 | None -> false)

let unfinished_span_has_zero_wall () =
  let t = T.make () in
  let root = T.root t "q" in
  let child = T.push t root "child" in
  T.finish t root;
  check_bool "unfinished wall is 0" true (T.wall_ns child = 0L);
  check_bool "finished wall >= 0" true (T.wall_ns root >= 0L)

(* ---------- Rendering ---------- *)

let pp_tree_deterministic () =
  let _, root = build_fixed () in
  let got = Format.asprintf "%a" T.pp_tree root in
  let want =
    "instructor(manolis) [query] cost=0\n\
    \  sld [sld] cost=0\n\
    \    instructor(manolis) [reduction] cost=1\n\
    \    prof [retrieval] cost=1 pattern=prof(manolis) hit=false\n\
    \  exec [exec] cost=0\n\
    \    Rp [arc] cost=1 arc_id=0\n\
    \    Dp [arc] cost=2.5 arc_id=2\n"
  in
  check_string "text tree" want got

let json_round_trip_fixed () =
  let _, root = build_fixed () in
  let sp = T.of_json (T.to_json root) in
  check_bool "fixed tree round-trips" true (T.equal sp root)

let json_round_trip_nasty_strings () =
  let t = T.make () in
  let root =
    T.root t ~kind:"query" "quote \" backslash \\ newline \n tab \t"
  in
  T.set_attr t root "k\x01" "control \x1f and utf8 ⟨Rp⟩";
  T.event t root ~cost:0.125 "\r\x00";
  T.finish t root;
  let json = T.to_json root in
  check_bool "nasty strings round-trip" true (T.equal (T.of_json json) root)

let json_round_trip_random =
  qcheck "random span trees round-trip through JSON" ~count:200
    QCheck2.Gen.(
      pair small_nat (list_size (int_bound 8) (pair string (pair string float))))
    (fun (depth, items) ->
      let t = T.make () in
      let root = T.root t ~kind:"query" "root" in
      (* Build a chain [depth] deep, then scatter the items as events. *)
      let parent = ref root in
      for i = 1 to min depth 6 do
        parent := T.push t !parent ~kind:"phase" (Printf.sprintf "p%d" i)
      done;
      List.iter
        (fun (name, (k, cost)) ->
          if Float.is_nan cost || Float.is_integer (cost /. infinity) then ()
          else
            T.event t !parent ~kind:k ~cost ~attrs:[ (k, name) ] name)
        items;
      T.finish t root;
      T.equal (T.of_json (T.to_json root)) root)

let of_json_rejects_malformed () =
  let rejects s =
    match T.of_json s with
    | exception T.Parse_error _ -> true
    | _ -> false
  in
  check_bool "empty" true (rejects "");
  check_bool "not an object" true (rejects "[1,2]");
  check_bool "missing name" true (rejects "{\"kind\":\"query\"}");
  check_bool "truncated" true
    (rejects "{\"name\":\"q\",\"kind\":\"\",\"cost\":1");
  check_bool "garbage after" true
    (rejects
       "{\"name\":\"q\",\"kind\":\"\",\"cost\":0,\"start_ns\":0,\"wall_ns\":0}x")

(* ---------- Pure spans, embedded JSON, Chrome export ---------- *)

let pure_span_constructor () =
  let child =
    T.span ~kind:"queue" ~start_ns:1_000L ~wall_ns:500L ~cost:0.0 "queue"
  in
  let root =
    T.span ~kind:"request" ~start_ns:0L ~wall_ns:2_000L
      ~attrs:[ ("loop", "3"); ("conn", "8") ]
      ~children:[ child ] "QUERY instructor(manolis)"
  in
  check_string "name" "QUERY instructor(manolis)" (T.name root);
  check_string "kind" "request" (T.kind root);
  check_bool "attrs kept in order" true
    (T.attrs root = [ ("loop", "3"); ("conn", "8") ]);
  check_int "children attached" 1 (List.length (T.children root));
  check_bool "child timestamps survive" true
    (T.start_ns child = 1_000L && T.wall_ns child = 500L);
  check_bool "defaults are zero" true
    (let bare = T.span "x" in
     T.start_ns bare = 0L && T.wall_ns bare = 0L && T.cost bare = 0.0
     && T.kind bare = "span" && T.children bare = []);
  check_bool "pure spans round-trip through JSON" true
    (T.equal (T.of_json (T.to_json root)) root)

let json_value_of_embedded_envelope () =
  (* The FLIGHT reply embeds span objects inside a larger document; the
     exposed Json reader parses the envelope and of_json_value lifts the
     embedded spans. *)
  let _, root = build_fixed () in
  let envelope =
    Printf.sprintf
      "{\"version\":1,\"retained\":[{\"seq\":4,\"reason\":\"slow\",\
       \"span\":%s}],\"empty\":[],\"flag\":true,\"nothing\":null}"
      (T.to_json root)
  in
  match T.Json.parse envelope with
  | T.Json.Obj fields ->
    (match List.assoc_opt "version" fields with
    | Some (T.Json.Num "1") -> ()
    | _ -> Alcotest.fail "version field");
    (match List.assoc_opt "flag" fields with
    | Some (T.Json.Bool true) -> ()
    | _ -> Alcotest.fail "bool field");
    (match List.assoc_opt "nothing" fields with
    | Some T.Json.Jnull -> ()
    | _ -> Alcotest.fail "null field");
    (match List.assoc_opt "retained" fields with
    | Some (T.Json.Arr [ T.Json.Obj entry ]) -> (
      match List.assoc_opt "span" entry with
      | Some sv ->
        check_bool "embedded span lifts back" true
          (T.equal (T.of_json_value sv) root)
      | None -> Alcotest.fail "span field missing")
    | _ -> Alcotest.fail "retained array shape");
    check_bool "trailing garbage rejected" true
      (match T.Json.parse (envelope ^ "x") with
      | exception T.Parse_error _ -> true
      | _ -> false)
  | _ -> Alcotest.fail "envelope must parse as an object"

let chrome_export_shape () =
  let worker =
    T.span ~kind:"worker" ~start_ns:3_000L ~wall_ns:4_000L
      ~attrs:[ ("loop", "1") ] "worker"
  in
  let root =
    T.span ~kind:"request" ~start_ns:2_000L ~wall_ns:6_000L
      ~attrs:[ ("loop", "1") ] ~children:[ worker ] "QUERY q \"x\""
  in
  let doc = T.to_chrome [ root ] in
  match T.Json.parse doc with
  | T.Json.Obj [ ("traceEvents", T.Json.Arr events) ] ->
    check_int "one event per span" 2 (List.length events);
    let field ev k =
      match ev with
      | T.Json.Obj fields -> List.assoc_opt k fields
      | _ -> None
    in
    List.iter
      (fun ev ->
        check_bool "complete-event phase" true
          (field ev "ph" = Some (T.Json.Str "X"));
        check_bool "pid 1" true (field ev "pid" = Some (T.Json.Num "1"));
        check_bool "tid from the loop attr" true
          (field ev "tid" = Some (T.Json.Num "1")))
      events;
    let ev_root = List.hd events and ev_child = List.nth events 1 in
    check_bool "names escape" true
      (field ev_root "name" = Some (T.Json.Str "QUERY q \"x\""));
    check_bool "ts in microseconds" true
      (field ev_root "ts" = Some (T.Json.Num "2")
      && field ev_child "ts" = Some (T.Json.Num "3"));
    check_bool "dur in microseconds" true
      (field ev_root "dur" = Some (T.Json.Num "6")
      && field ev_child "dur" = Some (T.Json.Num "4"));
    (* The child's lane is nested inside the parent's on the timeline. *)
    let num ev k =
      match field ev k with
      | Some (T.Json.Num raw) -> float_of_string raw
      | _ -> Alcotest.failf "missing numeric %s" k
    in
    check_bool "child nests within parent" true
      (num ev_child "ts" >= num ev_root "ts"
      && num ev_child "ts" +. num ev_child "dur"
         <= num ev_root "ts" +. num ev_root "dur");
    (match field ev_root "args" with
    | Some (T.Json.Obj args) ->
      check_bool "cost rides in args" true
        (List.assoc_opt "cost" args = Some (T.Json.Str "0"));
      check_bool "attrs ride in args" true
        (List.assoc_opt "loop" args = Some (T.Json.Str "1"))
    | _ -> Alcotest.fail "args object missing");
    check_bool "span without the tid attr lands on tid 0" true
      (match T.Json.parse (T.to_chrome [ T.span "bare" ]) with
      | T.Json.Obj [ ("traceEvents", T.Json.Arr [ ev ]) ] ->
        field ev "tid" = Some (T.Json.Num "0")
      | _ -> false)
  | _ -> Alcotest.fail "chrome export must be {traceEvents:[...]}"

(* ---------- Cost-model consistency (the central invariant) ---------- *)

let exec_trace_matches_cost_ga () =
  (* Executor level: the arc events' summed cost equals c(Θ, I). *)
  let ga = make_ga ~cost:(function `Rp -> 1.0 | `Rg -> 2.0 | `Dp -> 3.0 | `Dg -> 4.0) () in
  List.iter
    (fun (dp, dg) ->
      let ctx = ga_context ga ~dp ~dg in
      List.iter
        (fun theta ->
          let t = Trace.make () in
          let parent = Trace.root t ~kind:"exec" "exec" in
          let outcome = Strategy.Exec.run ~tracer:t ~parent (Strategy.Spec.Dfs theta) ctx in
          Trace.finish t parent;
          check_float "arc events sum to c(Θ,I)" outcome.Strategy.Exec.cost
            (Trace.total_cost parent))
        [ ga_theta1 ga; ga_theta2 ga ])
    [ (true, true); (true, false); (false, true); (false, false) ]

let monitor_trace_matches_cost =
  qcheck "Monitor: exec span cost ≡ recorded cost" ~count:100
    (QCheck2.Gen.pair gen_experiment_instance QCheck2.Gen.small_nat)
    (fun ((g, model), seed) ->
      let qp =
        C.Monitor.create (Strategy.Spec.default g) C.Monitor.null_learner
      in
      let ctx = any_context model seed in
      let t = Trace.make () in
      let parent = Trace.root t ~kind:"query" "q" in
      let outcome, _ = C.Monitor.answer ~tracer:t ~parent qp ctx in
      Trace.finish t parent;
      match Trace.find_kind parent "exec" with
      | [ exec ] ->
        abs_float (Trace.total_cost exec -. outcome.Strategy.Exec.cost) < 1e-9
      | _ -> false)

let live_trace_consistent_on_figure1 () =
  (* End to end on the real database: for every query, the exec span
     sums to the answer's paper cost and to the work counters on the
     ANSWER line — the form is modelled exactly, so that execution is the
     one that answered, and no SLD ran — across a stream long enough to
     include a climb. *)
  let rb = Workload.University.rulebase () in
  let live =
    C.Live.create ~rulebase:rb
      ~query_form:(Datalog.Parser.parse_atom "instructor(q)")
      ()
  in
  let db = Workload.University.db1 () in
  let climbs = ref 0 in
  for i = 1 to 60 do
    let name = if i mod 10 = 0 then "fred" else "manolis" in
    let q = Datalog.Atom.make "instructor" [ Datalog.Term.const name ] in
    let t = Trace.make () in
    let ans = C.Live.answer ~tracer:t live ~db q in
    if ans.C.Live.switched then incr climbs;
    let root =
      match Trace.root_span t with Some sp -> sp | None -> Alcotest.fail "no root"
    in
    check_string "root kind" "query" (Trace.kind root);
    (match Trace.find_kind root "exec" with
    | [ exec ] ->
      check_float "exec span ≡ paper cost" ans.C.Live.cost
        (Trace.total_cost exec);
      check_float "exec span ≡ reductions + retrievals"
        (float_of_int
           (ans.C.Live.stats.Datalog.Sld.reductions
           + ans.C.Live.stats.Datalog.Sld.retrievals))
        (Trace.total_cost exec)
    | _ -> Alcotest.fail "expected exactly one exec span");
    check_int "an exec-served form has no sld span" 0
      (List.length (Trace.find_kind root "sld"));
    match Trace.find_kind root "learn" with
    | [ learn ] ->
      check_bool "climb event iff switched" ans.C.Live.switched
        (Trace.find_kind learn "climb" <> [])
    | _ -> Alcotest.fail "expected exactly one learn span"
  done;
  check_bool "the stream produced a climb" true (!climbs > 0);
  check_int "Live counts the same climbs" !climbs (C.Live.climbs live)

let live_null_tracer_same_answers () =
  (* Tracing must be an observer: identical answers and costs with and
     without it. *)
  let fresh () =
    C.Live.create
      ~rulebase:(Workload.University.rulebase ())
      ~query_form:(Datalog.Parser.parse_atom "instructor(q)")
      ()
  in
  let db = Workload.University.db1 () in
  let live_a = fresh () and live_b = fresh () in
  List.iter
    (fun name ->
      let q = Datalog.Atom.make "instructor" [ Datalog.Term.const name ] in
      let a = C.Live.answer live_a ~db q in
      let b = C.Live.answer ~tracer:(Trace.make ()) live_b ~db q in
      check_bool (name ^ " same result") true
        ((a.C.Live.result = None) = (b.C.Live.result = None));
      check_float (name ^ " same cost") a.C.Live.cost b.C.Live.cost;
      check_int (name ^ " same retrievals")
        a.C.Live.stats.Datalog.Sld.retrievals
        b.C.Live.stats.Datalog.Sld.retrievals)
    [ "manolis"; "fred"; "russ"; "manolis"; "manolis" ]

let suite =
  [
    ( "trace",
      [
        case "null tracer is inert" null_is_inert;
        case "recording sums costs" recording_sums_costs;
        case "add_cost / set_attr" add_cost_and_attrs;
        case "unfinished span wall = 0" unfinished_span_has_zero_wall;
        case "pp_tree is deterministic" pp_tree_deterministic;
        case "JSON round-trip (fixed)" json_round_trip_fixed;
        case "JSON round-trip (nasty strings)" json_round_trip_nasty_strings;
        json_round_trip_random;
        case "of_json rejects malformed" of_json_rejects_malformed;
        case "pure span constructor" pure_span_constructor;
        case "Json reader on embedded envelopes" json_value_of_embedded_envelope;
        case "Chrome trace-event export" chrome_export_shape;
        case "exec arc events ≡ c(Θ,I) on G_A" exec_trace_matches_cost_ga;
        monitor_trace_matches_cost;
        case "Live trace consistent on Figure 1" live_trace_consistent_on_figure1;
        case "tracing is a pure observer" live_null_tracer_same_answers;
      ] );
  ]
