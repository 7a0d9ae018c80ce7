(* E24 — protocol v4 pipelining vs the v3 line protocol.

   Three phases against fresh in-process `strategem serve` instances
   (fresh server per phase, same seeds, so the learning trajectories
   and cache states are comparable):

   A. v3 closed loop — one connection, E24_QUERIES sequential line
      requests (window 1). Its throughput is the offered-load anchor
      and its p99 the latency bar.

   B. v4 pipelined — one connection, the same queries with E24_WINDOW
      requests in flight: post the first W frames, then post the next
      as each response lands. The tentpole claim is throughput: one
      pipelined connection must sustain >= E24_SPEEDUP_MIN (default 2)
      times the sequential v3 rate, because the window keeps its loop
      busy where the line dialect leaves it idle for a full RTT per
      request.

   C. v4 open loop — requests posted on a fixed schedule at exactly
      phase A's achieved rate (equal offered load), responses collected
      by a second thread. Latency is measured from the *scheduled* send
      time, not the actual one, so sender stalls cannot hide queueing
      delay (no coordinated omission). The gate: open-loop v4 p99 <=
      E24_P99_FACTOR (default 1.0) x the v3 closed-loop p99.

   Knobs (environment): E24_QUERIES (default 2000), E24_WINDOW
   (default 32), E24_PEOPLE (default 5000), E24_LOOPS (reactor fleet
   size; default 0 = min(4, the host's recommended domain count)),
   E24_JSON (path for machine-readable results), E24_REQUIRE_GATE
   (non-empty: exit 1 when either gate fails, or when any phase got a
   reply other than ANSWER — the CI smoke gate),
   E24_SPEEDUP_MIN, E24_P99_FACTOR, E24_P99_FLOOR_MS (the p99 bar is
   max(factor x closed p99, floor) — the floor keeps the gate
   meaningful on small/shared hosts where open-loop p99 is dominated
   by sender scheduling jitter rather than server queueing; it still
   catches lost-wakeup-class stalls, which show up as hundreds of
   ms). *)

open Serve_load

let total_queries () = env_int "E24_QUERIES" 2_000
let window () = Int.max 1 (env_int "E24_WINDOW" 32)
let n_people () = env_int "E24_PEOPLE" 5_000
let n_loops () = env_int "E24_LOOPS" 0

let fleet_size () =
  Serve.Server.loop_count
    { Serve.Server.default_config with loops = n_loops () }

(* [in_flight]: the most requests the phase's one connection can have
   outstanding; the connection's loop's share of the queue is
   ceil (depth / loops). *)
let config ~in_flight =
  {
    Serve.Server.default_config with
    loops = n_loops ();
    queue_depth = queue_depth ~in_flight:(in_flight * fleet_size ());
  }

(* Every phase is one connection; its latencies are NaN where the reply
   was not ANSWER, so a BUSY or ERR counts as failed. *)
type phase = { name : string; s : summary }

let json_of_phase p =
  Printf.sprintf "{\"phase\":\"%s\",%s}" p.name
    (summary_json ~failed:true p.s)

let run () =
  let rulebase, db, people = genealogy ~people:(n_people ()) in
  let pool = single_form_pool people in
  let n = total_queries () in
  let w = window () in
  let run_phase ~in_flight name conn =
    let s =
      with_server (config ~in_flight) ~rulebase ~db (fun srv ->
          fan_in ~conns:1 (fun _ -> conn srv.port))
    in
    { name; s }
  in
  let a =
    run_phase ~in_flight:1 "v3 closed loop" (fun port ->
        line_client ~mark_failed:true port pool ~n ~seed:7)
  in
  let b =
    run_phase ~in_flight:w (Printf.sprintf "v4 window %d" w) (fun port ->
        pipelined_conn ~mark_failed:true port pool ~n ~window:w ~seed:7)
  in
  (* the open loop has no window: all [n] may be outstanding at once *)
  let o =
    run_phase ~in_flight:n
      (Printf.sprintf "v4 open loop @ %.0f/s" a.s.qps)
      (fun port ->
        open_loop_conn ~mark_failed:true port pool ~n ~rate:a.s.qps ~seed:7)
  in
  let rows = [ a; b; o ] in
  Table.print
    ~title:
      (Printf.sprintf
         "E24: protocol v4 pipelining, one connection (%d queries, \
          Zipf-%g pool of %d, %d people, %d loops; latency in phase C \
          measured from the scheduled send time)"
         n zipf_s pool_size (n_people ()) (fleet_size ()))
    ~header:
      [ "phase"; "queries"; "failed"; "wall s"; "q/s"; "p50 ms"; "p99 ms" ]
    (List.map
       (fun r -> r.name :: summary_cells ~failed:true r.s)
       rows);
  let speedup = b.s.qps /. a.s.qps in
  Table.note
    "pipelining speedup (v4 window %d / v3 sequential): %.2fx throughput; \
     open-loop p99 %.3f ms vs closed-loop %.3f ms\n"
    w speedup o.s.p99_ms a.s.p99_ms;
  write_json "E24_JSON"
    (Printf.sprintf
      "{\"experiment\":\"e24\",\"queries\":%d,\"window\":%d,\"people\":%d,\
       \"loops\":%d,\"pool\":%d,\"zipf_s\":%g,\"rows\":[%s],\
       \"speedup\":%.2f,\"open_p99_ms\":%.3f,\"closed_p99_ms\":%.3f}"
      n w (n_people ()) (fleet_size ()) pool_size zipf_s
      (String.concat "," (List.map json_of_phase rows))
      speedup o.s.p99_ms a.s.p99_ms);
  if env_set "E24_REQUIRE_GATE" then begin
    let speedup_min = env_float "E24_SPEEDUP_MIN" 2.0 in
    let p99_factor = env_float "E24_P99_FACTOR" 1.0 in
    let p99_floor = env_float "E24_P99_FLOOR_MS" 0.0 in
    let p99_bar = Float.max (a.s.p99_ms *. p99_factor) p99_floor in
    let failed = ref false in
    List.iter
      (fun r ->
        if r.s.failed > 0 then begin
          Printf.eprintf "E24: %s: %d of %d requests not answered\n" r.name
            r.s.failed (r.s.queries + r.s.failed);
          failed := true
        end)
      rows;
    if speedup < speedup_min then begin
      Printf.eprintf
        "E24: pipelined throughput %.1f q/s is %.2fx the sequential %.1f \
         q/s (< %.2fx)\n"
        b.s.qps speedup a.s.qps speedup_min;
      failed := true
    end;
    if o.s.p99_ms > p99_bar then begin
      Printf.eprintf
        "E24: open-loop v4 p99 %.3f ms exceeds the bar %.3f ms \
         (max of %.2fx closed-loop p99 %.3f ms and floor %.1f ms)\n"
        o.s.p99_ms p99_bar p99_factor a.s.p99_ms p99_floor;
      failed := true
    end;
    if !failed then exit 1 else Table.note "pipelining gates passed\n"
  end
