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

module D = Datalog

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( try int_of_string v with _ -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some v -> ( try float_of_string v with _ -> default)
  | None -> default

let total_queries () = env_int "E24_QUERIES" 2_000
let window () = Int.max 1 (env_int "E24_WINDOW" 32)
let n_people () = env_int "E24_PEOPLE" 5_000
let n_loops () = env_int "E24_LOOPS" 0

let fleet_size () =
  Serve.Server.loop_count
    { Serve.Server.default_config with loops = n_loops () }
let pool_size = 32
let zipf_s = 1.1

let make_pool people =
  let n = Array.length people in
  Array.init pool_size (fun i ->
      Printf.sprintf "QUERY relative(%s)" people.(i * n / pool_size mod n))

let zipf_weights =
  Array.init pool_size (fun i ->
      1.0 /. Float.pow (float_of_int (i + 1)) zipf_s)

(* [in_flight]: the most requests the phase's one connection can have
   outstanding. *)
let start_server ~db ~rulebase ~in_flight =
  let port = Atomic.make 0 in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run
          ~on_listen:(fun p -> Atomic.set port p)
          {
            Serve.Server.default_config with
            port = 0;
            loops = n_loops ();
            (* deep enough that the connection's loop (its share is
               ceil (depth / loops)) never sheds: the phases must
               compare answered requests, not BUSY replies *)
            queue_depth =
              Int.max Serve.Server.default_config.queue_depth
                (in_flight * fleet_size ());
          }
          ~rulebase ~db)
      ()
  in
  while Atomic.get port = 0 do
    Thread.delay 0.01
  done;
  (thread, Atomic.get port)

let stop_server thread port =
  let c = Serve.Client.connect ~proto:`Lines ~port () in
  ignore (Serve.Client.command c "SHUTDOWN");
  Serve.Client.close c;
  Thread.join thread

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(Int.min (n - 1) (int_of_float (float_of_int n *. p)))

type phase = {
  name : string;
  queries : int;  (** answered *)
  failed : int;  (** BUSY, ERR or any other non-ANSWER reply *)
  wall_s : float;
  qps : float;
  p50_ms : float;
  p99_ms : float;
}

let answered lines =
  match lines with
  | [ l ] -> String.length l >= 6 && String.sub l 0 6 = "ANSWER"
  | _ -> false

(* [lats] holds one sample per request; a failed request's is [nan] and
   counts in [failed], not in the latency or throughput figures. *)
let summarize name ~wall lats =
  let sorted =
    Array.of_list
      (List.filter (fun l -> not (Float.is_nan l)) (Array.to_list lats))
  in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  {
    name;
    queries = n;
    failed = Array.length lats - n;
    wall_s = wall;
    qps = float_of_int n /. wall;
    p50_ms = (if n = 0 then nan else percentile sorted 0.50);
    p99_ms = (if n = 0 then nan else percentile sorted 0.99);
  }

(* Phase A: sequential line-protocol requests on one connection. *)
let phase_v3 port pool ~n =
  let rng = Stats.Rng.create 7L in
  let c = Serve.Client.connect ~proto:`Lines ~port () in
  let lat = Array.make n 0.0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let q = pool.(Stats.Rng.categorical rng zipf_weights) in
    let s = Unix.gettimeofday () in
    let ok = answered [ Serve.Client.request c q ] in
    lat.(i) <- (if ok then (Unix.gettimeofday () -. s) *. 1e3 else nan)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Serve.Client.close c;
  summarize "v3 closed loop" ~wall lat

(* Phase B: one v4 connection, [window] requests in flight. *)
let phase_v4 port pool ~n ~window =
  let rng = Stats.Rng.create 7L in
  let c = Serve.Client.connect ~proto:`V4 ~port () in
  let start = Hashtbl.create window in
  let lat = Array.make n 0.0 in
  let issued = ref 0 in
  let post_one () =
    let q = pool.(Stats.Rng.categorical rng zipf_weights) in
    let id = Serve.Client.post c q in
    Hashtbl.replace start id (Unix.gettimeofday ());
    incr issued
  in
  let t0 = Unix.gettimeofday () in
  while !issued < Int.min window n do
    post_one ()
  done;
  for k = 0 to n - 1 do
    let id, lines = Serve.Client.recv c in
    lat.(k) <-
      (if answered lines then
         (Unix.gettimeofday () -. Hashtbl.find start id) *. 1e3
       else nan);
    Hashtbl.remove start id;
    if !issued < n then post_one ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Serve.Client.close c;
  summarize (Printf.sprintf "v4 window %d" window) ~wall lat

(* Phase C: open loop at [rate] req/s on one v4 connection. Request k
   (client ids are sequential from 1, so id = k+1) is due at
   t0 + k/rate; its latency is measured from that due time whether or
   not the sender was on schedule. *)
let phase_open port pool ~n ~rate =
  let rng = Stats.Rng.create 7L in
  let c = Serve.Client.connect ~proto:`V4 ~port () in
  let lat = Array.make n 0.0 in
  let t0 = Unix.gettimeofday () +. 0.01 in
  let receiver =
    Thread.create
      (fun () ->
        for _ = 1 to n do
          let id, lines = Serve.Client.recv c in
          let due = t0 +. (float_of_int (id - 1) /. rate) in
          lat.(id - 1) <-
            (if answered lines then (Unix.gettimeofday () -. due) *. 1e3
             else nan)
        done)
      ()
  in
  for k = 0 to n - 1 do
    let due = t0 +. (float_of_int k /. rate) in
    let slack = due -. Unix.gettimeofday () in
    if slack > 0.0 then Thread.delay slack;
    ignore (Serve.Client.post c pool.(Stats.Rng.categorical rng zipf_weights))
  done;
  Thread.join receiver;
  let wall = Unix.gettimeofday () -. t0 in
  Serve.Client.close c;
  summarize (Printf.sprintf "v4 open loop @ %.0f/s" rate) ~wall lat

let json_of_phase p =
  Printf.sprintf
    "{\"phase\":\"%s\",\"queries\":%d,\"failed\":%d,\"wall_s\":%.3f,\
     \"qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f}"
    p.name p.queries p.failed p.wall_s p.qps p.p50_ms p.p99_ms

let run () =
  let rulebase = Workload.Genealogy.rulebase () in
  let pop =
    Workload.Genealogy.populate (Stats.Rng.create 23L) ~n_people:(n_people ())
  in
  let db = Workload.Genealogy.db pop in
  let pool = make_pool (Array.of_list (Workload.Genealogy.people pop)) in
  let n = total_queries () in
  let w = window () in
  let run_phase ~in_flight f =
    let thread, port = start_server ~db ~rulebase ~in_flight in
    let row = f port in
    stop_server thread port;
    row
  in
  let a = run_phase ~in_flight:1 (fun port -> phase_v3 port pool ~n) in
  let b =
    run_phase ~in_flight:w (fun port -> phase_v4 port pool ~n ~window:w)
  in
  (* the open loop has no window: all [n] may be outstanding at once *)
  let o =
    run_phase ~in_flight:n (fun port -> phase_open port pool ~n ~rate:a.qps)
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
       (fun r ->
         [
           r.name;
           Table.i r.queries;
           Table.i r.failed;
           Table.f2 r.wall_s;
           Table.f1 r.qps;
           Table.f3 r.p50_ms;
           Table.f3 r.p99_ms;
         ])
       rows);
  let speedup = b.qps /. a.qps in
  Table.note
    "pipelining speedup (v4 window %d / v3 sequential): %.2fx throughput; \
     open-loop p99 %.3f ms vs closed-loop %.3f ms\n"
    w speedup o.p99_ms a.p99_ms;
  (match Sys.getenv_opt "E24_JSON" with
  | None | Some "" -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\"experiment\":\"e24\",\"queries\":%d,\"window\":%d,\"people\":%d,\
       \"loops\":%d,\"pool\":%d,\"zipf_s\":%g,\"rows\":[%s],\
       \"speedup\":%.2f,\"open_p99_ms\":%.3f,\"closed_p99_ms\":%.3f}\n"
      n w (n_people ()) (fleet_size ()) pool_size zipf_s
      (String.concat "," (List.map json_of_phase rows))
      speedup o.p99_ms a.p99_ms;
    close_out oc;
    Table.note "wrote %s\n" path);
  match Sys.getenv_opt "E24_REQUIRE_GATE" with
  | None | Some "" -> ()
  | Some _ ->
    let speedup_min = env_float "E24_SPEEDUP_MIN" 2.0 in
    let p99_factor = env_float "E24_P99_FACTOR" 1.0 in
    let p99_floor = env_float "E24_P99_FLOOR_MS" 0.0 in
    let p99_bar = Float.max (a.p99_ms *. p99_factor) p99_floor in
    let failed = ref false in
    List.iter
      (fun r ->
        if r.failed > 0 then begin
          Printf.eprintf "E24: %s: %d of %d requests not answered\n" r.name
            r.failed (r.queries + r.failed);
          failed := true
        end)
      rows;
    if speedup < speedup_min then begin
      Printf.eprintf
        "E24: pipelined throughput %.1f q/s is %.2fx the sequential %.1f \
         q/s (< %.2fx)\n"
        b.qps speedup a.qps speedup_min;
      failed := true
    end;
    if o.p99_ms > p99_bar then begin
      Printf.eprintf
        "E24: open-loop v4 p99 %.3f ms exceeds the bar %.3f ms \
         (max of %.2fx closed-loop p99 %.3f ms and floor %.1f ms)\n"
        o.p99_ms p99_bar p99_factor a.p99_ms p99_floor;
      failed := true
    end;
    if !failed then exit 1 else Table.note "pipelining gates passed\n"
