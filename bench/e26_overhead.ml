(* E26 — observability overhead of the always-on request-lifecycle
   layer: flight recorder + lifecycle spans + stage histograms on vs
   off under the E25 mixed-form closed-loop workload.

   The lifecycle layer (PR 9) stamps every dispatched request through
   accept → frame → queue → worker → flush, writes a flight-recorder
   event per transition into the owning loop's lock-free ring, and on
   finalize replays the ring slice into per-stage histograms (plus a
   retained span tree when the request was slow / shed / errored).
   All of that is on by default, so its cost is a tax on every
   request; this experiment measures that tax and gates it.

   Two arms against otherwise-identical in-process servers:

   off. lifecycle = false, flight_capacity = 0, retain = 0 — the
        serving path as it was before PR 9.
   on.  the default config — lifecycle on, a 4096-event ring per
        loop, 64 retained traces per loop.

   Each arm is the E25 mixed-form closed loop (E26_CONNS pipelined v4
   connections, window E26_WINDOW, Zipf over query forms) on an
   E26_LOOPS-loop fleet, best-of-E26_REPS (throughput noise on a
   timeshared host is downward-only, so the best rep is the truest
   reading). Arms alternate off/on per rep so slow drift (page cache,
   JIT'd nothing here, but CPU frequency) hits both equally.

   overhead% = (off q/s / on q/s - 1) x 100.

   Each rep also reads the process CPU time (Unix.times: user + system,
   server loops and client threads alike, all in this process) and
   reports it per request; an arm's CPU figure is its lowest across
   reps (timesharing only adds to it). cpu overhead% = (on cpu µs/q /
   off cpu µs/q - 1) x 100 is reported beside the q/s reading but not
   gated: unlike q/s it does not swing with how the host schedules the
   loops against the clients.

   Knobs (environment): E26_QUERIES (default 2000 per rep), E26_CONNS
   (default 8), E26_WINDOW (default 16), E26_PEOPLE (default 5000),
   E26_LOOPS (default 2), E26_REPS (default
   3), E26_JSON (machine-readable results path), E26_FLIGHT_DUMP
   (path: write the on-arm's FLIGHT envelope there before shutdown —
   the CI failure artifact), E26_REQUIRE_GATE (non-empty: exit 1 when
   overhead% > E26_MAX_OVERHEAD_PCT, default 3.0; advisory on a
   single-core host where the arms can only timeshare). *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( try int_of_string v with _ -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some v -> ( try float_of_string v with _ -> default)
  | None -> default

let total_queries () = env_int "E26_QUERIES" 2_000
let n_conns () = Int.max 1 (env_int "E26_CONNS" 8)
let window () = Int.max 1 (env_int "E26_WINDOW" 16)
let n_people () = env_int "E26_PEOPLE" 5_000
let n_loops () = Int.max 1 (env_int "E26_LOOPS" 2)
let n_reps () = Int.max 1 (env_int "E26_REPS" 3)
let pool_size = 32
let zipf_s = 1.1

let zipf_weights n =
  Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) zipf_s)

let mixed_forms =
  [|
    "relative"; "sibling"; "ancestor_of_probe"; "inlaw"; "parent_of_probe";
    "grandparent_of_probe";
  |]

let mixed_form_pool people =
  let n = Array.length people in
  let per_form = pool_size / Array.length mixed_forms in
  Array.init (Array.length mixed_forms * per_form) (fun i ->
      let form = mixed_forms.(i / per_form) in
      let person = people.(i * n / pool_size mod n) in
      Printf.sprintf "QUERY %s(%s)" form person)

let config ~lifecycle =
  let base =
    {
      Serve.Server.default_config with
      port = 0;
      loops = n_loops ();
      (* deep enough that the closed loop never sheds: the arms must
         compare answered requests, not BUSY replies *)
      queue_depth =
        Int.max Serve.Server.default_config.queue_depth
          (n_conns () * window ());
    }
  in
  if lifecycle then base
  else { base with lifecycle = false; flight_capacity = 0; retain = 0 }

let start_server ~db ~rulebase ~lifecycle =
  let port = Atomic.make 0 in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run
          ~on_listen:(fun p -> Atomic.set port p)
          (config ~lifecycle) ~rulebase ~db)
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

type rep = {
  queries : int;
  wall_s : float;
  qps : float;
  p99_ms : float;
  cpu_us_per_q : float;
}

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let pipelined_conn port pool ~n ~window ~seed =
  let rng = Stats.Rng.create (Int64.of_int seed) in
  let weights = zipf_weights (Array.length pool) in
  let c = Serve.Client.connect ~proto:`V4 ~port () in
  let start = Hashtbl.create window in
  let lat = Array.make n 0.0 in
  let issued = ref 0 in
  let post_one () =
    let q = pool.(Stats.Rng.categorical rng weights) in
    let id = Serve.Client.post c q in
    Hashtbl.replace start id (Unix.gettimeofday ());
    incr issued
  in
  while !issued < Int.min window n do
    post_one ()
  done;
  for k = 0 to n - 1 do
    let id, _ = Serve.Client.recv c in
    lat.(k) <- (Unix.gettimeofday () -. Hashtbl.find start id) *. 1e3;
    Hashtbl.remove start id;
    if !issued < n then post_one ()
  done;
  Serve.Client.close c;
  lat

let one_rep port pool ~seed0 =
  let conns = n_conns () in
  let per = Int.max 1 (total_queries () / conns) in
  let w = window () in
  let lats = Array.make conns [||] in
  let cpu0 = cpu_s () in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init conns (fun k ->
        Thread.create
          (fun () ->
            lats.(k) <- pipelined_conn port pool ~n:per ~window:w
                ~seed:(seed0 + k))
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let cpu = cpu_s () -. cpu0 in
  let all = Array.concat (Array.to_list lats) in
  let sorted = Array.copy all in
  Array.sort Float.compare sorted;
  {
    queries = Array.length all;
    wall_s = wall;
    qps = float_of_int (Array.length all) /. wall;
    p99_ms = percentile sorted 0.99;
    cpu_us_per_q = cpu *. 1e6 /. float_of_int (Int.max 1 (Array.length all));
  }

let dump_flight port =
  match Sys.getenv_opt "E26_FLIGHT_DUMP" with
  | None | Some "" -> ()
  | Some path ->
    let c = Serve.Client.connect ~proto:`Lines ~port () in
    let body = Serve.Client.command c "FLIGHT" in
    Serve.Client.close c;
    let oc = open_out path in
    output_string oc (String.concat "\n" body);
    output_char oc '\n';
    close_out oc;
    Table.note "wrote flight dump %s\n" path

let run () =
  let rulebase = Workload.Genealogy.rulebase () in
  let pop =
    Workload.Genealogy.populate (Stats.Rng.create 23L) ~n_people:(n_people ())
  in
  let db = Workload.Genealogy.db pop in
  let people = Array.of_list (Workload.Genealogy.people pop) in
  let pool = mixed_form_pool people in
  let reps = n_reps () in
  (* alternate arms per rep so slow host drift taxes both equally;
     best-of across reps per arm: the fastest rep, and the lowest CPU
     per request *)
  let best = Hashtbl.create 2 and best_cpu = Hashtbl.create 2 in
  for r = 0 to (2 * reps) - 1 do
    let lifecycle = r mod 2 = 1 in
    let thread, port = start_server ~db ~rulebase ~lifecycle in
    let rep = one_rep port pool ~seed0:(7 + (100 * r)) in
    if lifecycle && r = (2 * reps) - 1 then dump_flight port;
    stop_server thread port;
    let key = if lifecycle then "on" else "off" in
    (match Hashtbl.find_opt best key with
    | Some prev when prev.qps >= rep.qps -> ()
    | _ -> Hashtbl.replace best key rep);
    match Hashtbl.find_opt best_cpu key with
    | Some prev when prev <= rep.cpu_us_per_q -> ()
    | _ -> Hashtbl.replace best_cpu key rep.cpu_us_per_q
  done;
  let off = Hashtbl.find best "off" in
  let on = Hashtbl.find best "on" in
  let off_cpu = Hashtbl.find best_cpu "off" in
  let on_cpu = Hashtbl.find best_cpu "on" in
  let overhead_pct = ((off.qps /. on.qps) -. 1.0) *. 100.0 in
  let cpu_overhead_pct = ((on_cpu /. off_cpu) -. 1.0) *. 100.0 in
  Table.print
    ~title:
      (Printf.sprintf
         "E26: lifecycle + flight-recorder overhead, mixed-form closed loop \
          (%d conns x window %d, %d queries per rep, best of %d reps, %d \
          loops)"
         (n_conns ()) (window ()) (total_queries ()) reps (n_loops ()))
    ~header:[ "arm"; "queries"; "wall s"; "q/s"; "p99 ms"; "cpu us/q" ]
    [
      [
        "lifecycle off"; Table.i off.queries; Table.f2 off.wall_s;
        Table.f1 off.qps; Table.f3 off.p99_ms; Table.f2 off_cpu;
      ];
      [
        "lifecycle on"; Table.i on.queries; Table.f2 on.wall_s;
        Table.f1 on.qps; Table.f3 on.p99_ms; Table.f2 on_cpu;
      ];
    ];
  Table.note "always-on lifecycle overhead: %.2f%% (off %.1f q/s, on %.1f q/s)\n"
    overhead_pct off.qps on.qps;
  Table.note
    "always-on lifecycle CPU: %.2f%% (off %.2f us/q, on %.2f us/q)\n"
    cpu_overhead_pct off_cpu on_cpu;
  (match Sys.getenv_opt "E26_JSON" with
  | None | Some "" -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\"experiment\":\"e26\",\"queries\":%d,\"conns\":%d,\"window\":%d,\
       \"people\":%d,\"loops\":%d,\"reps\":%d,\
       \"off_qps\":%.1f,\"on_qps\":%.1f,\"off_p99_ms\":%.3f,\
       \"on_p99_ms\":%.3f,\"overhead_pct\":%.2f,\
       \"off_cpu_us_per_q\":%.2f,\"on_cpu_us_per_q\":%.2f,\
       \"cpu_overhead_pct\":%.2f}\n"
      (total_queries ()) (n_conns ()) (window ()) (n_people ())
      (n_loops ()) reps off.qps on.qps off.p99_ms on.p99_ms overhead_pct
      off_cpu on_cpu cpu_overhead_pct;
    close_out oc;
    Table.note "wrote %s\n" path);
  match Sys.getenv_opt "E26_REQUIRE_GATE" with
  | None | Some "" -> ()
  | Some _ ->
    let max_pct = env_float "E26_MAX_OVERHEAD_PCT" 3.0 in
    if overhead_pct > max_pct then
      if Domain.recommended_domain_count () < 2 then
        (* loops and clients all timeshare one core here;
           the delta is scheduler noise, not lifecycle cost *)
        Table.note
          "overhead gate advisory on a single-core host: %.2f%% > %.2f%%\n"
          overhead_pct max_pct
      else begin
        Printf.eprintf
          "E26: always-on lifecycle overhead %.2f%% exceeds %.2f%%\n"
          overhead_pct max_pct;
        exit 1
      end
    else Table.note "overhead gate passed (%.2f%% <= %.2f%%)\n" overhead_pct
        max_pct
