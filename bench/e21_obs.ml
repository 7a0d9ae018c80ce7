(* E21 — observability overhead on the serve path.

   A closed-loop Zipf genealogy workload (the free-query-head pool of
   Serve_load: relative(X) and 31 bound relative(name) queries) on
   identical seeds, four ways: observability off (no metrics responder,
   no structured log); everything on at production verbosity (metrics
   responder up, info-level JSONL log to a file, slow-query log armed
   at 50 ms); on + an active scraper hitting GET /metrics at 10 Hz for
   the whole run; and on + debug verbosity, which writes one JSONL
   record per query — a diagnostic mode, shown so its price is a
   measured number rather than a guess. The acceptance bar is that "on"
   (everything enabled) costs < 5% throughput vs "off": metrics updates
   are atomics and sharded histogram mutexes, an info-level log writes
   only on lifecycle events and slow queries, and a scrape renders
   outside the hot path.

   Each mode runs E21_REPS times (default 3) and reports its best run —
   closed-loop wall times on a shared machine swing several percent
   run to run, and the minimum is the measurement least polluted by
   scheduler noise.

   Knobs (environment): E21_QUERIES (total, default 20000), E21_CLIENTS
   (default 4), E21_PEOPLE (population, default 20000), E21_SCRAPE_HZ
   (default 10), E21_REPS (default 3), E21_JSON (path — when set,
   machine-readable results are written there). *)

open Serve_load

let total_queries () = env_int "E21_QUERIES" 20_000
let n_clients () = env_int "E21_CLIENTS" 4
let n_people () = env_int "E21_PEOPLE" 20_000
let scrape_hz () = env_int "E21_SCRAPE_HZ" 10
let reps () = Int.max 1 (env_int "E21_REPS" 3)

type mode = Off | On | On_scraped | On_debug

let mode_name = function
  | Off -> "off"
  | On -> "on"
  | On_scraped -> "on+scrape"
  | On_debug -> "on+debug"

let config ~mode ~log_path =
  let observed = mode <> Off in
  {
    Serve.Server.default_config with
    metrics_port = (if observed then Some 0 else None);
    log_level =
      (match mode with
      | Off -> None
      | On_debug -> Some Obs.Log.Debug
      | On | On_scraped -> Some Obs.Log.Info);
    log_file = (if observed then Some log_path else None);
    slow_query_us = (if observed then 50_000.0 else 0.0);
  }

(* One GET /metrics, returning the body length (0 on any failure — the
   scraper must never kill the benchmark). This is plain HTTP against
   the metrics responder, not the query protocol, so it stays a raw
   socket. *)
let scrape_once mport =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, mport)) with
  | exception Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    0
  | () ->
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let n = ref 0 in
    (try
       output_string oc "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
       flush oc;
       try
         while true do
           n := !n + String.length (input_line ic) + 1
         done
       with End_of_file -> ()
     with Sys_error _ -> ());
    close_in_noerr ic;
    !n

type row = { mode : mode; s : summary; scrapes : int; log_bytes : int }

let run_row ~mode ~db ~rulebase ~pool =
  let clients = n_clients () in
  let per_client = total_queries () / clients in
  let log_path = Filename.temp_file "e21_obs" ".jsonl" in
  let scrapes = ref 0 in
  let s =
    with_server (config ~mode ~log_path) ~rulebase ~db (fun srv ->
        let stop = Atomic.make false in
        let scraper =
          if mode = On_scraped then
            Some
              (Thread.create
                 (fun () ->
                   let interval =
                     1.0 /. float_of_int (Int.max 1 (scrape_hz ()))
                   in
                   while not (Atomic.get stop) do
                     if scrape_once srv.metrics_port > 0 then incr scrapes;
                     Thread.delay interval
                   done)
                 ())
          else None
        in
        let s =
          fan_in ~conns:clients (fun k ->
              line_client srv.port pool ~n:per_client ~seed:(100 + k))
        in
        Atomic.set stop true;
        Option.iter Thread.join scraper;
        s)
  in
  let log_bytes =
    match Unix.stat log_path with
    | { Unix.st_size; _ } -> st_size
    | exception Unix.Unix_error _ -> 0
  in
  (try Sys.remove log_path with Sys_error _ -> ());
  { mode; s; scrapes = !scrapes; log_bytes }

let json_of_row r =
  Printf.sprintf "{\"mode\":\"%s\",%s,\"scrapes\":%d,\"log_bytes\":%d}"
    (mode_name r.mode) (summary_json r.s) r.scrapes r.log_bytes

let run () =
  let rulebase, db, people = genealogy ~people:(n_people ()) in
  let pool = free_head_pool people in
  let best_row mode =
    List.init (reps ()) (fun _ -> run_row ~mode ~db ~rulebase ~pool)
    |> List.sort (fun a b -> Float.compare b.s.qps a.s.qps)
    |> List.hd
  in
  let rows = List.map best_row [ Off; On; On_scraped; On_debug ] in
  let off = List.nth rows 0 and on = List.nth rows 1 in
  let scraped = List.nth rows 2 and debug = List.nth rows 3 in
  let overhead a = (1.0 -. (a.s.qps /. off.s.qps)) *. 100.0 in
  Table.print
    ~title:
      (Printf.sprintf
         "E21: observability overhead on the serve path (%d people, Zipf-%g \
          pool of %d, %d clients; on = metrics + info JSONL + slow-query \
          log, scraper at %d Hz, debug = one record per query)"
         (n_people ()) zipf_s pool_size (n_clients ()) (scrape_hz ()))
    ~header:
      [
        "observability"; "queries"; "wall s"; "q/s"; "p50 ms"; "p99 ms";
        "scrapes"; "log KiB";
      ]
    (List.map
       (fun r ->
         (mode_name r.mode :: summary_cells r.s)
         @ [ Table.i r.scrapes; Table.i (r.log_bytes / 1024) ])
       rows);
  Table.note
    "overhead vs off: on %.1f%%, on+scrape %.1f%%, on+debug %.1f%% \
     (acceptance bar: < 5%% for on)\n"
    (overhead on) (overhead scraped) (overhead debug);
  write_json "E21_JSON"
    (Printf.sprintf
      "{\"experiment\":\"e21\",\"queries\":%d,\"clients\":%d,\"people\":%d,\
       \"pool\":%d,\"zipf_s\":%g,\"scrape_hz\":%d,\"rows\":[%s],\
       \"overhead_on_pct\":%.2f,\"overhead_scraped_pct\":%.2f,\
       \"overhead_debug_pct\":%.2f,\"bar_pct\":5.0}"
      (total_queries ()) (n_clients ()) (n_people ()) pool_size zipf_s
      (scrape_hz ())
      (String.concat "," (List.map json_of_row rows))
      (overhead on) (overhead scraped) (overhead debug))
