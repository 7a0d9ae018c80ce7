(* E22 — multicore scaling of the serve path.

   The same closed-loop Zipf genealogy mix as E20, served by fleets of
   increasing domain counts. Each row starts a fresh in-process
   `strategem serve` with `loops = d` — one domain per event loop, each
   executing the requests it parses — and records both the requested
   and the effective domain count, read back from the additive
   `domains` STATS field. The scaling claim is throughput: with the
   symbol table, database counters and registry hot paths domain-safe,
   q/s should rise with domains up to the physical core count.

   Knobs (environment): E22_QUERIES (total per row, default 4000),
   E22_CLIENTS (default 8), E22_PEOPLE (population, default 20000),
   E22_DOMAINS (comma list, default "1,2,4,8"), E22_CACHE_MB (default
   64), E22_JSON (path — when set, machine-readable results are written
   there), E22_REQUIRE_SPEEDUP (when set non-empty, exit 1 unless the
   2-domain row's throughput is at least E22_SPEEDUP_MIN (default 1.0)
   times the 1-domain row's — the CI smoke gate). *)

module D = Datalog

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( try int_of_string v with _ -> default)
  | None -> default

let total_queries () = env_int "E22_QUERIES" 4_000
let n_clients () = env_int "E22_CLIENTS" 8
let n_people () = env_int "E22_PEOPLE" 20_000
let cache_mb () = env_int "E22_CACHE_MB" 64

let domain_counts () =
  let spec =
    match Sys.getenv_opt "E22_DOMAINS" with
    | Some s when s <> "" -> s
    | _ -> "1,2,4,8"
  in
  String.split_on_char ',' spec
  |> List.filter_map (fun s ->
         match int_of_string_opt (String.trim s) with
         | Some d when d >= 1 -> Some d
         | _ -> None)

let pool_size = 32
let zipf_s = 1.1

let make_pool people =
  let n = Array.length people in
  Array.init pool_size (fun i ->
      if i = 0 then "QUERY relative(X)"
      else
        Printf.sprintf "QUERY relative(%s)"
          people.((i - 1) * n / (pool_size - 1) mod n))

let zipf_weights =
  Array.init pool_size (fun i ->
      1.0 /. Float.pow (float_of_int (i + 1)) zipf_s)

let start_server ~loops ~db ~rulebase =
  let port = Atomic.make 0 in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run
          ~on_listen:(fun p -> Atomic.set port p)
          {
            Serve.Server.default_config with
            port = 0;
            loops;
            cache_mb = cache_mb ();
          }
          ~rulebase ~db)
      ()
  in
  while Atomic.get port = 0 do
    Thread.delay 0.01
  done;
  (thread, Atomic.get port)

(* One closed-loop client: [n] Zipf-drawn queries, latencies in ms. *)
let client port pool ~seed ~n =
  let rng = Stats.Rng.create (Int64.of_int seed) in
  let c = Serve.Client.connect ~proto:`Lines ~port () in
  let lat = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let q = pool.(Stats.Rng.categorical rng zipf_weights) in
    let t0 = Unix.gettimeofday () in
    ignore (Serve.Client.request c q);
    lat.(i) <- (Unix.gettimeofday () -. t0) *. 1e3
  done;
  Serve.Client.close c;
  lat

(* Pull the integer counters out of STATS, then shut the server down. *)
let stats_of_server port =
  let c = Serve.Client.connect ~proto:`Lines ~port () in
  let lines = Serve.Client.command c "STATS" in
  ignore (Serve.Client.command c "SHUTDOWN");
  Serve.Client.close c;
  let get name =
    List.fold_left
      (fun acc l ->
        match String.split_on_char ' ' l with
        | [ k; v ] when k = name -> ( try int_of_string v with _ -> acc)
        | _ -> acc)
      0 lines
  in
  (get "queries_total", get "domains", get "climbs_total")

type row = {
  requested : int;   (* --loops value *)
  effective : int;   (* domains the server actually spawned *)
  queries : int;
  wall_s : float;
  qps : float;
  p50_ms : float;
  p99_ms : float;
  climbs : int;
}

let run_row ~loops ~db ~rulebase ~pool =
  let clients = n_clients () in
  let per_client = total_queries () / clients in
  let thread, port = start_server ~loops ~db ~rulebase in
  let results = Array.make clients [||] in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            results.(i) <- client port pool ~seed:(100 + i) ~n:per_client)
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let _queries_total, effective, climbs = stats_of_server port in
  Thread.join thread;
  let lats =
    Array.to_list results |> List.concat_map Array.to_list
    |> List.sort Float.compare |> Array.of_list
  in
  let n = Array.length lats in
  let pct p = lats.(Int.min (n - 1) (int_of_float (float_of_int n *. p))) in
  {
    requested = loops;
    effective;
    queries = clients * per_client;
    wall_s = wall;
    qps = float_of_int (clients * per_client) /. wall;
    p50_ms = pct 0.50;
    p99_ms = pct 0.99;
    climbs;
  }

let json_of_row r =
  Printf.sprintf
    "{\"loops\":%d,\"domains\":%d,\"queries\":%d,\"wall_s\":%.3f,\
     \"qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"climbs\":%d}"
    r.requested r.effective r.queries r.wall_s r.qps r.p50_ms r.p99_ms
    r.climbs

let run () =
  let rulebase = Workload.Genealogy.rulebase () in
  let pop =
    Workload.Genealogy.populate (Stats.Rng.create 23L) ~n_people:(n_people ())
  in
  let db = Workload.Genealogy.db pop in
  let pool = make_pool (Array.of_list (Workload.Genealogy.people pop)) in
  let counts = domain_counts () in
  let rows =
    List.map (fun d -> run_row ~loops:d ~db ~rulebase ~pool) counts
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E22: serve-path scaling over loop domains (%d people, Zipf-%g \
          pool of %d, %d clients; host recommends %d domain(s))"
         (n_people ()) zipf_s pool_size (n_clients ())
         (Domain.recommended_domain_count ()))
    ~header:
      [
        "loops"; "domains"; "queries"; "wall s"; "q/s"; "p50 ms"; "p99 ms";
        "climbs";
      ]
    (List.map
       (fun r ->
         [
           Table.i r.requested;
           Table.i r.effective;
           Table.i r.queries;
           Table.f2 r.wall_s;
           Table.f1 r.qps;
           Table.f3 r.p50_ms;
           Table.f3 r.p99_ms;
           Table.i r.climbs;
         ])
       rows);
  let find_qps w =
    List.find_opt (fun r -> r.requested = w) rows |> Option.map (fun r -> r.qps)
  in
  let base = find_qps 1 in
  (match (base, find_qps 4) with
  | Some b, Some q4 when b > 0.0 ->
    Table.note "speedup at 4 loops vs 1: %.2fx throughput\n" (q4 /. b)
  | _ -> ());
  (match Sys.getenv_opt "E22_JSON" with
  | None | Some "" -> ()
  | Some path ->
    let speedup_4 =
      match (base, find_qps 4) with
      | Some b, Some q4 when b > 0.0 -> q4 /. b
      | _ -> 0.0
    in
    let oc = open_out path in
    Printf.fprintf oc
      "{\"experiment\":\"e22\",\"queries\":%d,\"clients\":%d,\"people\":%d,\
       \"pool\":%d,\"zipf_s\":%g,\"cache_mb\":%d,\
       \"recommended_domains\":%d,\"rows\":[%s],\"speedup_4_vs_1\":%.2f}\n"
      (total_queries ()) (n_clients ()) (n_people ()) pool_size zipf_s
      (cache_mb ())
      (Domain.recommended_domain_count ())
      (String.concat "," (List.map json_of_row rows))
      speedup_4;
    close_out oc;
    Table.note "wrote %s\n" path);
  match Sys.getenv_opt "E22_REQUIRE_SPEEDUP" with
  | None | Some "" -> ()
  | Some _ -> (
    let min_ratio =
      match Sys.getenv_opt "E22_SPEEDUP_MIN" with
      | Some v -> ( try float_of_string v with _ -> 1.0)
      | None -> 1.0
    in
    match (base, find_qps 2) with
    | Some b, Some q2 when q2 < b *. min_ratio ->
      Printf.eprintf
        "E22: 2-domain throughput %.1f q/s below %.2fx the 1-domain %.1f \
         q/s\n"
        q2 min_ratio b;
      exit 1
    | Some _, Some _ -> Table.note "speedup gate passed\n"
    | _ ->
      Printf.eprintf "E22: speedup gate needs 1- and 2-loop rows\n";
      exit 1)
