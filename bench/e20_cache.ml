(* E20 — answer caching & subgoal memoization on the serve path.

   A closed-loop Zipf-repeated genealogy mix against an in-process
   `strategem serve` instance, cache off vs cache on, same workload and
   seeds. The query pool has 32 entries: rank 1 is the free query
   relative(X) — expensive, because a free retrieval eagerly materializes
   every match in the relation — and ranks 2..32 are bound relative(name)
   queries (indexed, cheap). Zipf skew means the heavy head query repeats
   constantly, which is precisely the traffic an answer cache turns
   near-free; the learner still observes every query either way.

   Knobs (environment): E20_QUERIES (total, default 4000), E20_CLIENTS
   (default 4), E20_PEOPLE (population, default 20000), E20_JSON (path —
   when set, machine-readable results are written there). *)

module D = Datalog

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( try int_of_string v with _ -> default)
  | None -> default

let total_queries () = env_int "E20_QUERIES" 4_000
let n_clients () = env_int "E20_CLIENTS" 4
let n_people () = env_int "E20_PEOPLE" 20_000
let pool_size = 32
let zipf_s = 1.1

(* The shared workload: one population, one Zipf pool. Rank 1 is the free
   query; the bound ranks spread evenly through the population so they
   don't collide. *)
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

let start_server ~cache ~db ~rulebase =
  let port = Atomic.make 0 in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run
          ~on_listen:(fun p -> Atomic.set port p)
          {
            Serve.Server.default_config with
            port = 0;
            cache_mb = (if cache then 64 else 0);
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
  (get "queries_total", get "cache_hits", get "memo_hits", get "climbs_total")

type row = {
  cache : bool;
  queries : int;
  wall_s : float;
  qps : float;
  p50_ms : float;
  p99_ms : float;
  hit_rate : float;
  memo_hits : int;
  climbs : int;
}

let run_row ~cache ~db ~rulebase ~pool =
  let clients = n_clients () in
  let per_client = total_queries () / clients in
  let thread, port = start_server ~cache ~db ~rulebase in
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
  let queries_total, cache_hits, memo_hits, climbs = stats_of_server port in
  Thread.join thread;
  let lats =
    Array.to_list results |> List.concat_map Array.to_list
    |> List.sort Float.compare |> Array.of_list
  in
  let n = Array.length lats in
  let pct p = lats.(Int.min (n - 1) (int_of_float (float_of_int n *. p))) in
  {
    cache;
    queries = clients * per_client;
    wall_s = wall;
    qps = float_of_int (clients * per_client) /. wall;
    p50_ms = pct 0.50;
    p99_ms = pct 0.99;
    hit_rate =
      (if queries_total = 0 then 0.0
       else float_of_int cache_hits /. float_of_int queries_total);
    memo_hits;
    climbs;
  }

let json_of_row r =
  Printf.sprintf
    "{\"cache\":%b,\"queries\":%d,\"wall_s\":%.3f,\"qps\":%.1f,\
     \"p50_ms\":%.3f,\"p99_ms\":%.3f,\"hit_rate\":%.3f,\"memo_hits\":%d,\
     \"climbs\":%d}"
    r.cache r.queries r.wall_s r.qps r.p50_ms r.p99_ms r.hit_rate r.memo_hits
    r.climbs

let run () =
  let rulebase = Workload.Genealogy.rulebase () in
  let pop =
    Workload.Genealogy.populate (Stats.Rng.create 23L) ~n_people:(n_people ())
  in
  let db = Workload.Genealogy.db pop in
  let pool = make_pool (Array.of_list (Workload.Genealogy.people pop)) in
  let off = run_row ~cache:false ~db ~rulebase ~pool in
  let on = run_row ~cache:true ~db ~rulebase ~pool in
  let rows = [ off; on ] in
  Table.print
    ~title:
      (Printf.sprintf
         "E20: answer cache on the serve path (%d people, Zipf-%g pool of \
          %d, %d clients)"
         (n_people ()) zipf_s pool_size (n_clients ()))
    ~header:
      [
        "cache"; "queries"; "wall s"; "q/s"; "p50 ms"; "p99 ms"; "hit rate";
        "memo hits"; "climbs";
      ]
    (List.map
       (fun r ->
         [
           Table.yesno r.cache;
           Table.i r.queries;
           Table.f2 r.wall_s;
           Table.f1 r.qps;
           Table.f3 r.p50_ms;
           Table.f3 r.p99_ms;
           Table.pct r.hit_rate;
           Table.i r.memo_hits;
           Table.i r.climbs;
         ])
       rows);
  Table.note "speedup (cache on / off): %.2fx throughput, p99 %.3f -> %.3f ms\n"
    (on.qps /. off.qps) off.p99_ms on.p99_ms;
  match Sys.getenv_opt "E20_JSON" with
  | None | Some "" -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\"experiment\":\"e20\",\"queries\":%d,\"clients\":%d,\"people\":%d,\
       \"pool\":%d,\"zipf_s\":%g,\"rows\":[%s],\"throughput_speedup\":%.2f}\n"
      (total_queries ()) (n_clients ()) (n_people ()) pool_size zipf_s
      (String.concat "," (List.map json_of_row rows))
      (on.qps /. off.qps);
    close_out oc;
    Table.note "wrote %s\n" path
