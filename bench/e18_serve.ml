(* E18 — the serve daemon under closed-loop load.

   An in-process `strategem serve` instance (ephemeral port, default
   loop count) answers genealogy queries from N concurrent closed-loop
   clients, each holding one connection and issuing its next query as
   soon as the previous reply lands. A fresh server per row keeps the learning
   trajectories comparable; the climb count comes from the server's own
   STATS. *)

module D = Datalog

let total_queries = 2_000
let client_counts = [ 1; 2; 4; 8 ]

let start_server () =
  let rb = Workload.Genealogy.rulebase () in
  let pop = Workload.Genealogy.populate (Stats.Rng.create 19L) ~n_people:300 in
  let db = Workload.Genealogy.db pop in
  let port = Atomic.make 0 in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run
          ~on_listen:(fun p -> Atomic.set port p)
          { Serve.Server.default_config with port = 0 }
          ~rulebase:rb ~db)
      ()
  in
  while Atomic.get port = 0 do
    Thread.delay 0.01
  done;
  (thread, Atomic.get port, Array.of_list (Workload.Genealogy.people pop))

(* One closed-loop client: [n] queries, per-request latencies in ms.
   The line dialect keeps this row comparable with historical runs
   (pipelined v4 load is E24's subject). *)
let client port people ~seed ~n =
  let rng = Stats.Rng.create (Int64.of_int seed) in
  let c = Serve.Client.connect ~proto:`Lines ~port () in
  let lat = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let name = people.(Stats.Rng.int rng (Array.length people)) in
    let t0 = Unix.gettimeofday () in
    ignore
      (Serve.Client.request c (Printf.sprintf "QUERY relative(%s)" name));
    lat.(i) <- (Unix.gettimeofday () -. t0) *. 1e3
  done;
  Serve.Client.close c;
  lat

let climbs_of_stats port =
  let c = Serve.Client.connect ~proto:`Lines ~port () in
  let lines = Serve.Client.command c "STATS" in
  ignore (Serve.Client.command c "SHUTDOWN");
  Serve.Client.close c;
  List.fold_left
    (fun acc l ->
      match String.split_on_char ' ' l with
      | [ "climbs_total"; n ] -> int_of_string n
      | _ -> acc)
    0 lines

let run () =
  let rows =
    List.map
      (fun clients ->
        let thread, port, people = start_server () in
        let per_client = total_queries / clients in
        let t0 = Unix.gettimeofday () in
        let results = Array.make clients [||] in
        let threads =
          List.init clients (fun i ->
              Thread.create
                (fun () ->
                  results.(i) <- client port people ~seed:(100 + i) ~n:per_client)
                ())
        in
        List.iter Thread.join threads;
        let lats = Array.to_list results |> List.concat_map Array.to_list in
        let wall = Unix.gettimeofday () -. t0 in
        let climbs = climbs_of_stats port in
        Thread.join thread;
        let sorted = List.sort Float.compare lats in
        let n = List.length sorted in
        let mean = List.fold_left ( +. ) 0.0 sorted /. float_of_int n in
        let p95 = List.nth sorted (Int.min (n - 1) (n * 95 / 100)) in
        [
          Table.i clients;
          Table.i (clients * per_client);
          Table.f2 wall;
          Table.f2 (float_of_int (clients * per_client) /. wall);
          Table.f2 mean;
          Table.f2 p95;
          Table.i climbs;
        ])
      client_counts
  in
  Table.print
    ~title:
      "E18: serve daemon, closed-loop genealogy clients (default loops, \
       fresh server per row)"
    ~header:
      [ "clients"; "queries"; "wall s"; "q/s"; "mean ms"; "p95 ms"; "climbs" ]
    rows
