(* E22 — multicore scaling of the serve path.

   The closed-loop Zipf genealogy mix of E21 (the free-query-head
   pool), served by fleets of increasing domain counts. Each row starts
   a fresh in-process `strategem serve` with `loops = d` — one domain
   per event loop, each executing the requests it parses — and records
   both the requested and the effective domain count, read back from
   the additive `domains` STATS field. The scaling claim is throughput:
   with the symbol table, database counters and registry hot paths
   domain-safe, q/s should rise with domains up to the physical core
   count.

   Knobs (environment): E22_QUERIES (total per row, default 4000),
   E22_CLIENTS (default 8), E22_PEOPLE (population, default 20000),
   E22_DOMAINS (comma list, default "1,2,4,8"), E22_CACHE_MB (default
   64), E22_JSON (path — when set, machine-readable results are written
   there), E22_REQUIRE_SPEEDUP (when set non-empty, exit 1 unless the
   2-domain row's throughput is at least E22_SPEEDUP_MIN (default 1.0)
   times the 1-domain row's — the CI smoke gate). *)

open Serve_load

let total_queries () = env_int "E22_QUERIES" 4_000
let n_clients () = env_int "E22_CLIENTS" 8
let n_people () = env_int "E22_PEOPLE" 20_000
let cache_mb () = env_int "E22_CACHE_MB" 64
let domain_counts () = env_ints "E22_DOMAINS" ~min:1 [ 1; 2; 4; 8 ]

(* An integer counter out of STATS reply lines (0 when absent). *)
let stat lines name =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ' ' l with
      | [ k; v ] when k = name -> ( try int_of_string v with _ -> acc)
      | _ -> acc)
    0 lines

type row = {
  requested : int;   (* --loops value *)
  effective : int;   (* domains the server actually spawned *)
  s : summary;
  climbs : int;
}

let run_row ~loops ~db ~rulebase ~pool =
  let clients = n_clients () in
  let per_client = total_queries () / clients in
  let config =
    { Serve.Server.default_config with loops; cache_mb = cache_mb () }
  in
  with_server config ~rulebase ~db (fun srv ->
      let s =
        fan_in ~conns:clients (fun k ->
            line_client srv.port pool ~n:per_client ~seed:(100 + k))
      in
      let stats = command srv.port "STATS" in
      {
        requested = loops;
        effective = stat stats "domains";
        s;
        climbs = stat stats "climbs_total";
      })

let json_of_row r =
  Printf.sprintf "{\"loops\":%d,\"domains\":%d,%s,\"climbs\":%d}"
    r.requested r.effective (summary_json r.s) r.climbs

let run () =
  let rulebase, db, people = genealogy ~people:(n_people ()) in
  let pool = free_head_pool people in
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
         (Table.i r.requested :: Table.i r.effective :: summary_cells r.s)
         @ [ Table.i r.climbs ])
       rows);
  let find_qps w =
    List.find_opt (fun r -> r.requested = w) rows
    |> Option.map (fun r -> r.s.qps)
  in
  let base = find_qps 1 in
  let speedup_4 =
    match (base, find_qps 4) with
    | Some b, Some q4 when b > 0.0 -> Some (q4 /. b)
    | _ -> None
  in
  Option.iter (Table.note "speedup at 4 loops vs 1: %.2fx throughput\n")
    speedup_4;
  write_json "E22_JSON"
    (Printf.sprintf
      "{\"experiment\":\"e22\",\"queries\":%d,\"clients\":%d,\"people\":%d,\
       \"pool\":%d,\"zipf_s\":%g,\"cache_mb\":%d,\
       \"recommended_domains\":%d,\"rows\":[%s],\"speedup_4_vs_1\":%.2f}"
      (total_queries ()) (n_clients ()) (n_people ()) pool_size zipf_s
      (cache_mb ())
      (Domain.recommended_domain_count ())
      (String.concat "," (List.map json_of_row rows))
      (Option.value speedup_4 ~default:0.0));
  if env_set "E22_REQUIRE_SPEEDUP" then begin
    let min_ratio = env_float "E22_SPEEDUP_MIN" 1.0 in
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
      exit 1
  end
