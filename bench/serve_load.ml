(* The load harness the serve-path experiments (E21, E22, E24-E26)
   share: environment knobs, the genealogy query pools, an in-process
   server, the client connection shapes and the latency summary. E23
   uses only the knobs and the Zipf weights. *)

(* ---------- environment knobs ---------- *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( try int_of_string v with _ -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some v -> ( try float_of_string v with _ -> default)
  | None -> default

(* A comma list of integers, those below [min] dropped; unset or empty
   means [default]. *)
let env_ints name ~min default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s ->
    String.split_on_char ',' s
    |> List.filter_map (fun x ->
           match int_of_string_opt (String.trim x) with
           | Some n when n >= min -> Some n
           | _ -> None)

(* Set and non-empty: how a gate is switched on. *)
let env_set name =
  match Sys.getenv_opt name with None | Some "" -> false | Some _ -> true

(* Write [json] as one line to the path named by [var], when it is set. *)
let write_json var json =
  match Sys.getenv_opt var with
  | None | Some "" -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc json;
    output_char oc '\n';
    close_out oc;
    Table.note "wrote %s\n" path

(* ---------- workload ---------- *)

let pool_size = 32
let zipf_s = 1.1

let zipf_weights n =
  Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) zipf_s)

(* The genealogy knowledge base every serve-path experiment queries:
   rulebase, database and the people in it. *)
let genealogy ~people =
  let rulebase = Workload.Genealogy.rulebase () in
  let pop =
    Workload.Genealogy.populate (Stats.Rng.create 23L) ~n_people:people
  in
  ( rulebase,
    Workload.Genealogy.db pop,
    Array.of_list (Workload.Genealogy.people pop) )

(* Rank 1 is the free query relative(X), which eagerly materializes
   every match; ranks 2..32 are bound relative(name) queries spread
   evenly through the population. *)
let free_head_pool people =
  let n = Array.length people in
  Array.init pool_size (fun i ->
      if i = 0 then "QUERY relative(X)"
      else
        Printf.sprintf "QUERY relative(%s)"
          people.((i - 1) * n / (pool_size - 1) mod n))

(* One form, Zipf over constants. *)
let single_form_pool people =
  let n = Array.length people in
  Array.init pool_size (fun i ->
      Printf.sprintf "QUERY relative(%s)" people.(i * n / pool_size mod n))

(* Zipf over forms x a few constants per form. The Zipf walks the forms
   first, so the head of the distribution is the hot form and the tail
   keeps touching every learner. *)
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

(* ---------- in-process server ---------- *)

type server = { port : int; metrics_port : int  (** 0 when not listening *) }

(* A queue deep enough that [in_flight] outstanding requests never
   shed: rows must compare answered requests, not BUSY replies. *)
let queue_depth ~in_flight =
  Int.max Serve.Server.default_config.queue_depth in_flight

(* One command on a fresh line connection; its reply lines. *)
let command port line =
  let c = Serve.Client.connect ~proto:`Lines ~port () in
  let reply = Serve.Client.command c line in
  Serve.Client.close c;
  reply

(* Start a server from [config] on an ephemeral port, run [f] against
   it, then SHUTDOWN and join it. *)
let with_server config ~rulebase ~db f =
  let port = Atomic.make 0 and metrics_port = Atomic.make 0 in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run
          ~on_listen:(fun p -> Atomic.set port p)
          ~on_metrics_listen:(fun p -> Atomic.set metrics_port p)
          { config with Serve.Server.port = 0 }
          ~rulebase ~db)
      ()
  in
  while Atomic.get port = 0 do
    Thread.delay 0.01
  done;
  let port = Atomic.get port in
  let result = f { port; metrics_port = Atomic.get metrics_port } in
  ignore (command port "SHUTDOWN");
  Thread.join thread;
  result

(* ---------- clients ----------

   Each returns one latency in ms per request, in request order for the
   closed loops and by id for the open loop. With [~mark_failed], a reply
   other than ANSWER (BUSY, ERR, ...) gets NaN instead, which {!fan_in}
   counts as failed. *)

let answered = function
  | [ l ] -> String.length l >= 6 && String.sub l 0 6 = "ANSWER"
  | _ -> false

let since ~mark_failed lines t0 =
  if mark_failed && not (answered lines) then nan
  else (Unix.gettimeofday () -. t0) *. 1e3

(* Closed loop on one v3 line connection: [n] Zipf-drawn queries, each
   sent when the previous reply lands. *)
let line_client ?(mark_failed = false) port pool ~n ~seed =
  let rng = Stats.Rng.create (Int64.of_int seed) in
  let weights = zipf_weights (Array.length pool) in
  let c = Serve.Client.connect ~proto:`Lines ~port () in
  let lat = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let q = pool.(Stats.Rng.categorical rng weights) in
    let t0 = Unix.gettimeofday () in
    let reply = Serve.Client.request c q in
    lat.(i) <- since ~mark_failed [ reply ] t0
  done;
  Serve.Client.close c;
  lat

(* One pipelined v4 connection: [n] queries, [window] in flight — post
   the first [window] frames, then the next as each response lands. *)
let pipelined_conn ?(mark_failed = false) port pool ~n ~window ~seed =
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
    let id, lines = Serve.Client.recv c in
    lat.(k) <- since ~mark_failed lines (Hashtbl.find start id);
    Hashtbl.remove start id;
    if !issued < n then post_one ()
  done;
  Serve.Client.close c;
  lat

(* One open-loop v4 connection at [rate] req/s, replies collected by a
   second thread. Request k (client ids are sequential from 1, so
   id = k+1) is due at t0 + k/rate; its latency is measured from that
   due time whether or not the sender kept schedule, so sender stalls
   cannot hide queueing delay (no coordinated omission). *)
let open_loop_conn ?(mark_failed = false) port pool ~n ~rate ~seed =
  let rng = Stats.Rng.create (Int64.of_int seed) in
  let weights = zipf_weights (Array.length pool) in
  let c = Serve.Client.connect ~proto:`V4 ~port () in
  let lat = Array.make n 0.0 in
  let t0 = Unix.gettimeofday () +. 0.01 in
  let receiver =
    Thread.create
      (fun () ->
        for _ = 1 to n do
          let id, lines = Serve.Client.recv c in
          lat.(id - 1) <-
            since ~mark_failed lines (t0 +. (float_of_int (id - 1) /. rate))
        done)
      ()
  in
  for k = 0 to n - 1 do
    let due = t0 +. (float_of_int k /. rate) in
    let slack = due -. Unix.gettimeofday () in
    if slack > 0.0 then Thread.delay slack;
    ignore (Serve.Client.post c pool.(Stats.Rng.categorical rng weights))
  done;
  Thread.join receiver;
  Serve.Client.close c;
  lat

(* ---------- summary ---------- *)

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(Int.min (n - 1) (int_of_float (float_of_int n *. p)))

type summary = {
  queries : int;  (** answered *)
  failed : int;  (** NaN samples: not answered *)
  wall_s : float;
  qps : float;
  p50_ms : float;
  p99_ms : float;
  cpu_us_per_q : float;
      (** process CPU time (user + system: server loops and client
          threads alike) per answered request *)
}

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [conns] concurrent client threads, thread [k] running [per_conn k];
   wall and CPU time span all of them. A failed request's NaN sample
   counts in [failed], not in the latency or throughput figures. *)
let fan_in ~conns per_conn =
  let lats = Array.make conns [||] in
  let cpu0 = cpu_s () in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init conns (fun k ->
        Thread.create (fun () -> lats.(k) <- per_conn k) ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let cpu = cpu_s () -. cpu0 in
  let all = Array.concat (Array.to_list lats) in
  let sorted =
    Array.of_list
      (List.filter (fun l -> not (Float.is_nan l)) (Array.to_list all))
  in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  {
    queries = n;
    failed = Array.length all - n;
    wall_s = wall;
    qps = float_of_int n /. wall;
    p50_ms = (if n = 0 then nan else percentile sorted 0.50);
    p99_ms = (if n = 0 then nan else percentile sorted 0.99);
    cpu_us_per_q = cpu *. 1e6 /. float_of_int (Int.max 1 n);
  }

(* The summary's table cells and JSON fields, in the order the drivers
   print them; [~failed] adds the failed count after the queries. *)
let summary_cells ?(failed = false) s =
  (Table.i s.queries :: (if failed then [ Table.i s.failed ] else []))
  @ [
      Table.f2 s.wall_s; Table.f1 s.qps; Table.f3 s.p50_ms; Table.f3 s.p99_ms;
    ]

let summary_json ?(failed = false) s =
  Printf.sprintf "\"queries\":%d,%s\"wall_s\":%.3f,\"qps\":%.1f,\
                  \"p50_ms\":%.3f,\"p99_ms\":%.3f"
    s.queries
    (if failed then Printf.sprintf "\"failed\":%d," s.failed else "")
    s.wall_s s.qps s.p50_ms s.p99_ms
