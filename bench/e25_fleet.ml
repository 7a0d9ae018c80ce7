(* E25 — reactor-fleet fan-in: throughput and tail latency of many
   concurrent connections as the event-loop count grows.

   E24 measures one pipelined connection; here the bottleneck under test
   is the reactor itself: E25_CONNS v4 connections drive the server at
   once, so with a single event loop every read/parse/execute/flush
   serializes on one domain. Sharding the reactor (--loops N, one loop
   per domain) is the tentpole; this experiment reports how fan-in
   scales across fleet sizes.

   For each fleet size in E25_LOOPS_LIST (default "1,2,4"), against a
   fresh in-process server (same seeds, comparable trajectories):

   S. single-form closed loop — E25_CONNS connections, each pipelining
      E25_WINDOW requests over the E24-style Zipf pool of
      relative(person) queries. Aggregate q/s is the fan-in throughput.

   M. mixed-form closed loop — the same fan-in, but the pool is Zipf
      over query *forms* (relative, sibling, ancestor_of_probe, inlaw,
      parent_of_probe, grandparent_of_probe — hot forms dominate, cold
      forms keep missing the per-form caches), the open-loop E24
      traffic shape generalized to many forms. Stresses the registry
      and cache cross-section rather than one learner.

   O. mixed-form open loop — the mixed pool again, but offered on a
      fixed schedule at the 1-loop single-form rate (equal offered load
      across fleet sizes), each connection sending its share. Latency
      is measured from the scheduled send time (no coordinated
      omission), so the p99 column shows queueing delay the fleet does
      or does not absorb.

   Knobs (environment): E25_QUERIES (default 2000 per phase),
   E25_CONNS (default 8), E25_WINDOW (default 16), E25_PEOPLE (default
   5000), E25_LOOPS_LIST (default "1,2,4"),
   E25_JSON (machine-readable results path), E25_REQUIRE_GATE
   (non-empty: exit 1 when the gate fails — the CI smoke gate),
   E25_SPEEDUP_MIN (default 0.9: mixed-form closed q/s at 2 loops must
   be >= this factor of the 1-loop rate; the gate is a no-regression
   bar, not a scaling claim — closed phases are best-of-2 to shrug off
   scheduler preemption, and on a single-core host the gate is
   advisory, since a second loop domain can only timeshare there). *)

open Serve_load

let total_queries () = env_int "E25_QUERIES" 2_000
let n_conns () = Int.max 1 (env_int "E25_CONNS" 8)
let window () = Int.max 1 (env_int "E25_WINDOW" 16)
let n_people () = env_int "E25_PEOPLE" 5_000
let loops_list () = env_ints "E25_LOOPS_LIST" ~min:1 [ 1; 2; 4 ]

let config ~loops =
  {
    Serve.Server.default_config with
    loops;
    queue_depth = queue_depth ~in_flight:(n_conns () * window ());
  }

type phase = { name : string; loops : int; s : summary }

let json_of_phase p =
  Printf.sprintf "{\"phase\":\"%s\",\"loops\":%d,%s}" p.name p.loops
    (summary_json p.s)

let run () =
  let rulebase, db, people = genealogy ~people:(n_people ()) in
  let single = single_form_pool people in
  let mixed = mixed_form_pool people in
  let n = total_queries () in
  let conns = n_conns () in
  let w = window () in
  let per = Int.max 1 (n / conns) in
  (* closed phases are best-of-2: throughput on a timeshared host is
     noisy downward only (scheduler preemption), so the better rep is
     the truer reading and the CI gate doesn't flake on jitter *)
  let closed pool port =
    let one seed0 =
      fan_in ~conns (fun k ->
          pipelined_conn port pool ~n:per ~window:w ~seed:(seed0 + k))
    in
    let a = one 7 in
    let b = one 107 in
    if a.qps >= b.qps then a else b
  in
  let anchor_rate = ref 0.0 in
  let rows =
    List.concat_map
      (fun loops ->
        with_server (config ~loops) ~rulebase ~db (fun { port; _ } ->
            let s = closed single port in
            if !anchor_rate = 0.0 then anchor_rate := s.qps;
            let m = closed mixed port in
            let rate = !anchor_rate /. float_of_int conns in
            let o =
              fan_in ~conns (fun k ->
                  open_loop_conn port mixed ~n:per ~rate ~seed:(7 + k))
            in
            [
              { name = "single closed"; loops; s };
              { name = "mixed closed"; loops; s = m };
              {
                name = Printf.sprintf "mixed open @ %.0f/s" !anchor_rate;
                loops;
                s = o;
              };
            ]))
      (loops_list ())
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E25: reactor-fleet fan-in, %d conns x window %d (%d queries per \
          phase, %d people; open-loop latency measured from the \
          scheduled send time)"
         conns w n (n_people ()))
    ~header:[ "phase"; "loops"; "queries"; "wall s"; "q/s"; "p50 ms"; "p99 ms" ]
    (List.map
       (fun r -> r.name :: Table.i r.loops :: summary_cells r.s)
       rows);
  let mixed_at l =
    List.find_opt (fun r -> r.loops = l && r.name = "mixed closed") rows
  in
  let ratio =
    match (mixed_at 1, mixed_at 2) with
    | Some one, Some two -> Some (two.s.qps /. one.s.qps)
    | _ -> None
  in
  (match ratio with
  | Some x ->
    Table.note "fleet fan-in (mixed-form closed, 2 loops / 1 loop): %.2fx\n" x
  | None -> ());
  write_json "E25_JSON"
    (Printf.sprintf
      "{\"experiment\":\"e25\",\"queries\":%d,\"conns\":%d,\"window\":%d,\
       \"people\":%d,\"zipf_s\":%g,\"rows\":[%s]%s}"
      n conns w (n_people ()) zipf_s
      (String.concat "," (List.map json_of_phase rows))
      (match ratio with
      | Some x -> Printf.sprintf ",\"mixed_2loop_over_1loop\":%.3f" x
      | None -> ""));
  if env_set "E25_REQUIRE_GATE" then begin
    let min_ratio = env_float "E25_SPEEDUP_MIN" 0.9 in
    match ratio with
    | None ->
      prerr_endline "E25: gate needs loop counts 1 and 2 in E25_LOOPS_LIST";
      exit 1
    | Some x when x < min_ratio ->
      if Domain.recommended_domain_count () < 2 then
        (* a second loop domain can only timeshare here; the ratio is
           scheduler noise, not a sharding regression *)
        Table.note
          "fleet fan-in gate advisory on a single-core host: %.2fx < %.2fx\n"
          x min_ratio
      else begin
        Printf.eprintf
          "E25: mixed-form fan-in at 2 loops is %.2fx the 1-loop rate \
           (< %.2fx)\n"
          x min_ratio;
        exit 1
      end
    | Some _ -> Table.note "fleet fan-in gate passed\n"
  end
