[@@@ocamlformat "disable"]

(* The serve-path benchmark's executable, with three subcommands that
   run.py chains together:

   - [gen]    writes the genealogy program and the workload's query stream
              (with each query's expected verdict) for a seed;
   - [load]   drives a running [strategem serve] over one protocol-v4
              connection as a closed loop, checks every answer, and reports
              latency, CPU, RSS and the server's STATS before and after the
              timed phase;
   - [replay] replays the same stream in-process through the public
              functions [Serve.Registry.answer] calls, timing each call.

   Every subcommand prints one JSON object on stdout. See README.md for
   the workloads and what each metric is meant to move.

   The attribute above keeps the repository's formatter off this file: the
   benchmark package keeps its own layout. *)

module D = Datalog
module G = Workload.Genealogy

let now_ns () = Monotonic_clock.now ()

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

(* ---------- workloads ---------- *)

let n_people = 200_000
let hot_keys = 256
let hot_skew = 1.1

(* Zipf draws in the hot-mem stream: the warm-up's, then the timed
   phase's, which wraps around them. *)
let hot_warm_draws = 16384
let hot_draws = 1 lsl 18

type shape = {
  warmup : int;  (** untimed queries before the timed phase *)
  count : int;
      (** timed queries in the count window: the work counts are taken over
          the warm-up plus this many timed answers, so they repeat exactly
          whatever the throughput *)
}

let shape = function
  | "hot-mem" -> { warmup = hot_keys + hot_warm_draws; count = 8192 }
  | "cold-mem" | "cold-paged" -> { warmup = 2000; count = 1000 }
  | w -> die "unknown workload %S" w

(* Genealogy.populate names people person1 .. personN. *)
let person i = Printf.sprintf "person%d" (i + 1)

(* The oracle: relative(P) holds exactly when P has at least one leaf fact,
   since every rule chain of the genealogy program ends in one leaf
   relation over the same argument. *)
let related db name =
  List.exists
    (fun (pred, _) ->
      D.Database.mem db (D.Atom.make pred [ D.Term.const name ]))
    G.rates

let zipf_cdf n skew =
  let w = Array.init n (fun i -> (1.0 /. float_of_int (i + 1)) ** skew) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw rng cdf =
  let u = Stats.Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* Indices into the population, in query order: hot-mem visits its 256
   keys once, then draws Zipf-1.1 over them; the cold workloads visit
   every person once, in a random order. *)
let stream workload rng =
  let order = Array.init n_people Fun.id in
  Stats.Rng.shuffle rng order;
  match workload with
  | "hot-mem" ->
    let keys = Array.sub order 0 hot_keys in
    let cdf = zipf_cdf hot_keys hot_skew in
    let draw _ = keys.(zipf_draw rng cdf) in
    Array.append keys (Array.init (hot_warm_draws + hot_draws) draw)
  | _ -> order

(* Cross-check the oracle against the bottom-up reference engine on a
   small population drawn from the same generator. *)
let check_oracle seed =
  let n = 2000 in
  let rng = Stats.Rng.create (Int64.of_int (seed lxor 0x5eed)) in
  let pop = G.populate rng ~n_people:n in
  let db = G.db pop in
  let model = D.Seminaive.model (G.rulebase ()) db in
  List.iter
    (fun name ->
      let holds =
        D.Database.mem model (D.Atom.make "relative" [ D.Term.const name ])
      in
      if holds <> related db name then
        die "oracle disagrees with Seminaive on relative(%s)" name)
    (G.people pop);
  n

let gen ~seed ~workload ~dir =
  let sh = shape workload in
  let rng = Stats.Rng.create (Int64.of_int seed) in
  let pop = G.populate (Stats.Rng.split rng) ~n_people in
  let db = G.db pop in
  let oc = open_out (Filename.concat dir "program.dl") in
  output_string oc G.rules_text;
  D.Database.iter
    (fun a ->
      output_string oc (D.Atom.to_string a);
      output_string oc ".\n")
    db;
  close_out oc;
  let ids = stream workload (Stats.Rng.split rng) in
  let verdict = Hashtbl.create 4096 in
  let oc = open_out (Filename.concat dir "queries.txt") in
  (* hot-mem's timed phase may cycle its Zipf draws; a cold stream that
     runs out ends the timed phase early, since a repeat would hit *)
  Printf.fprintf oc "warmup %d count %d wrap %B\n" sh.warmup sh.count
    (workload = "hot-mem");
  Array.iter
    (fun i ->
      let name = person i in
      let v =
        match Hashtbl.find_opt verdict i with
        | Some v -> v
        | None ->
          let v = related db name in
          Hashtbl.add verdict i v;
          v
      in
      Printf.fprintf oc "%s %d\n" name (if v then 1 else 0))
    ids;
  close_out oc;
  let checked = check_oracle seed in
  Printf.printf
    "{\"ocaml\":%S,\"people\":%d,\"facts\":%d,\"queries\":%d,\
     \"distinct_queries\":%d,\"warmup\":%d,\"count\":%d,\
     \"oracle_checked\":%d}\n"
    Sys.ocaml_version n_people (D.Database.size db) (Array.length ids)
    (Hashtbl.length verdict) sh.warmup sh.count checked

(* ---------- shared input reading ---------- *)

type queries = {
  names : string array;
  expected : bool array;
  q_warmup : int;
  q_count : int;
  wrap : bool;  (** the timed phase may cycle through the stream *)
}

let read_queries path =
  let ic = open_in path in
  let q_warmup, q_count, wrap =
    Scanf.sscanf (input_line ic) "warmup %d count %d wrap %B" (fun w c r ->
        (w, c, r))
  in
  let names = ref [] and expected = ref [] in
  (try
     while true do
       Scanf.sscanf (input_line ic) "%s %d" (fun n v ->
           names := n :: !names;
           expected := (v = 1) :: !expected)
     done
   with End_of_file -> ());
  close_in ic;
  {
    names = Array.of_list (List.rev !names);
    expected = Array.of_list (List.rev !expected);
    q_warmup;
    q_count;
    wrap;
  }

let atom_text name = "relative(" ^ name ^ ")"

(* ---------- load generator ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* /proc files report a length of 0, so read them line by line. *)
let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let proc_lines pid file = read_lines (Printf.sprintf "/proc/%d/%s" pid file)

(* utime + stime of the whole process, in clock ticks (fields 14 and 15
   of /proc/<pid>/stat, counted after the parenthesized command name). *)
let cpu_ticks pid =
  let s = String.concat " " (proc_lines pid "stat") in
  let close = String.rindex s ')' in
  let rest = String.sub s (close + 2) (String.length s - close - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  int_of_string f.(11) + int_of_string f.(12)

let vm_hwm_kb pid =
  let lines = proc_lines pid "status" in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" Fun.id
  | None -> die "no VmHWM in /proc/%d/status" pid

(* The aggregate cpu line of /proc/stat: clock ticks the hypervisor gave
   this machine's virtual CPUs to someone else while they had work (the
   steal column), and all ticks of all CPUs. Their ratio over a stretch of
   time says how disturbed it was without looking at anything the server
   did. *)
let host_ticks () =
  match read_lines "/proc/stat" with
  | l :: _ ->
    let f =
      List.filter_map int_of_string_opt (String.split_on_char ' ' l)
    in
    (* user nice system idle iowait irq softirq steal; the guest columns
       that follow are already counted in user and nice *)
    let f = List.filteri (fun i _ -> i < 8) f in
    (List.nth f 7, List.fold_left ( + ) 0 f)
  | [] -> die "empty /proc/stat"

(* A growable int array for per-request samples. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 65536 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

type phase = {
  mutable answered : int;
  mutable failed : int;
  mutable busy : int;
  mutable hits : int;  (** ANSWER lines carrying the cached token *)
  mutable work : int;  (** reductions + retrievals over the count window *)
  mutable counted : int;
  lat_ns : Samples.t;  (** in completion order *)
  mutable exhausted : bool;
}

let new_phase () =
  {
    answered = 0;
    failed = 0;
    busy = 0;
    hits = 0;
    work = 0;
    counted = 0;
    lat_ns = Samples.create ();
    exhausted = false;
  }

let mismatches = ref 0

let report_failure i reply =
  incr mismatches;
  if !mismatches <= 5 then
    Printf.eprintf "perfbench: query %d failed: %s\n%!" i reply

let int_field tokens key =
  match
    List.find_map
      (fun t ->
        match String.split_on_char '=' t with
        | [ k; v ] when k = key -> int_of_string_opt v
        | _ -> None)
      tokens
  with
  | Some v -> v
  | None -> 0

(* Check one reply against the oracle and tally it. [counted] says the
   query falls in the count window. *)
let settle ph qs ~counted i reply =
  match reply with
  | [ line ] when String.starts_with ~prefix:"ANSWER " line ->
    let tokens = String.split_on_char ' ' line in
    let yes = List.nth tokens 1 = "yes" in
    if yes <> qs.expected.(i mod Array.length qs.expected) then begin
      ph.failed <- ph.failed + 1;
      report_failure i line
    end
    else begin
      ph.answered <- ph.answered + 1;
      if List.mem "cached" tokens then ph.hits <- ph.hits + 1;
      if counted then begin
        ph.work <-
          ph.work + int_field tokens "reductions"
          + int_field tokens "retrievals";
        ph.counted <- ph.counted + 1
      end
    end
  | lines ->
    let line = String.concat " | " lines in
    if line = "BUSY" then ph.busy <- ph.busy + 1;
    ph.failed <- ph.failed + 1;
    report_failure i line

(* A closed loop over [qs.names.(first ..)]: keep [window] requests in
   flight, post the next one as each response arrives, stop posting when
   [stop ~posted ~now] holds, and drain. Latency is post to response;
   [on_done] sees each response's arrival time after it is tallied. *)
let drive c qs ph ~window ~first ~wrap ~count_upto ~stop ~on_done =
  let n = Array.length qs.names in
  let inflight = Hashtbl.create 64 in
  let posted = ref 0 and stopped = ref false in
  let post () =
    let i = first + !posted in
    if (not wrap) && i >= n then begin
      ph.exhausted <- true;
      stopped := true
    end
    else begin
      let line = "QUERY " ^ atom_text qs.names.(i mod n) in
      let t = now_ns () in
      let id = Serve.Client.post c line in
      Hashtbl.replace inflight id (t, i);
      incr posted
    end
  in
  let rec loop () =
    while (not !stopped) && Hashtbl.length inflight < window do
      if stop ~posted:!posted ~now:(now_ns ()) then stopped := true
      else post ()
    done;
    if Hashtbl.length inflight > 0 then begin
      let id, reply =
        try Serve.Client.recv c
        with End_of_file ->
          die "perfbench: the server closed the connection with %d \
               request(s) in flight (%d answered, %d failed)"
            (Hashtbl.length inflight) ph.answered ph.failed
      in
      let t1 = now_ns () in
      match Hashtbl.find_opt inflight id with
      | None -> die "perfbench: response for unknown request id %d" id
      | Some (t0, i) ->
        Hashtbl.remove inflight id;
        Samples.add ph.lat_ns (Int64.to_int (Int64.sub t1 t0));
        settle ph qs ~counted:(i < count_upto) i reply;
        on_done t1;
        loop ()
    end
  in
  loop ()

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let json_list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

(* Requests kept in flight on the one connection: below the admission
   queue's default depth (64), so nothing is shed, and few enough that one
   stall delays few requests. *)
let window = 4

(* The timed phase is cut into slices of about a second, at response
   boundaries. *)
let slice_ns = 1_000_000_000L

(* The timings are taken over the slices in which the hypervisor stole at
   most this share of the machine's CPU time, but over no fewer than a
   quarter of the slices: the least stolen, earlier first among equals. The
   choice looks only at the host, never at a figure the server produced,
   so a stall of the server's own (a GC pause, a sweep, a cache filling up)
   stays in the figures wherever it falls, while a second the host took
   away drops out. *)
let max_steal_share = 0.05

type slice = {
  secs : float;
  n : int;  (** responses *)
  ticks : int;  (** server CPU *)
  steal : float;  (** share of all CPU ticks stolen *)
  lat : int array;  (** latencies of the responses, ns *)
}

let kept sl =
  let calm = List.length (List.filter (fun s -> s.steal <= max_steal_share) sl) in
  let k = max calm ((List.length sl + 3) / 4) in
  List.filteri (fun i _ -> i < k)
    (List.stable_sort (fun a b -> compare a.steal b.steal) sl)

(* Slices pooled: their wall time, answers and server CPU, and the latency
   percentiles over all their samples. *)
let pooled sl =
  let sum f = List.fold_left (fun a s -> a + f s) 0 sl in
  let lat = Array.concat (List.map (fun s -> s.lat) sl) in
  Array.sort compare lat;
  let ms p = float_of_int (percentile lat p) /. 1e6 in
  Printf.sprintf
    "{\"slices\":%d,\"s\":%.9f,\"n\":%d,\"ticks\":%d,\"samples\":%d,\
     \"p50_ms\":%.6f,\"p99_ms\":%.6f}"
    (List.length sl)
    (List.fold_left (fun a s -> a +. s.secs) 0.0 sl)
    (sum (fun s -> s.n)) (sum (fun s -> s.ticks)) (Array.length lat)
    (ms 0.5) (ms 0.99)

let load ~port ~pid ~queries ~seconds =
  let qs = read_queries queries in
  let c = Serve.Client.connect ~proto:`V4 ~port () in
  let warm = new_phase () in
  let count_upto = qs.q_warmup + qs.q_count in
  drive c qs warm ~window ~first:0 ~wrap:false ~count_upto
    ~stop:(fun ~posted ~now:_ -> posted >= qs.q_warmup)
    ~on_done:ignore;
  let stats_before = Serve.Client.request c "STATS JSON" in
  let timed = new_phase () in
  let mark now = (now, timed.lat_ns.Samples.n, cpu_ticks pid, host_ticks ()) in
  let t_start = now_ns () in
  let marks = ref [ mark t_start ] in
  let next = ref (Int64.add t_start slice_ns) in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  (* VmHWM is read once the count window is answered, a point fixed by
     query count, so a faster server does not read as a bigger one *)
  let hwm = ref None in
  drive c qs timed ~window ~first:qs.q_warmup ~wrap:qs.wrap ~count_upto
    ~stop:(fun ~posted ~now ->
      posted >= qs.q_count && Int64.compare now deadline >= 0)
    ~on_done:(fun now ->
      if !hwm = None && warm.counted + timed.counted >= count_upto then
        hwm := Some (vm_hwm_kb pid);
      if Int64.compare now !next >= 0 then begin
        marks := mark now :: !marks;
        next := Int64.add now slice_ns
      end);
  let t_end = now_ns () in
  (* a trailing slice shorter than half a slice is folded into the last *)
  (match !marks with
  | (t, _, _, _) :: rest
    when Int64.compare (Int64.sub t_end t) (Int64.div slice_ns 2L) < 0
         && rest <> [] ->
    marks := mark t_end :: rest
  | _ -> marks := mark t_end :: !marks);
  let stats_after = Serve.Client.request c "STATS JSON" in
  let hwm = match !hwm with Some h -> h | None -> vm_hwm_kb pid in
  Serve.Client.close c;
  let lat = Samples.to_array timed.lat_ns in
  let rec slices = function
    | (t1, n1, c1, (s1, h1)) :: ((t0, n0, c0, (s0, h0)) :: _ as rest) ->
      {
        secs = Int64.to_float (Int64.sub t1 t0) /. 1e9;
        n = n1 - n0;
        ticks = c1 - c0;
        steal = float_of_int (s1 - s0) /. float_of_int (max 1 (h1 - h0));
        lat = Array.sub lat n0 (n1 - n0);
      }
      :: slices rest
    | _ -> []
  in
  let sl = List.rev (slices !marks) in
  Printf.printf
    "{\"warmup\":{\"attempted\":%d,\"failed\":%d,\"busy\":%d,\"hits\":%d},\
     \"timed\":{\"attempted\":%d,\"failed\":%d,\"busy\":%d,\"hits\":%d,\
     \"exhausted\":%b,\"wall_s\":%.9f,\"slice_s\":%s,\"slice_n\":%s,\
     \"slice_ticks\":%s,\"slice_steal\":%s,\"all\":%s,\"kept\":%s},\
     \"count_window\":{\"queries\":%d,\"work\":%d},\
     \"window\":%d,\"vm_hwm_kb\":%d,\"stats_before\":%s,\"stats_after\":%s}\n"
    (warm.answered + warm.failed) warm.failed warm.busy warm.hits
    (timed.answered + timed.failed) timed.failed timed.busy timed.hits
    timed.exhausted
    (Int64.to_float (Int64.sub t_end t_start) /. 1e9)
    (json_list (fun s -> Printf.sprintf "%.9f" s.secs) sl)
    (json_list (fun s -> string_of_int s.n) sl)
    (json_list (fun s -> string_of_int s.ticks) sl)
    (json_list (fun s -> Printf.sprintf "%.4f" s.steal) sl)
    (pooled sl) (pooled (kept sl))
    (warm.counted + timed.counted) (warm.work + timed.work) window hwm
    stats_before stats_after

(* ---------- traced replay ---------- *)

let load_program path =
  let rules, facts, _ = D.Parser.parse_kb (read_file path) in
  (D.Rulebase.of_list rules, D.Database.of_list facts)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Time accumulators, one per timed call site. *)
type acc = { mutable calls : int; mutable ns : float }

let acc () = { calls = 0; ns = 0.0 }

let add a ns =
  a.calls <- a.calls + 1;
  a.ns <- a.ns +. Int64.to_float ns

let mean_us a =
  if a.calls = 0 then 0.0 else a.ns /. float_of_int a.calls /. 1e3

type pass = {
  wall : acc;  (** decode through encode, per query *)
  decode : acc;
  probe : acc;
  sld : acc;
  context : acc;
  exec : acc;
  learn : acc;
  store : acc;
  encode : acc;
  mutable misses : int;
  mutable reductions : int;
  mutable retrievals : int;
  mutable cost : float;
  mutable climbs : int;
}

let new_pass () =
  {
    wall = acc ();
    decode = acc ();
    probe = acc ();
    sld = acc ();
    context = acc ();
    exec = acc ();
    learn = acc ();
    store = acc ();
    encode = acc ();
    misses = 0;
    reductions = 0;
    retrievals = 0;
    cost = 0.0;
    climbs = 0;
  }

let cache_bytes = 64 * 1024 * 1024

(* One pass over the replay window with a fresh registry, answer cache and
   memo table — the state a freshly started [strategem serve] holds. The
   calls and their order are [Serve.Registry.answer]'s for a ground query
   (no answer-set enumeration, no memo seeding); a traced pass times each
   call and reads the [sld]/[exec]/[learn] spans of [Core.Live.answer]. *)
let replay_pass ~traced ~rulebase ~db frames =
  let p = new_pass () in
  let reg = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  let cache =
    Cache.Answers.create ~subsume:true ~capacity_bytes:cache_bytes ()
  in
  let memo = D.Sld.Memo.create () in
  let out = Buffer.create 256 in
  let tick () = if traced then now_ns () else 0L in
  let timed a t0 = if traced then add a (Int64.sub (now_ns ()) t0) in
  let t_pass = now_ns () in
  Array.iteri
    (fun id fb ->
      let tracer = if traced then Trace.make () else Trace.null in
      let root =
        if traced then Trace.root tracer ~kind:"serve" "replay"
        else Trace.dummy
      in
      let t0 = tick () in
      let q =
        match Serve.Frame.decode fb ~pos:0 ~limit:(Bytes.length fb) with
        | Serve.Frame.Frame (f, _) ->
          D.Parser.parse_atom f.Serve.Frame.payload
        | _ -> die "replay: undecodable frame"
      in
      timed p.decode t0;
      let entry = Serve.Registry.find_or_create reg q in
      let ans =
        Serve.Registry.with_live entry (fun live ->
            let tp = tick () in
            let hit = Cache.Answers.find cache ~db q in
            timed p.probe tp;
            match hit with
            | Some h ->
              Core.Live.answer_cached ~tracer ~parent:root
                ~derived:h.Cache.Answers.derived live ~db
                ~result:h.Cache.Answers.result q
            | None ->
              let a = Core.Live.answer ~tracer ~parent:root ~memo live ~db q in
              let st = a.Core.Live.stats in
              if not st.D.Sld.truncated then begin
                let ts = tick () in
                Cache.Answers.store cache ~db q ~result:a.Core.Live.result
                  ~reductions:st.D.Sld.reductions
                  ~retrievals:st.D.Sld.retrievals ~cost:a.Core.Live.cost;
                timed p.store ts
              end;
              a)
      in
      let te = tick () in
      let st = ans.Core.Live.stats in
      Buffer.clear out;
      Serve.Frame.encode out
        {
          Serve.Frame.id = id + 1;
          kind = Serve.Frame.Ok;
          payload =
            Serve.Protocol.answer_line
              ~result:(if ans.Core.Live.result = None then "no" else "yes")
              ~reductions:st.D.Sld.reductions ~retrievals:st.D.Sld.retrievals
              ~cached:ans.Core.Live.cached ~switched:ans.Core.Live.switched ();
        };
      timed p.encode te;
      timed p.wall t0;
      if not ans.Core.Live.cached then begin
        p.misses <- p.misses + 1;
        p.reductions <- p.reductions + st.D.Sld.reductions;
        p.retrievals <- p.retrievals + st.D.Sld.retrievals
      end;
      p.cost <- p.cost +. ans.Core.Live.cost;
      if traced then begin
        List.iter
          (fun sp ->
            let a =
              match Trace.kind sp with
              | "sld" -> Some p.sld
              | "exec" -> Some p.exec
              | "learn" -> Some p.learn
              | _ -> None
            in
            Option.iter (fun a -> add a (Trace.wall_ns sp)) a)
          (Trace.children root);
        (* the context build inside the learn step has no span of its own:
           time the same call on the same query, outside the pass's wall *)
        let tc = now_ns () in
        Serve.Registry.with_live entry (fun live ->
            ignore
              (Infgraph.Context.of_db (Core.Live.graph live) ~query:q ~db));
        timed p.context tc
      end)
    frames;
  if not traced then add p.wall (Int64.sub (now_ns ()) t_pass);
  p.climbs <-
    List.fold_left
      (fun n e -> n + Serve.Registry.with_live e Core.Live.climbs)
      0 (Serve.Registry.entries reg);
  p

let replay ~program ~queries ~data_dir ~buffer_pages =
  let qs = read_queries queries in
  let n = qs.q_warmup + qs.q_count in
  let frames =
    Array.init n (fun i ->
        Bytes.of_string
          (Serve.Frame.encode_string
             {
               Serve.Frame.id = i + 1;
               kind = Serve.Frame.Query;
               payload = atom_text qs.names.(i);
             }))
  in
  let timed_load () =
    let t0 = now_ns () in
    let rb, db = load_program program in
    (secs_since t0, rb, db)
  in
  let s1, _, _ = timed_load () and s2, _, _ = timed_load () in
  let s3, rulebase, mem_db = timed_load () in
  let db_load_s = median [ s1; s2; s3 ] in
  let db, store_load_s =
    match data_dir with
    | None -> (mem_db, 0.0)
    | Some dir ->
      let t0 = now_ns () in
      let paged = D.Database.open_paged ~dir ?buffer_pages () in
      D.Database.iter (fun f -> ignore (D.Database.add paged f)) mem_db;
      D.Database.checkpoint paged;
      (paged, secs_since t0)
  in
  let plain1 = replay_pass ~traced:false ~rulebase ~db frames in
  let reads = ref 0 and read_ns = ref 0 in
  Store.Hooks.install (fun ev ns ->
      if ev = Store.Hooks.Page_read then begin
        incr reads;
        read_ns := !read_ns + ns
      end);
  let t = replay_pass ~traced:true ~rulebase ~db frames in
  Store.Hooks.clear ();
  let plain2 = replay_pass ~traced:false ~rulebase ~db frames in
  D.Database.close db;
  let plain_ns = (plain1.wall.ns +. plain2.wall.ns) /. 2.0 in
  let covered =
    List.fold_left
      (fun s a -> s +. a.ns)
      0.0
      [
        t.decode; t.probe; t.sld; t.context; t.exec; t.learn; t.store; t.encode;
      ]
  in
  let per_miss x =
    if t.misses = 0 then 0.0 else float_of_int x /. float_of_int t.misses
  in
  let metrics =
    [
      ("serve.decode_us", mean_us t.decode);
      ("serve.encode_us", mean_us t.encode);
      ("cache.probe_us", mean_us t.probe);
      ("cache.store_us", mean_us t.store);
      ("sld.us_per_miss", mean_us t.sld);
      ("sld.retrievals_per_miss", per_miss t.retrievals);
      ("sld.reductions_per_miss", per_miss t.reductions);
      ("db.load_s", db_load_s);
      ("context.us", mean_us t.context);
      ("exec.us", mean_us t.exec);
      ("exec.cost", t.cost /. float_of_int n);
      ("learn.us", mean_us t.learn);
      ("learn.climbs", float_of_int t.climbs);
      ("store.load_s", store_load_s);
      ( "store.page_read_us",
        if !reads = 0 then 0.0
        else float_of_int !read_ns /. float_of_int !reads /. 1e3 );
      ("replay.us_per_q", mean_us t.wall);
      ("replay.residual_frac", (t.wall.ns -. covered) /. t.wall.ns);
      ("replay.overhead_frac", (t.wall.ns -. plain_ns) /. plain_ns);
    ]
  in
  Printf.printf
    "{\"queries\":%d,\"misses\":%d,\"page_reads\":%d,\"metrics\":{%s}}\n" n
    t.misses !reads
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%.9g" k v) metrics))

(* ---------- command line ---------- *)

let () =
  let seed = ref 0 and workload = ref "" and dir = ref "." in
  let port = ref 0 and pid = ref 0 in
  let queries = ref "" and program = ref "" in
  let seconds = ref 10.0 in
  let data_dir = ref None and buffer_pages = ref None in
  let specs =
    [
      ("--seed", Arg.Set_int seed, "N input seed");
      ( "--workload",
        Arg.Set_string workload,
        "NAME hot-mem, cold-mem or cold-paged" );
      ("--dir", Arg.Set_string dir, "DIR where gen writes its files");
      ("--port", Arg.Set_int port, "PORT server port");
      ("--pid", Arg.Set_int pid, "PID server process, for /proc readings");
      ("--queries", Arg.Set_string queries, "FILE query stream from gen");
      ("--program", Arg.Set_string program, "FILE program from gen");
      ("--seconds", Arg.Set_float seconds, "S timed-phase length");
      ( "--data-dir",
        Arg.String (fun s -> data_dir := Some s),
        "DIR paged store (replay)" );
      ( "--buffer-pages",
        Arg.Int (fun n -> buffer_pages := Some n),
        "N pool frames (replay)" );
    ]
  in
  let usage = "perfbench (gen|load|replay) [options]" in
  if Array.length Sys.argv < 2 then die "%s" usage;
  let cmd = Sys.argv.(1) in
  let argv =
    Array.append [| Sys.argv.(0) |]
      (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
  in
  (try
     Arg.parse_argv argv specs (fun a -> die "unexpected argument %s" a) usage
   with Arg.Bad m | Arg.Help m -> die "%s" m);
  match cmd with
  | "gen" -> gen ~seed:!seed ~workload:!workload ~dir:!dir
  | "load" ->
    load ~port:!port ~pid:!pid ~queries:!queries ~seconds:!seconds
  | "replay" ->
    replay ~program:!program ~queries:!queries ~data_dir:!data_dir
      ~buffer_pages:!buffer_pages
  | c -> die "unknown subcommand %s\n%s" c usage
