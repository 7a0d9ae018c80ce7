module D = Datalog
open Infgraph

type config = {
  host : string;
  port : int;
  queue_depth : int;
  max_conns : int;
  state_dir : string option;
  snapshot_interval : float;
  learner : Core.Learner.kind;
  learner_config : Core.Learner.config;
  trace_sample : int;
  cache_mb : int;  (* answer-cache budget; 0 disables caching + memo *)
  metrics_port : int option;  (* /metrics + /healthz HTTP port; 0 = ephemeral *)
  log_level : Obs.Log.level option;  (* None = structured logging off *)
  log_file : string option;  (* None = stderr *)
  slow_query_us : float;  (* 0. = slow-query log off *)
  loops : int;  (* event loops in the reactor fleet; 0 = min 4 cores *)
  max_write_buf : int;  (* per-conn write-buffer cap, bytes; 0 = off *)
  max_write_total : int;  (* global write-buffer cap, bytes; 0 = off *)
  idle_timeout_s : float;  (* close idle connections after; 0. = off *)
  max_conns_per_ip : int;  (* accept-time per-IP cap; 0 = off *)
  lifecycle : bool;  (* per-request lifecycle tracking (spans + stages) *)
  flight_capacity : int;  (* per-loop flight-recorder ring; 0 = off *)
  retain : int;  (* tail-retained trace buffer, per loop; 0 = off *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 4280;
    queue_depth = 64;
    max_conns = 10_000;
    state_dir = None;
    snapshot_interval = 0.0;
    learner = `Pib;
    learner_config = Core.Learner.default_config;
    trace_sample = 0;
    cache_mb = 64;
    metrics_port = None;
    log_level = None;
    log_file = None;
    slow_query_us = 0.0;
    loops = 0;
    max_write_buf = 64 * 1024 * 1024;
    max_write_total = 0;
    idle_timeout_s = 0.0;
    max_conns_per_ip = 0;
    lifecycle = true;
    flight_capacity = 4096;
    retain = 64;
  }

let loop_count cfg =
  if cfg.loops > 0 then cfg.loops
  else Int.min 4 (Int.max 1 (Domain.recommended_domain_count ()))

(* The verdict on one request. [R_lines (lines, multi)] renders as
   the lines (END-terminated when [multi]) on a line connection and as
   one [Ok] frame with the lines joined by '\n' on a v4 connection. *)
type reply =
  | R_lines of string list * bool
  | R_err of Protocol.err_code * string
  | R_busy
  | R_bye
  | R_none  (* nothing on the wire (never produced for v4 requests) *)

type job = {
  conn : Conn.t;
  rid : int;  (* v4: the client's frame id; lines: a per-conn sequence *)
  framed : bool;  (* captured at dispatch — upgrades don't retitle jobs *)
  req : Protocol.request;
  lc : Lifecycle.t option;  (* lifecycle record; None when --no-lifecycle *)
  mutable mark : int;  (* the conn's byte mark of the response, once sent *)
}

(* One event loop of the reactor fleet. Each loop is its own domain
   owning a private {!Eventloop.t} (its own epoll instance and wake
   channel), a private connection table and a private request FIFO — no
   [Conn.t] and no request is ever shared between loops, so everything
   here is loop-thread-only apart from the acceptor's handoff queue, the
   atomics the acceptor reads, and the retained traces. *)
type loop_state = {
  lid : int;
  ev : Eventloop.t;
  lh : Metrics.loop_handles;
  (* loop-thread state: every connection this loop owns, by id *)
  conns : (int, Conn.t) Hashtbl.t;
  (* acceptor → loop handoff: freshly accepted sockets
     [(fd, peer, ip, id, accept_ns)]. The loop materializes the [Conn.t]
     and registers the fd itself — {!Eventloop.add} is loop-thread-only. *)
  inc_lock : Mutex.t;
  incoming : (Unix.file_descr * string * string * int * int) Queue.t;
  (* parsed requests waiting to run, oldest first: appended while a
     poll's events are dispatched, executed by [loop_tick] *)
  fifo : job Queue.t;
  (* connections owned (including queued handoffs), read by the acceptor
     for two-choice placement and the max-conns cap, and by the open
     connection statistics *)
  n_conns : int Atomic.t;
  (* requests parsed by this loop whose response is not yet enqueued —
     the loop's drain condition, and the acceptor's busy signal *)
  inflight : int Atomic.t;
  mutable draining : bool;
  (* The loop's latest clock stamp ({!stamp}). A stage boundary that
     coincides with the last one taken reads this instead of the clock:
     a request's execution starts at its pass's stamp or at its
     predecessor's end. *)
  mutable clock : int;
  (* the stamp of the execution pass now running: the queue stage of
     every request it runs starts here *)
  mutable pass_ns : int;
  (* the stamp a query handler took at its answer's end (its latency
     needs it), reused as the request's end; 0 when none was taken *)
  mutable answer_ns : int;
  (* loop-thread timestamp, refreshed once per iteration when the idle
     timeout is on — per-event [Conn.touch] never calls gettimeofday *)
  mutable now : float;
  mutable last_sweep : float;
  (* hashed timer wheel for the idle timeout: each slot holds the
     connections whose deadline falls in a second congruent to it.
     Loop-thread-only. Empty (and never touched) when the timeout is
     off. *)
  wheel : Conn.t list array;
  (* the loop's flight recorder — written only by this loop's thread
     (conn events directly; request events at finalize, replayed from
     the lifecycle record's timestamps), snapshotted by anyone *)
  flight : Obs.Flight.t;
  (* jobs whose lifecycle record awaits finalize, newest first:
     [respond] registers them with their byte mark; the loop finalizes
     the record — flight events, stage histograms, retention — once the
     conn's flushed-bytes total reaches the mark (or the conn died) *)
  mutable pending_fin : job list;
  (* The loop's retained buffer: the only place a trace is stored.
     Written by the loop at finalize, read under [ret_lock] by FLIGHT /
     /debug/flight ([tail]: shed, error and slow requests) and by STATS
     JSON ([sample]: the queries traced under --trace-sample). Inserts
     keep the finalized record and render the span tree lazily at read
     time: under sustained overload every shed request retains, and an
     eager render per insert was measured at ~30 us — a 2-3x throughput
     collapse on the shed path, paid for entries that are mostly
     evicted unread. The lanes are separate so a sampled query never
     evicts a tail entry. *)
  ret_lock : Mutex.t;
  tail : lane;
  sample : lane;
  (* a slow request was retained without a span tree: trace this loop's
     next query, so a consistently slow workload's records carry one *)
  mutable armed : bool;
  (* ids of metrics-port connections, counting down from -1 so they
     never collide with the acceptor's connection ids *)
  mutable http_seq : int;
  (* the open metrics-port connections, with their close deadlines *)
  mutable http_open : (float * Conn.t) list;
}

and retained_entry = {
  re_seq : int;
  re_reason : string;
  re_total_us : float;
  re_lc : Lifecycle.t;  (* immutable once finalized *)
}

(* A bounded newest-first list of retained entries. *)
and lane = {
  cap : int;
  mutable entries : retained_entry list;
  mutable n : int;
}

type state = {
  cfg : config;
  metrics : Metrics.t;
  registry : Registry.t;
  db : D.Database.t;
  log : Obs.Log.t;
  (* the slow-query threshold in ns; 0 = off *)
  slow_ns : int;
  (* queries traced and kept per loop for STATS JSON; 0 = sampling off
     (always 0 without the lifecycle layer) *)
  sample_cap : int;
  (* global sequence over retained traces, so `strategem tail` can
     dedupe across loops *)
  retained_seq : int Atomic.t;
  (* at most one retained-request record per second; the rest are
     counted *)
  retain_limiter : Obs.Log.Limiter.t;
  (* the metrics port's listening socket, polled by every loop; set
     before the loops start *)
  mutable msock : Unix.file_descr option;
  conn_seq : int Atomic.t;  (* connection ids, for log correlation *)
  (* acceptor-only rotation for power-of-two-choices placement *)
  accept_rr : int Atomic.t;
  (* each loop's FIFO bound: ceil (queue_depth / loops) *)
  fifo_cap : int;
  cache : Cache.Answers.t option;
  memo : D.Sld.Memo.t option;
  stopping : bool Atomic.t;
  stop_w : Unix.file_descr;  (* self-pipe: wakes the acceptor *)
  (* the reactor fleet, one entry per event loop *)
  loops : loop_state array;
  (* write-buffer budget shared by every connection (per-conn + global
     caps; see {!Conn.limits}) *)
  limits : Conn.limits;
  (* accept-time per-IP counts, shared by acceptor (incr) and loops
     (decr at reap) *)
  ip_lock : Mutex.t;
  ip_counts : (string, int) Hashtbl.t;
  (* requests dispatched whose response is not yet enqueued, across all
     loops: the pipeline-depth gauge *)
  inflight_total : int Atomic.t;
}

(* Callable from any loop and from signal handlers, so it must not
   take locks beyond the wake channels: flip the flag and wake the
   acceptor and every event loop; they do their own teardown. *)
let initiate_shutdown st =
  if not (Atomic.exchange st.stopping true) then begin
    (try ignore (Unix.write_substring st.stop_w "x" 0 1)
     with Unix.Unix_error _ -> ());
    Array.iter (fun ls -> Eventloop.wake ls.ev) st.loops
  end

let learner_string st =
  Core.Learner.kind_to_string (Registry.learner_kind st.registry)

let result_string = function
  | None -> "no"
  | Some s when D.Subst.is_empty s -> "yes"
  | Some s -> Format.asprintf "%a" D.Subst.pp s

(* --- response encoding --- *)

let encode_reply ~framed ~rid reply =
  if framed then
    let kind, payload =
      match reply with
      | R_lines (lines, _) -> (Frame.Ok, String.concat "\n" lines)
      | R_err (code, msg) ->
        (Frame.Err, Protocol.err_code_to_string code ^ " " ^ msg)
      | R_busy -> (Frame.Busy, "")
      | R_bye -> (Frame.Bye, "")
      | R_none -> assert false
    in
    Frame.encode_string { Frame.id = rid; kind; payload }
  else
    match reply with
    | R_lines (lines, multi) ->
      let b = Buffer.create 64 in
      List.iter
        (fun l ->
          Buffer.add_string b l;
          Buffer.add_char b '\n')
        lines;
      if multi then (
        Buffer.add_string b Protocol.terminator;
        Buffer.add_char b '\n');
      Buffer.contents b
    | R_err (code, msg) -> Protocol.err ~code msg ^ "\n"
    | R_busy -> Protocol.busy ^ "\n"
    | R_bye -> Protocol.bye ^ "\n"
    | R_none -> assert false

(* Stamp differences are computed in ns; metrics and logs speak µs. A
   float is boxed only where a log field or record needs it. *)
let us_of_ns ns = float_of_int ns /. 1e3

(* Take a clock stamp and make it the loop's latest. *)
let stamp ls =
  let t = Lifecycle.now_ns () in
  ls.clock <- t;
  t

(* Enqueue the encoded response on the job's connection and register its
   lifecycle record for finalize once the bytes drain. The owning loop
   flushes when it next services the connection. [now] is the request's
   end stamp. *)
let respond st ls job reply ~now =
  (match job.lc with
  | Some l ->
    l.Lifecycle.lc_respond_ns <- now;
    (match reply with
    | R_err _ -> l.Lifecycle.lc_error <- true
    | R_busy -> l.Lifecycle.lc_shed <- true
    | _ -> ())
  | None -> ());
  let mark =
    match reply with
    | R_none -> Conn.send_mark job.conn ""
    | _ ->
      Conn.send_mark job.conn
        (encode_reply ~framed:job.framed ~rid:job.rid reply)
  in
  (match reply with
  | R_bye -> Conn.set_closing job.conn
  | R_busy when not job.framed ->
    (* line dialect has no id to tie BUSY to a request, so it keeps the
       v1..v3 semantics: BUSY then close *)
    Conn.set_closing job.conn
  | _ -> ());
  Conn.decr_inflight job.conn;
  if Option.is_some job.lc then begin
    job.mark <- mark;
    ls.pending_fin <- job :: ls.pending_fin
  end;
  ignore (Atomic.fetch_and_add ls.inflight (-1));
  Atomic.decr st.inflight_total

(* --- request handlers (pure of socket I/O) --- *)

(* Root a [serve] span covering this query's whole execution; the FIFO
   wait the request already paid is attached as an attribute (it
   happened before the span could exist). *)
let serve_root tracer ~wait_ns atom_text =
  let root = Trace.root tracer ~kind:"serve" atom_text in
  Trace.set_attr tracer root "queue_wait_us"
    (Printf.sprintf "%.0f" (float_of_int wait_ns /. 1e3));
  root

(* Answer [q] through the registry, tracing if [tracer] is enabled, and
   record the query metrics. [w] is the execution's start stamp; the
   answer's end is stamped here and becomes the request's end. Returns
   the answer and its latency in ns (exceptions escape). *)
let answer_traced st ls ~w tracer q =
  let traced = Trace.enabled tracer in
  let root =
    if traced then
      serve_root tracer ~wait_ns:(w - ls.pass_ns) (D.Atom.to_string q)
    else Trace.dummy
  in
  let entry = Registry.find_or_create st.registry q in
  let ans =
    Registry.answer_entry ~tracer
      ?parent:(if traced then Some root else None)
      ?cache:st.cache ?memo:st.memo entry ~db:st.db q
  in
  Trace.finish tracer root;
  (* lifecycle attribution: which backend answered, and — when this
     query ran traced — the exec span tree, grafted under the record's
     worker (execution) span at export *)
  (match Lifecycle.current () with
  | Some lc ->
    lc.Lifecycle.lc_backend <- Lifecycle.backend_of ans;
    if traced then lc.Lifecycle.lc_exec <- Trace.root_span tracer
  | None -> ());
  let r = stamp ls in
  ls.answer_ns <- r;
  let latency_ns = r - w in
  Metrics.query (Registry.metrics entry) ~latency_ns
    ~answered:(Option.is_some ans.Core.Live.result)
    ~switched:ans.Core.Live.switched;
  (ans, latency_ns)

(* A debug record for every answered query; slow ones are logged once,
   at finalize ([log_retained]). *)
let log_query st ~conn ~qid ~latency_ns atom_text (ans : Core.Live.answer) =
  if Obs.Log.enabled st.log Obs.Log.Debug then
    Obs.Log.debug st.log "query answered"
      ~fields:
        [
          ("conn", Obs.Log.I conn);
          ("query", Obs.Log.I qid);
          ("q", Obs.Log.S atom_text);
          ("latency_us", Obs.Log.F (us_of_ns latency_ns));
          ("answered", Obs.Log.B (ans.Core.Live.result <> None));
          ("cached", Obs.Log.B ans.Core.Live.cached);
          ("switched", Obs.Log.B ans.Core.Live.switched);
        ]

let with_query st atom_text f =
  match D.Parser.parse_atom atom_text with
  | exception (D.Parser.Parse_error (msg, _) | D.Lexer.Lex_error (msg, _)) ->
    Metrics.error st.metrics;
    R_err (`Parse, msg)
  | q -> (
    match f q with
    | exception Build.Not_disjunctive clause ->
      Metrics.error st.metrics;
      R_err
        ( `Unsupported,
          Format.asprintf "cannot serve this form: rule %a is conjunctive"
            D.Clause.pp clause )
    | exception Invalid_argument msg | exception Failure msg ->
      Metrics.error st.metrics;
      R_err (`Internal, msg)
    | reply -> reply)

let handle_query st ls ~conn ~qid ~w atom_text =
  with_query st atom_text (fun q ->
      (* traced when sampled, or when armed by a slow request retained
         without a tree ([finalize_lc]) — never speculatively *)
      let tracer =
        if st.sample_cap > 0 || ls.armed then begin
          ls.armed <- false;
          Trace.make ()
        end
        else Trace.null
      in
      let ans, latency_ns = answer_traced st ls ~w tracer q in
      log_query st ~conn ~qid ~latency_ns atom_text ans;
      R_lines
        ( [
            Protocol.answer_line ~result:(result_string ans.Core.Live.result)
              ~reductions:ans.Core.Live.stats.D.Sld.reductions
              ~retrievals:ans.Core.Live.stats.D.Sld.retrievals
              ~cached:ans.Core.Live.cached ~switched:ans.Core.Live.switched
              ();
          ],
          false ))

let handle_trace st ls ~conn ~qid ~w atom_text =
  with_query st atom_text (fun q ->
      let tracer = Trace.make () in
      let ans, latency_ns = answer_traced st ls ~w tracer q in
      log_query st ~conn ~qid ~latency_ns atom_text ans;
      (* the trace's paper cost against the cost the learner pipeline
         recorded: the built-in consistency check on the cost model *)
      let paper_cost, span_json =
        match Trace.root_span tracer with
        | Some sp -> (Core.Live.exec_cost sp, Trace.to_json sp)
        | None -> (0.0, "{}")
      in
      let monitor_cost = ans.Core.Live.cost in
      (* ["derived"] stays for existing clients; subsumption-derived
         hits were removed, so it is always false. *)
      let reply =
        Printf.sprintf
          "{\"result\":\"%s\",\"reductions\":%d,\"retrievals\":%d,\
           \"cached\":%b,\"derived\":false,\"switched\":%b,\
           \"paper_cost\":%.17g,\"monitor_cost\":%.17g,\"consistent\":%b,\
           \"span\":%s}"
          (Trace.json_escape (result_string ans.Core.Live.result))
          ans.Core.Live.stats.D.Sld.reductions
          ans.Core.Live.stats.D.Sld.retrievals ans.Core.Live.cached
          ans.Core.Live.switched paper_cost monitor_cost
          (Float.abs (paper_cost -. monitor_cost) <= 1e-9)
          span_json
      in
      R_lines ([ Protocol.trace_line reply ], false))

let handle_strategy st atom_text =
  match D.Parser.parse_atom atom_text with
  | exception (D.Parser.Parse_error (msg, _) | D.Lexer.Lex_error (msg, _)) ->
    Metrics.error st.metrics;
    R_err (`Parse, msg)
  | q -> (
    match Registry.find_or_create st.registry q with
    | exception Build.Not_disjunctive _ | exception Invalid_argument _ ->
      Metrics.error st.metrics;
      R_err (`Unsupported, "cannot build a learner for this form")
    | entry ->
      R_lines
        ( [
            Printf.sprintf "OK %s %s" (Registry.key entry)
              (Registry.strategy_string entry);
          ],
          false ))

let save_snapshot st =
  match st.cfg.state_dir with
  | None -> None
  | Some dir ->
    let n = Snapshot.save ~dir st.registry in
    Metrics.snapshot_saved st.metrics ~forms:n;
    Obs.Log.debug st.log "snapshot saved" ~fields:[ ("forms", Obs.Log.I n) ];
    Some n

(* The periodic and the shutdown snapshot have no client to answer, so a
   failure (full or unwritable state dir) is logged rather than lost. *)
let save_snapshot_or_warn st =
  try ignore (save_snapshot st)
  with exn ->
    Obs.Log.warn st.log "snapshot failed"
      ~fields:
        [
          ("state_dir", Obs.Log.S (Option.value st.cfg.state_dir ~default:""));
          ("exn", Obs.Log.S (Printexc.to_string exn));
        ]

let handle_snapshot st =
  match save_snapshot st with
  | None ->
    Metrics.error st.metrics;
    R_err (`No_state_dir, "no state directory configured (--state-dir)")
  | Some n -> R_lines ([ Printf.sprintf "OK snapshot saved %d form(s)" n ], false)
  | exception Sys_error msg | exception Failure msg ->
    Metrics.error st.metrics;
    R_err (`Internal, msg)
  | exception Unix.Unix_error (e, fn, arg) ->
    Metrics.error st.metrics;
    R_err (`Internal, Printf.sprintf "%s: %s %s" fn (Unix.error_message e) arg)

(* One lane of every loop's retained buffer, as (loop id, entry) pairs
   in loop order, each loop's newest first. Safe from any thread. *)
let lane_entries st lane =
  Array.to_list st.loops
  |> List.concat_map (fun ls ->
         Mutex.lock ls.ret_lock;
         let r = (lane ls).entries in
         Mutex.unlock ls.ret_lock;
         List.map (fun e -> (ls.lid, e)) r)

(* STATS JSON's [recent_traces]: the newest [--trace-sample] sampled
   query trees across loops, oldest first, rendered now. *)
let recent_traces st =
  let sampled =
    lane_entries st (fun ls -> ls.sample)
    |> List.sort (fun (_, a) (_, b) -> Int.compare b.re_seq a.re_seq)
  in
  List.filteri (fun i _ -> i < st.cfg.trace_sample) sampled
  |> List.rev
  |> List.filter_map (fun (_, e) ->
         Option.map Trace.to_json e.re_lc.Lifecycle.lc_exec)

(* The flight-recorder dump: every loop's ring (merged, time-ordered)
   plus every loop's tail-retained traces, as one JSON object. Safe from
   any thread — ring snapshots validate sequence stamps, the retained
   buffers take their per-loop locks. Served by the FLIGHT verb, by
   GET /debug/flight, and dumped to stderr on SIGQUIT. *)
let flight_json st =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"version\":1,\"loops\":%d,\"flight_capacity\":%d,\"events\":["
       (Array.length st.loops)
       (Obs.Flight.capacity st.loops.(0).flight));
  let events =
    Array.to_list st.loops
    |> List.concat_map (fun ls -> Obs.Flight.snapshot ls.flight)
    |> List.sort (fun a b ->
           Int64.compare a.Obs.Flight.ev_ts_ns b.Obs.Flight.ev_ts_ns)
  in
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Obs.Flight.event_to_json e))
    events;
  Buffer.add_string buf "],\"retained\":[";
  List.iteri
    (fun i (lid, e) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"seq\":%d,\"loop\":%d,\"conn\":%d,\"rid\":%d,\
            \"reason\":\"%s\",\"total_us\":%.0f,\"span\":%s}"
           e.re_seq lid e.re_lc.Lifecycle.lc_conn e.re_lc.Lifecycle.lc_rid
           e.re_reason e.re_total_us
           (Trace.to_json (Lifecycle.to_span e.re_lc))))
    (lane_entries st (fun ls -> ls.tail));
  Buffer.add_string buf "]}";
  Buffer.contents buf

let process st ls ~w job =
  match job.req with
  (* Empty is never dispatched; Hello_v4 is answered inline by the loop *)
  | Protocol.Empty | Protocol.Hello_v4 -> R_none
  | Protocol.Hello ->
    let version =
      if job.framed then Frame.version else Protocol.version
    in
    R_lines ([ Protocol.hello_line ~version ~learner:(learner_string st) () ], false)
  | Protocol.Ping -> R_lines ([ Protocol.pong ], false)
  | Protocol.Help -> R_lines (Protocol.help_lines, true)
  | Protocol.Stats -> R_lines (Metrics.render_text st.metrics, true)
  | Protocol.Stats_json ->
    let recent_traces =
      if st.cfg.trace_sample > 0 then Some (recent_traces st) else None
    in
    R_lines ([ Metrics.render_json ?recent_traces st.metrics ], false)
  | Protocol.Query atom ->
    handle_query st ls ~conn:(Conn.id job.conn) ~qid:job.rid ~w atom
  | Protocol.Trace atom ->
    handle_trace st ls ~conn:(Conn.id job.conn) ~qid:job.rid ~w atom
  | Protocol.Strategy atom -> handle_strategy st atom
  | Protocol.Flight -> R_lines ([ flight_json st ], false)
  | Protocol.Snapshot -> handle_snapshot st
  | Protocol.Quit -> R_bye
  | Protocol.Shutdown -> R_bye
  | Protocol.Malformed msg ->
    Metrics.error st.metrics;
    R_err (`Malformed, msg)
  | Protocol.Unknown verb ->
    Metrics.error st.metrics;
    R_err (`Unknown_verb, verb)

(* --- reactor (loop thread) --- *)

let request_of_frame (f : Frame.t) =
  let no_arg req =
    if f.Frame.payload = "" then req
    else Protocol.Malformed (Frame.kind_name f.Frame.kind ^ " takes no argument")
  in
  let atom mk =
    if f.Frame.payload = "" then
      Protocol.Malformed (Frame.kind_name f.Frame.kind ^ " needs an atom")
    else mk f.Frame.payload
  in
  match f.Frame.kind with
  | Frame.Hello -> no_arg Protocol.Hello
  | Frame.Query -> atom (fun a -> Protocol.Query a)
  | Frame.Trace -> atom (fun a -> Protocol.Trace a)
  | Frame.Strategy -> atom (fun a -> Protocol.Strategy a)
  | Frame.Stats -> no_arg Protocol.Stats
  | Frame.Stats_json -> no_arg Protocol.Stats_json
  | Frame.Snapshot -> no_arg Protocol.Snapshot
  | Frame.Ping -> no_arg Protocol.Ping
  | Frame.Help -> no_arg Protocol.Help
  | Frame.Flight -> no_arg Protocol.Flight
  | Frame.Quit -> no_arg Protocol.Quit
  | Frame.Shutdown -> no_arg Protocol.Shutdown
  | Frame.Ok | Frame.Err | Frame.Busy | Frame.Bye ->
    Protocol.Malformed
      ("unexpected response frame " ^ Frame.kind_name f.Frame.kind)
  | Frame.Unknown c -> Protocol.Unknown (Printf.sprintf "0x%02X" c)

(* Append one parsed request to this loop's FIFO; a FIFO already at its
   cap sheds it with BUSY right here. The cap is the loop's even share
   of [queue_depth], so a flooding loop sheds at its own share and never
   affects its peers. *)
let dispatch st ls c ~framed ~rid req =
  Conn.incr_inflight c;
  ignore (Atomic.fetch_and_add ls.inflight 1);
  let d = Atomic.fetch_and_add st.inflight_total 1 + 1 in
  Metrics.set_pipeline_depth st.metrics d;
  (* the lifecycle record is born here, right after the parse; its
     [frame_ns] is the loop's latest stamp: the read that parsed it, or,
     for a line request fed later from its conn's pending queue, the
     latest stamp before it was fed *)
  let lc =
    if st.cfg.lifecycle then
      Some
        (Lifecycle.create ~conn:(Conn.id c) ~rid ~loop:ls.lid ~framed ~req
           ~accept_ns:(Conn.accept_ns c) ~frame_ns:ls.clock)
    else None
  in
  let job = { conn = c; rid; framed; req; lc; mark = 0 } in
  if Queue.length ls.fifo < st.fifo_cap then begin
    Queue.push job ls.fifo;
    Metrics.observe_queue_depth st.metrics (Queue.length ls.fifo)
  end
  else begin
    (* never queued: no queue stage; the shed flag is set by the inline
       BUSY respond below *)
    let now = stamp ls in
    if Option.is_none lc then
      Obs.Flight.record ls.flight ~ts_ns:now ~code:Obs.Flight.code_shed
        ~loop:ls.lid ~conn:(Conn.id c) ~rid ~a:0 ~b:0;
    Metrics.busy st.metrics;
    if Obs.Log.enabled st.log Obs.Log.Debug then
      Obs.Log.debug st.log "request shed: queue full"
        ~fields:
          [
            ("conn", Obs.Log.I (Conn.id c));
            ("loop", Obs.Log.I ls.lid);
            ("queue_depth", Obs.Log.I st.cfg.queue_depth);
          ];
    respond st ls job R_busy ~now
  end

(* --- the metrics port: one HTTP GET per connection, on the loop --- *)

let http_response status content_type body =
  let reason =
    match status with
    | 200 -> "OK"
    | 400 -> "Bad Request"
    | 404 -> "Not Found"
    | 405 -> "Method Not Allowed"
    | _ -> "Service Unavailable"
  in
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    status reason content_type (String.length body) body

(* Route one request line, answer it, and close. A known path answers
   whatever the method; the query string is ignored. *)
let serve_http st c request_line =
  let text = "text/plain; charset=utf-8" in
  let status, content_type, body =
    match String.split_on_char ' ' request_line with
    | meth :: target :: _ -> (
      let path =
        match String.index_opt target '?' with
        | Some i -> String.sub target 0 i
        | None -> target
      in
      match path with
      | "/metrics" ->
        ( 200,
          "text/plain; version=0.0.4; charset=utf-8",
          Metrics.render_prometheus st.metrics )
      | "/healthz" ->
        if Atomic.get st.stopping then (503, text, "draining\n")
        else (200, text, "ready\n")
      | "/debug/flight" -> (200, "application/json", flight_json st)
      | _ when meth <> "GET" && meth <> "HEAD" ->
        (405, text, "method not allowed\n")
      | _ -> (404, text, "not found\n"))
    | _ -> (400, text, "bad request\n")
  in
  Conn.send c (http_response status content_type body);
  Conn.set_closing c

let on_incoming st ls c inc =
  match inc with
  | Conn.Http_req line -> serve_http st c line
  | Conn.Line_req Protocol.Empty -> ()  (* blank lines never dispatch *)
  | Conn.Line_req req -> Conn.push_pending c req
  | Conn.Upgrade ->
    (* acknowledge on the line dialect before any response to frames
       that followed the upgrade in the same buffer *)
    Conn.send c
      (Protocol.hello_line ~version:Frame.version
         ~learner:(learner_string st) ()
      ^ "\n")
  | Conn.Frame_req f ->
    dispatch st ls c ~framed:true ~rid:f.Frame.id (request_of_frame f)
  | Conn.Junk msg ->
    Metrics.error st.metrics;
    if Conn.framed c then
      Conn.send c
        (Frame.encode_string
           { Frame.id = 0; kind = Frame.Err; payload = "malformed " ^ msg })
    else Conn.send c (Protocol.err ~code:`Malformed msg ^ "\n");
    Conn.set_closing c

(* Release one accept-time per-IP slot (loop thread, at reap). *)
let release_ip st ip =
  if st.cfg.max_conns_per_ip > 0 then begin
    Mutex.lock st.ip_lock;
    (match Hashtbl.find_opt st.ip_counts ip with
    | Some n when n > 1 -> Hashtbl.replace st.ip_counts ip (n - 1)
    | Some _ -> Hashtbl.remove st.ip_counts ip
    | None -> ());
    Mutex.unlock st.ip_lock
  end

let reap st ls c =
  if Hashtbl.mem ls.conns (Conn.id c) then begin
    Hashtbl.remove ls.conns (Conn.id c);
    Eventloop.remove ls.ev (Conn.fd c);
    let dirty = Conn.dead c in
    Conn.kill c;
    (try Unix.close (Conn.fd c) with Unix.Unix_error _ -> ());
    (* a metrics-port connection was never counted: closing is all *)
    if not (Conn.http c) then begin
      Obs.Flight.record ls.flight ~ts_ns:(Lifecycle.now_ns ())
        ~code:Obs.Flight.code_close ~loop:ls.lid ~conn:(Conn.id c) ~rid:0
        ~a:(if dirty then 1 else 0)
        ~b:0;
      ignore (Atomic.fetch_and_add ls.n_conns (-1));
      (* the overflow counters bump exactly once, here: [overflowed] is
         sticky and a shed connection reaches reap exactly once *)
      if Conn.overflowed c then
        Metrics.write_overflow st.metrics ~shed_bytes:(Conn.take_shed_bytes c);
      release_ip st (Conn.ip c);
      if Obs.Log.enabled st.log Obs.Log.Debug then
        Obs.Log.debug st.log "connection closed"
          ~fields:
            [
              ("conn", Obs.Log.I (Conn.id c));
              ("loop", Obs.Log.I ls.lid);
              ("pipeline_hwm", Obs.Log.I (Conn.pipeline_hwm c));
            ]
    end
  end

(* Read interest stays off while a line connection has a full FIFO's
   worth of requests pending: its client is sending faster than its
   requests run (or than it reads their replies, see [service]), so TCP
   pushes back instead of the pending queue growing. *)
let update_interest st ls c =
  let read =
    not (Conn.read_closed c)
    && not (Conn.closing c)
    (* the metrics port keeps reading through the drain: /healthz
       answers "draining" until the loops exit *)
    && ((not (Atomic.get st.stopping)) || Conn.http c)
    && Conn.pending_count c < st.fifo_cap
  in
  Eventloop.modify ls.ev (Conn.fd c) ~read ~write:(Conn.has_output c)

(* The per-connection maintenance step, run whenever anything might have
   changed (socket event, executed request, shutdown): flush pending
   output, keep the line-mode stop-and-wait pipeline fed, close when
   drained. Idempotent. Loop thread of the owning loop only. *)
let service st ls c =
  if Conn.dead c then reap st ls c
  else if Conn.overflowed c then begin
    (* write cap breached: one best-effort flush of the BUSY notice,
       then disconnect — a reader that never drains costs one buffer,
       not the server's memory *)
    ignore (Conn.flush c);
    reap st ls c
  end
  else begin
    ignore (Conn.flush c);
    if Conn.dead c then reap st ls c
    else begin
      (* stop-and-wait: a line connection's next request runs once the
         previous reply has gone to the socket. A client that never
         reads its replies therefore stops being served, its pending
         queue fills, and [update_interest] stops reading it. *)
      (if
         (not (Conn.framed c))
         && (not (Conn.closing c))
         && Conn.inflight c = 0
         && not (Conn.has_output c)
       then
         match Conn.pop_pending c with
         | Some req ->
           dispatch st ls c ~framed:false ~rid:(Conn.next_rid c) req
         | None -> ());
      let idle =
        Conn.inflight c = 0
        && Conn.pending_count c = 0
        && not (Conn.has_output c)
      in
      if
        idle
        && (Conn.closing c || Conn.read_closed c
           || (Atomic.get st.stopping && not (Conn.http c)))
      then reap st ls c
      else update_interest st ls c
    end
  end

(* [emit] is the connection's [on_incoming], built once at adopt. *)
let on_conn_event st ls c ~emit ~readable ~writable:_ =
  (if
     readable && not (Conn.read_closed c) && not (Conn.closing c)
     && not (Conn.dead c)
   then begin
     if st.cfg.idle_timeout_s > 0.0 then Conn.touch c ~now:ls.now;
     (* the frame stamp of every request this read parses *)
     if st.cfg.lifecycle then ignore (stamp ls);
     match Conn.on_readable c ~emit with
     | Conn.Continue -> ()
     | Conn.Eof ->
       (* honor a final unterminated line, like the blocking server's
          [input_line] did *)
       Conn.finish_read c ~emit;
       Conn.set_read_closed c
     | Conn.Rerror msg ->
       if Obs.Log.enabled st.log Obs.Log.Debug then
         Obs.Log.debug st.log "connection read error"
           ~fields:
             [
               ("conn", Obs.Log.I (Conn.id c));
               ("error", Obs.Log.S msg);
             ];
       Conn.kill c
   end);
  service st ls c

(* --- execution (loop thread) --- *)

(* Run one request on this loop's thread and enqueue its response. Its
   execution starts at the loop's latest stamp (its pass's, or its
   predecessor's end) and ends at one fresh stamp; the FIFO wait, the
   per-form latency and the loop's busy time are all differences of
   these stamps. *)
let execute st ls job =
  let w = ls.clock in
  Metrics.queue_waited st.metrics ~wait_ns:(w - ls.pass_ns);
  Metrics.observe_queue_depth st.metrics (Queue.length ls.fifo);
  (* record the start and expose the record ambiently, so store waits
     (WAL fsync, page faults) land on the request that paid them *)
  (match job.lc with
  | Some l ->
    l.Lifecycle.lc_queue_ns <- ls.pass_ns;
    l.Lifecycle.lc_worker_ns <- w;
    Lifecycle.set_current job.lc
  | None -> ());
  let reply =
    try process st ls ~w job
    with exn ->
      Metrics.error st.metrics;
      Obs.Log.error st.log "request handler crashed"
        ~fields:
          [
            ("conn", Obs.Log.I (Conn.id job.conn));
            ("exn", Obs.Log.S (Printexc.to_string exn));
          ];
      R_err (`Internal, Printexc.to_string exn)
  in
  if Option.is_some job.lc then Lifecycle.set_current None;
  let r = if ls.answer_ns <> 0 then ls.answer_ns else stamp ls in
  ls.answer_ns <- 0;
  respond st ls job reply ~now:r;
  (match job.req with Protocol.Shutdown -> initiate_shutdown st | _ -> ());
  Metrics.loop_served ls.lh ~busy_ns:(r - w)

(* Execute the FIFO oldest-first, then service each connection that got
   a response. Servicing feeds a line connection its next pending
   request, which lands back in the FIFO, so repeat until it stays
   empty. *)
let rec run_fifo st ls =
  if not (Queue.is_empty ls.fifo) then begin
    Metrics.set_loop_pipeline_depth ls.lh (Queue.length ls.fifo);
    ls.pass_ns <- stamp ls;
    let touched = ref [] in
    while not (Queue.is_empty ls.fifo) do
      let job = Queue.pop ls.fifo in
      execute st ls job;
      match !touched with
      | c :: _ when c == job.conn -> ()
      | cs -> touched := job.conn :: cs
    done;
    List.iter (service st ls) (List.rev !touched);
    run_fifo st ls
  end

(* --- the loop fleet (one domain per loop) --- *)

(* The idle-timeout wheel's circumference, in one-second buckets. A
   timeout longer than the circumference only means a connection's slot
   comes due before its deadline — the lazy re-bucket below reinserts
   it; correctness never depends on the size. *)
let wheel_slots = 256

(* Bucket [c] by the second of [at], clamped into the future so a
   connection is never filed under a second the sweep has already
   passed (it would then wait a full lap to be seen again). *)
let wheel_insert ls ~at c =
  let s = max (int_of_float at) (int_of_float ls.now + 1) in
  let slot = s mod wheel_slots in
  ls.wheel.(slot) <- c :: ls.wheel.(slot)

(* Make [c] one of this loop's connections: the connection table and
   the poller (both loop-thread-only). *)
let register st ls c =
  Hashtbl.replace ls.conns (Conn.id c) c;
  let emit = on_incoming st ls c in
  Eventloop.add ls.ev (Conn.fd c) ~read:true ~write:false
    (fun ~readable ~writable -> on_conn_event st ls c ~emit ~readable ~writable)

(* A metrics-port connection is closed this long after its accept,
   answered or not, so a silent client holds neither an fd nor the
   drain for longer. *)
let http_deadline_s = 5.0

(* Accept every pending metrics-port connection. Every loop polls the
   listener; whichever wakes first takes the connection, the others see
   EAGAIN. HTTP connections count toward no connection cap or gauge;
   their responses are uncapped, as a scrape's body is the server's
   own. *)
let rec accept_http st ls msock =
  match Unix.accept ~cloexec:true msock with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
    Unix.set_nonblock fd;
    ls.http_seq <- ls.http_seq - 1;
    let c =
      Conn.create ~http:true ~id:ls.http_seq ~peer:"" ~ip:""
        ~limits:(Conn.limits ~max_buf:0 ()) fd
    in
    register st ls c;
    ls.http_open <-
      (Unix.gettimeofday () +. http_deadline_s, c) :: ls.http_open;
    accept_http st ls msock

(* Forget the metrics-port connections already closed; close those past
   their deadline. *)
let http_sweep st ls =
  match ls.http_open with
  | [] -> ()
  | conns ->
    let now = Unix.gettimeofday () in
    ls.http_open <-
      List.filter
        (fun (deadline, c) ->
          Hashtbl.mem ls.conns (Conn.id c)
          && (deadline > now
             || begin
                  Conn.kill c;
                  reap st ls c;
                  false
                end))
        conns

(* Adopt sockets the acceptor handed over: materialize the [Conn.t] and
   register the fd, both loop-thread-only operations. *)
let adopt_incoming st ls =
  let batch =
    Mutex.lock ls.inc_lock;
    let rec go acc =
      match Queue.take_opt ls.incoming with
      | None -> List.rev acc
      | Some x -> go (x :: acc)
    in
    let b = go [] in
    Mutex.unlock ls.inc_lock;
    b
  in
  List.iter
    (fun (fd, peer, ip, id, accept_ns) ->
      let c = Conn.create ~accept_ns ~id ~peer ~ip ~limits:st.limits fd in
      if st.cfg.idle_timeout_s > 0.0 then begin
        Conn.touch c ~now:ls.now;
        wheel_insert ls ~at:(ls.now +. st.cfg.idle_timeout_s) c
      end;
      register st ls c;
      Obs.Flight.record ls.flight ~ts_ns:accept_ns
        ~code:Obs.Flight.code_accept ~loop:ls.lid ~conn:id ~rid:0 ~a:ls.lid
        ~b:0;
      if Obs.Log.enabled st.log Obs.Log.Debug then
        Obs.Log.debug st.log "connection accepted"
          ~fields:
            [
              ("conn", Obs.Log.I id);
              ("loop", Obs.Log.I ls.lid);
              ("peer", Obs.Log.S peer);
              ("loop_conns", Obs.Log.I (Hashtbl.length ls.conns));
            ];
      (* a straggler adopted mid-drain is serviced (and so closed once
         idle) immediately *)
      if Atomic.get st.stopping then service st ls c)
    batch

(* Close connections with no traffic for [idle_timeout_s], via the
   hashed timer wheel: a connection is bucketed by its deadline second
   at adopt and re-bucketed lazily when its slot comes due —
   [Conn.touch] never moves it, so servicing traffic costs nothing
   here, and each sweep walks only the buckets whose second has passed
   since the last one: O(due + expired) work, not a full O(open
   connections) table scan per second per loop. A connection that was
   touched since filing is simply re-filed at its new deadline when its
   old bucket drains; one already reaped (the entry no longer in the
   conn table) is dropped. The sweep runs after the tick has executed
   every parsed request, so no request is ever in flight here. Zero
   cost when the timeout is off. *)
let idle_sweep st ls =
  let timeout = st.cfg.idle_timeout_s in
  if timeout > 0.0 && ls.now -. ls.last_sweep >= 1.0 then begin
    let now_s = int_of_float ls.now in
    let first =
      (* after a stall longer than the circumference, one lap covers
         every bucket — never reprocess a slot within one sweep *)
      max (int_of_float ls.last_sweep + 1) (now_s - wheel_slots + 1)
    in
    ls.last_sweep <- ls.now;
    for s = first to now_s do
      let slot = s mod wheel_slots in
      let due = ls.wheel.(slot) in
      ls.wheel.(slot) <- [];
      List.iter
        (fun c ->
          if Hashtbl.mem ls.conns (Conn.id c) then begin
            let deadline = Conn.last_active c +. timeout in
            if deadline > ls.now then wheel_insert ls ~at:deadline c
            else begin
              Metrics.idle_closed st.metrics;
              if Obs.Log.enabled st.log Obs.Log.Debug then
                Obs.Log.debug st.log "connection closed: idle timeout"
                  ~fields:
                    [
                      ("conn", Obs.Log.I (Conn.id c));
                      ("loop", Obs.Log.I ls.lid);
                      ("idle_timeout_s", Obs.Log.F timeout);
                    ];
              Conn.kill c;
              reap st ls c
            end
          end)
        due
    done
  end

(* --- lifecycle finalize (loop thread) --- *)

(* Keep the newest [n] of a newest-first list. *)
let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* Keep [e] as the newest entry of [lane], dropping the oldest past its
   cap. Under the loop's [ret_lock]. *)
let push lane e =
  if lane.cap > 0 then begin
    lane.entries <- e :: lane.entries;
    lane.n <- lane.n + 1;
    if lane.n > lane.cap then begin
      lane.entries <- take lane.cap lane.entries;
      lane.n <- lane.cap
    end
  end

(* The one record a retained request writes: its span tree (with the
   query's exec tree grafted when it ran traced) and the tail of its
   loop's flight ring, at most one per second; the record carries how
   many were suppressed since the last. *)
let log_retained st ls e =
  if Obs.Log.enabled st.log Obs.Log.Warn then
    match
      Obs.Log.Limiter.admit st.retain_limiter ~now:(Unix.gettimeofday ())
    with
    | None -> ()
    | Some suppressed ->
      let lc = e.re_lc in
      let events =
        take 16 (List.rev (Obs.Flight.snapshot ls.flight))
        |> List.rev_map Obs.Flight.event_to_json
      in
      Obs.Log.warn st.log "request trace retained"
        ~fields:
          [
            ("loop", Obs.Log.I ls.lid);
            ("conn", Obs.Log.I lc.Lifecycle.lc_conn);
            ("rid", Obs.Log.I lc.Lifecycle.lc_rid);
            ("reason", Obs.Log.S e.re_reason);
            ("total_us", Obs.Log.F e.re_total_us);
            ("retained_seq", Obs.Log.I e.re_seq);
            ("suppressed", Obs.Log.I suppressed);
            ("span", Obs.Log.J (Trace.to_json (Lifecycle.to_span lc)));
            ("events", Obs.Log.J ("[" ^ String.concat "," events ^ "]"));
          ]

(* Finalize one request's lifecycle record: replay its stamps into the
   loop's flight ring (single-writer: only this loop's thread runs
   this), feed the per-stage latency histograms, and decide — here and
   nowhere else — whether its trace is kept, and why: [shed], [error]
   and [slow] requests go to the tail lane (FLIGHT, /debug/flight, one
   warn record each), and a query traced under --trace-sample also goes
   to the sample lane (STATS JSON), with reason [sample] when it has no
   other. *)
let finalize_lc st ls (lc : Lifecycle.t) =
  Lifecycle.finalize lc ~flight:ls.flight ls.lh;
  Metrics.lifecycle_finalized st.metrics;
  let total_ns = Lifecycle.total_ns lc in
  let slow = st.slow_ns > 0 && total_ns >= st.slow_ns in
  if slow then Metrics.slow_query st.metrics;
  let tail =
    if lc.Lifecycle.lc_shed then Some "shed"
    else if lc.Lifecycle.lc_error then Some "error"
    else if slow then Some "slow"
    else None
  in
  let sampled = st.sample_cap > 0 && Option.is_some lc.Lifecycle.lc_exec in
  if sampled || Option.is_some tail then begin
    let e =
      {
        re_seq = Atomic.fetch_and_add st.retained_seq 1;
        re_reason = Option.value tail ~default:"sample";
        re_total_us = us_of_ns total_ns;
        re_lc = lc;
      }
    in
    Mutex.lock ls.ret_lock;
    if sampled then push ls.sample e;
    if Option.is_some tail then push ls.tail e;
    Mutex.unlock ls.ret_lock;
    match tail with
    | None -> ()
    | Some reason ->
      if st.cfg.retain > 0 then
        Metrics.trace_retained st.metrics ls.lh ~reason ~seq:e.re_seq;
      (* no tree to show for this one: trace the loop's next query *)
      if slow && Option.is_none lc.Lifecycle.lc_exec then ls.armed <- true;
      log_retained st ls e
  end

(* Finalize every registered record whose response bytes have drained
   (or whose connection died trying). Oldest first, so ring order
   matches completion order. *)
let finalize_pass st ls =
  match ls.pending_fin with
  | [] -> ()
  | pend ->
    (* one flush stamp for every record this pass finalizes *)
    let now = stamp ls in
    ls.pending_fin <-
      List.fold_right
        (fun job keep ->
          match job.lc with
          | None -> keep
          | Some lc ->
            let c = job.conn in
            (* drained-first: a response fully flushed before the
               connection closed (QUIT, BYE) is a success, not an error *)
            if Conn.flushed_bytes c >= job.mark then begin
              lc.Lifecycle.lc_flush_ns <- now;
              finalize_lc st ls lc;
              keep
            end
            else if Conn.dead c || Conn.overflowed c then begin
              lc.Lifecycle.lc_error <- true;
              finalize_lc st ls lc;
              keep
            end
            else job :: keep)
        pend []

(* The loop's post-poll hook, run once per iteration: adopt handoffs,
   start the drain once stopping flips, execute every request the poll
   parsed, finalize drained responses, sweep for idle connections,
   refresh this loop's metric series. *)
let loop_tick st ls =
  if st.cfg.idle_timeout_s > 0.0 then ls.now <- Unix.gettimeofday ();
  adopt_incoming st ls;
  if Atomic.get st.stopping && not ls.draining then begin
    ls.draining <- true;
    Hashtbl.fold (fun _ c acc -> c :: acc) ls.conns []
    |> List.iter (service st ls)
  end;
  run_fifo st ls;
  (* after the execution pass, so a response flushed this very iteration
     finalizes in the same tick *)
  finalize_pass st ls;
  idle_sweep st ls;
  http_sweep st ls

let incoming_empty ls =
  Mutex.lock ls.inc_lock;
  let e = Queue.is_empty ls.incoming in
  Mutex.unlock ls.inc_lock;
  e

(* A loop domain's whole life: poll until told to stop and fully
   drained. A metrics-port connection holds the drain like any other,
   at most until its deadline. The loop's [Eventloop.t] stays open after
   exit — a late acceptor or shutdown wake must hit a live eventfd, not
   a recycled descriptor — and is closed by the main thread once every
   domain has joined, as is the metrics listener. *)
let loop_main st ls =
  Eventloop.on_wake ls.ev (fun () -> loop_tick st ls);
  Option.iter
    (fun fd ->
      Eventloop.add ls.ev fd ~read:true ~write:false
        (fun ~readable:_ ~writable:_ -> accept_http st ls fd))
    st.msock;
  Eventloop.run ls.ev ~stop:(fun () ->
      Atomic.get st.stopping
      && Hashtbl.length ls.conns = 0
      && Atomic.get ls.inflight = 0
      && incoming_empty ls);
  Option.iter (Eventloop.remove ls.ev) st.msock;
  (* belt and braces for exceptional exits: release any survivors *)
  Hashtbl.iter
    (fun _ c ->
      Eventloop.remove ls.ev (Conn.fd c);
      Conn.kill c;
      try Unix.close (Conn.fd c) with Unix.Unix_error _ -> ())
    ls.conns;
  Hashtbl.reset ls.conns

(* --- acceptor (main thread) --- *)

let shed fd =
  let line = Protocol.busy ^ "\n" in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let string_of_sockaddr = function
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

let ip_of_sockaddr = function
  | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
  | Unix.ADDR_UNIX p -> p

(* Power-of-two-choices placement: probe two loops picked by a rotating
   counter and take the less loaded under the lexicographic load key
   (open connections, then pipeline depth) — strict least-connections
   scanned the whole fleet per accept and, being blind to pipeline
   depth, herded bursty pipelined clients onto one loop. Two probes get
   within a constant factor of the full scan's balance at O(1) cost
   (Mitzenmacher's classic result), and adding in-flight depth as the
   tie-break steers new connections away from loops that are busy
   rather than merely popular. Ties break to the lower loop id and the
   rotation is deterministic, so four connections against an idle
   two-loop fleet still land 2/2. *)
let pick_loop st =
  let n = Array.length st.loops in
  if n = 1 then st.loops.(0)
  else begin
    let r = Atomic.fetch_and_add st.accept_rr 1 in
    let a = st.loops.(r mod n) and b = st.loops.((r + 1) mod n) in
    let load ls = (Atomic.get ls.n_conns, Atomic.get ls.inflight, ls.lid) in
    if load a <= load b then a else b
  end

let total_conns st =
  Array.fold_left (fun acc ls -> acc + Atomic.get ls.n_conns) 0 st.loops

(* Claim a per-IP slot; the matching release happens at reap. *)
let try_admit_ip st ip =
  let cap = st.cfg.max_conns_per_ip in
  cap = 0
  ||
  (Mutex.lock st.ip_lock;
   let n = Option.value ~default:0 (Hashtbl.find_opt st.ip_counts ip) in
   let ok = n < cap in
   if ok then Hashtbl.replace st.ip_counts ip (n + 1);
   Mutex.unlock st.ip_lock;
   ok)

let accept_burst st sock =
  let rec go () =
    match Unix.accept ~cloexec:true sock with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
    | fd, addr ->
      let id = Atomic.fetch_and_add st.conn_seq 1 in
      let ip = ip_of_sockaddr addr in
      if total_conns st >= st.cfg.max_conns then begin
        Metrics.busy st.metrics;
        shed fd;
        Obs.Log.warn st.log "connection shed: at max-conns"
          ~fields:
            [
              ("conn", Obs.Log.I id);
              ("max_conns", Obs.Log.I st.cfg.max_conns);
            ]
      end
      else if not (try_admit_ip st ip) then begin
        Metrics.ip_limited st.metrics;
        Metrics.busy st.metrics;
        shed fd;
        Obs.Log.warn st.log "connection shed: per-ip cap"
          ~fields:
            [
              ("conn", Obs.Log.I id);
              ("ip", Obs.Log.S ip);
              ("max_conns_per_ip", Obs.Log.I st.cfg.max_conns_per_ip);
            ]
      end
      else begin
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let ls = pick_loop st in
        ignore (Atomic.fetch_and_add ls.n_conns 1);
        Mutex.lock ls.inc_lock;
        Queue.push
          (fd, string_of_sockaddr addr, ip, id, Lifecycle.now_ns ())
          ls.incoming;
        Mutex.unlock ls.inc_lock;
        Metrics.connection st.metrics;
        Eventloop.wake ls.ev
      end;
      go ()
  in
  go ()

(* The dedicated acceptor: a two-fd select needs no reactor of its own.
   [stop_r] becomes readable the moment {!initiate_shutdown} writes its
   never-drained byte, so shutdown never waits out a poll interval. With
   periodic snapshots on, the select times out when the next save is
   due and the acceptor writes it; it accepts nothing while it saves. *)
let acceptor st sock stop_r =
  let interval =
    if st.cfg.state_dir = None then 0.0 else st.cfg.snapshot_interval
  in
  let rec go due =
    if not (Atomic.get st.stopping) then begin
      let timeout =
        if interval > 0.0 then Float.max 0.0 (due -. Unix.gettimeofday ())
        else -1.0
      in
      (match Unix.select [ sock; stop_r ] [] [] timeout with
      | ready, _, _ -> if List.memq sock ready then accept_burst st sock
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      if interval > 0.0 && Unix.gettimeofday () >= due then begin
        save_snapshot_or_warn st;
        go (Unix.gettimeofday () +. interval)
      end
      else go due
    end
  in
  go (Unix.gettimeofday () +. interval)

let run ?(handle_signals = false) ?(on_listen = fun _ -> ())
    ?(on_metrics_listen = fun _ -> ()) cfg ~rulebase ~db =
  if cfg.queue_depth < 1 then
    invalid_arg "Server.run: queue_depth must be >= 1";
  if cfg.max_conns < 1 then invalid_arg "Server.run: max_conns must be >= 1";
  if cfg.loops < 0 then invalid_arg "Server.run: loops must be >= 0";
  if cfg.max_write_buf < 0 || cfg.max_write_total < 0 then
    invalid_arg "Server.run: write-buffer caps must be >= 0";
  if cfg.idle_timeout_s < 0.0 then
    invalid_arg "Server.run: idle_timeout_s must be >= 0";
  if cfg.max_conns_per_ip < 0 then
    invalid_arg "Server.run: max_conns_per_ip must be >= 0";
  if cfg.retain < 0 then invalid_arg "Server.run: retain must be >= 0";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let log =
    match cfg.log_level with
    | None -> Obs.Log.null
    | Some level -> (
      match cfg.log_file with
      | Some path -> Obs.Log.open_file ~level path
      | None -> Obs.Log.to_channel ~level stderr)
  in
  (* the [logs] reporter is process-global: put back the caller's once
     this server's log is closed *)
  let caller_reporter = Logs.reporter () in
  if cfg.log_level <> None then Obs.Log.install_logs_reporter log;
  let inflight_total = Atomic.make 0 in
  let metrics =
    Metrics.create ~pipeline_depth:(fun () -> Atomic.get inflight_total) ()
  in
  let registry =
    Registry.create ~learner:cfg.learner ~config:cfg.learner_config ~rulebase
      metrics
  in
  (match cfg.state_dir with
  | Some dir ->
    let n = Snapshot.load ~log ~dir registry in
    if n > 0 then begin
      Metrics.forms_loaded metrics n;
      Obs.Log.info log "strategies restored from snapshots"
        ~fields:[ ("forms", Obs.Log.I n) ]
    end
  | None -> ());
  let stop_r, stop_w = Unix.pipe () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* The fleet: one event loop per domain, each with a private epoll
     instance, wake channel and request FIFO. *)
  let n_loops = loop_count cfg in
  let fleet =
    Array.init n_loops (fun lid ->
        let ev = Eventloop.create () and n_conns = Atomic.make 0 in
        {
          lid;
          ev;
          lh =
            Metrics.loop_handles metrics ~loop:lid
              ~conns:(fun () -> Atomic.get n_conns)
              ~wakeups:(fun () -> Eventloop.wakeups ev);
          conns = Hashtbl.create 64;
          inc_lock = Mutex.create ();
          incoming = Queue.create ();
          fifo = Queue.create ();
          n_conns;
          inflight = Atomic.make 0;
          draining = false;
          clock = 0;
          pass_ns = 0;
          answer_ns = 0;
          now = 0.0;
          last_sweep = 0.0;
          wheel = Array.make wheel_slots [];
          flight = Obs.Flight.create ~capacity:cfg.flight_capacity;
          pending_fin = [];
          ret_lock = Mutex.create ();
          tail = { cap = cfg.retain; entries = []; n = 0 };
          sample = { cap = cfg.trace_sample; entries = []; n = 0 };
          armed = false;
          http_seq = 0;
          http_open = [];
        })
  in
  Metrics.set_loops metrics n_loops;
  Metrics.set_backend metrics (Eventloop.backend fleet.(0).ev);
  let cache =
    if cfg.cache_mb > 0 then
      Some
        (Cache.Answers.create ~capacity_bytes:(cfg.cache_mb * 1024 * 1024) ())
    else None
  in
  let memo = if cfg.cache_mb > 0 then Some (D.Sld.Memo.create ()) else None in
  let st =
    {
      cfg;
      metrics;
      registry;
      db;
      log;
      slow_ns =
        (if cfg.slow_query_us > 0.0 then
           int_of_float (Float.ceil (cfg.slow_query_us *. 1e3))
         else 0);
      sample_cap = (if cfg.lifecycle then cfg.trace_sample else 0);
      retained_seq = Atomic.make 0;
      retain_limiter = Obs.Log.Limiter.create ~min_interval_s:1.0;
      msock = None;
      conn_seq = Atomic.make 1;
      accept_rr = Atomic.make 0;
      fifo_cap = (cfg.queue_depth + n_loops - 1) / n_loops;
      cache;
      memo;
      stopping = Atomic.make false;
      stop_w;
      loops = fleet;
      limits =
        Conn.limits ~max_buf:cfg.max_write_buf ~global_max:cfg.max_write_total
          ();
      ip_lock = Mutex.create ();
      ip_counts = Hashtbl.create 16;
      inflight_total;
    }
  in
  (* Store-wait attribution: while a loop executes a request, the WAL
     fsyncs and buffer-pool page faults it causes are charged to the
     ambient lifecycle record, which is domain-local and so always the
     request its loop is running. The observer is process-global,
     cleared on the way out. *)
  if cfg.lifecycle then
    Store.Hooks.install (fun ev ns ->
        match Lifecycle.current () with
        | None -> ()
        | Some lc -> (
          match ev with
          | Store.Hooks.Wal_fsync -> Lifecycle.add_wal_wait lc ns
          | Store.Hooks.Page_read -> Lifecycle.add_page_wait lc ns));
  (* A paged database exposes its store counters;
     an in-memory one reports no store block at all. *)
  if Option.is_some (D.Database.store_stats st.db) then
    Metrics.set_store_provider metrics (fun () ->
        D.Database.store_stats st.db);
  Metrics.set_cache_provider metrics (fun () ->
      match (st.cache, st.memo) with
      | Some c, Some m ->
        Some
          {
            Metrics.answers = Cache.Answers.counters c;
            memo = D.Sld.Memo.counters m;
          }
      | _ -> None);
  (* The listener closes at drain start (so clients see refusals, not
     hangs) but also on every exceptional path; the ref keeps the close
     single-shot — a second close of a recycled fd number would hit an
     innocent bystander. *)
  let sock_open = ref true in
  let close_sock () =
    if !sock_open then begin
      sock_open := false;
      try Unix.close sock with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      if cfg.lifecycle then Store.Hooks.clear ();
      Option.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        st.msock;
      (* loops have joined (or never started) by now: their eventloops
         are closed here, centrally, so a late wake can never hit a
         recycled descriptor *)
      Array.iter (fun ls -> Eventloop.close ls.ev) fleet;
      close_sock ();
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ stop_r; stop_w ];
      Logs.set_reporter caller_reporter;
      Obs.Log.close log)
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
      Unix.listen sock 256;
      Unix.set_nonblock sock;
      let port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      if handle_signals then begin
        List.iter
          (fun s ->
            try
              Sys.set_signal s
                (Sys.Signal_handle (fun _ -> initiate_shutdown st))
            with Invalid_argument _ | Sys_error _ -> ())
          [ Sys.sigint; Sys.sigterm ];
        (* SIGQUIT: dump the flight recorder to stderr and keep serving
           — the operator's "what is this fleet doing right now" *)
        try
          Sys.set_signal Sys.sigquit
            (Sys.Signal_handle (fun _ -> prerr_endline (flight_json st)))
        with Invalid_argument _ | Sys_error _ -> ()
      end;
      (* The metrics listener binds inside the protected body (after the
         main socket, so a busy serve port can't leak it); every loop
         polls it, and the main thread closes it once they have joined. *)
      Option.iter
        (fun mp ->
          let ms = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          st.msock <- Some ms;
          Unix.setsockopt ms Unix.SO_REUSEADDR true;
          Unix.bind ms
            (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, mp));
          Unix.listen ms 16;
          Unix.set_nonblock ms)
        cfg.metrics_port;
      let metrics_port =
        Option.map
          (fun ms ->
            match Unix.getsockname ms with
            | Unix.ADDR_INET (_, p) -> p
            | _ -> assert false)
          st.msock
      in
      Option.iter on_metrics_listen metrics_port;
      (* Spawn the fleet: one domain per event loop. *)
      let loop_domains =
        Array.map (fun ls -> Domain.spawn (fun () -> loop_main st ls)) fleet
      in
      on_listen port;
      Obs.Log.info log "accepting connections"
        ~fields:
          [
            ("host", Obs.Log.S cfg.host);
            ("port", Obs.Log.I port);
            ("backend", Obs.Log.S (Eventloop.backend fleet.(0).ev));
            ("loops", Obs.Log.I n_loops);
            ("queue_depth", Obs.Log.I cfg.queue_depth);
            ("max_conns", Obs.Log.I cfg.max_conns);
            ( "learner",
              Obs.Log.S (Core.Learner.kind_to_string cfg.learner) );
            ( "metrics_port",
              match metrics_port with
              | Some p -> Obs.Log.I p
              | None -> Obs.Log.J "null" );
          ];
      (* The main thread is the dedicated acceptor until shutdown. *)
      acceptor st sock stop_r;
      (* Drain: stop accepting and wake every loop so each runs what it
         has parsed and drains its own connections. The loops keep
         answering the metrics port through the drain, so /healthz
         reports "draining" to probes. *)
      Obs.Log.info log "shutdown initiated: draining"
        ~fields:
          [
            ("inflight", Obs.Log.I (Atomic.get st.inflight_total));
            ("conns_open", Obs.Log.I (total_conns st));
          ];
      close_sock ();
      Array.iter (fun ls -> Eventloop.wake ls.ev) fleet;
      Array.iter Domain.join loop_domains;
      save_snapshot_or_warn st;
      Obs.Log.info log "server stopped"
        ~fields:
          [
            ("queries_total", Obs.Log.I (Metrics.queries_total metrics));
            ("climbs_total", Obs.Log.I (Metrics.climbs_total metrics));
          ])
