type backend = B_none | B_cache | B_exec | B_sld

type t = {
  lc_conn : int;
  lc_rid : int;
  lc_loop : int;
  lc_framed : bool;
  lc_req : Protocol.request;
  lc_accept_ns : int;
  lc_frame_ns : int;
  mutable lc_queue_ns : int;
  mutable lc_worker_ns : int;
  mutable lc_respond_ns : int;
  mutable lc_flush_ns : int;
  mutable lc_backend : backend;
  mutable lc_shed : bool;
  mutable lc_error : bool;
  mutable lc_wal_wait_ns : int;
  mutable lc_wal_syncs : int;
  mutable lc_page_wait_ns : int;
  mutable lc_page_reads : int;
  mutable lc_exec : Trace.span option;
}

(* Wall-clock nanoseconds as an immediate int: the clock {!Trace} spans
   and flight events use, so a grafted exec tree lines up with the
   stages, and no stamp is ever boxed. *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let create ~conn ~rid ~loop ~framed ~req ~accept_ns ~frame_ns =
  {
    lc_conn = conn;
    lc_rid = rid;
    lc_loop = loop;
    lc_framed = framed;
    lc_req = req;
    lc_accept_ns = accept_ns;
    lc_frame_ns = frame_ns;
    lc_queue_ns = 0;
    lc_worker_ns = 0;
    lc_respond_ns = 0;
    lc_flush_ns = 0;
    lc_backend = B_none;
    lc_shed = false;
    lc_error = false;
    lc_wal_wait_ns = 0;
    lc_wal_syncs = 0;
    lc_page_wait_ns = 0;
    lc_page_reads = 0;
    lc_exec = None;
  }

(* ---------- ambient record ---------- *)

let current_key : t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_current lc = Domain.DLS.set current_key lc
let current () = Domain.DLS.get current_key

let add_wal_wait lc ns =
  lc.lc_wal_wait_ns <- lc.lc_wal_wait_ns + ns;
  lc.lc_wal_syncs <- lc.lc_wal_syncs + 1

let add_page_wait lc ns =
  lc.lc_page_wait_ns <- lc.lc_page_wait_ns + ns;
  lc.lc_page_reads <- lc.lc_page_reads + 1

(* ---------- reads ---------- *)

let last_ns lc =
  Int.max lc.lc_flush_ns
    (Int.max lc.lc_respond_ns (Int.max lc.lc_worker_ns lc.lc_queue_ns))

let total_ns lc = Int.max 0 (last_ns lc - lc.lc_frame_ns)

(* Rendered only when a record is exported. *)
let label = function
  | Protocol.Query a -> "QUERY " ^ a
  | Protocol.Trace a -> "TRACE " ^ a
  | Protocol.Strategy a -> "STRATEGY " ^ a
  | Protocol.Hello | Protocol.Hello_v4 -> "HELLO"
  | Protocol.Stats -> "STATS"
  | Protocol.Stats_json -> "STATS JSON"
  | Protocol.Snapshot -> "SNAPSHOT"
  | Protocol.Ping -> "PING"
  | Protocol.Help -> "HELP"
  | Protocol.Flight -> "FLIGHT"
  | Protocol.Quit -> "QUIT"
  | Protocol.Shutdown -> "SHUTDOWN"
  | Protocol.Empty -> ""
  | Protocol.Malformed _ -> "(malformed)"
  | Protocol.Unknown v -> v

let backend_name = function
  | B_none -> "none"
  | B_cache -> "cache"
  | B_exec -> "exec"
  | B_sld -> "sld"

let backend_of (a : Core.Live.answer) =
  if a.Core.Live.cached then B_cache
  else if a.Core.Live.fallback then B_sld
  else B_exec

(* ---------- finalize ---------- *)

let flight_event flight lc code ts a b =
  if ts <> 0 then
    Obs.Flight.record flight ~ts_ns:ts ~code ~loop:lc.lc_loop ~conn:lc.lc_conn
      ~rid:lc.lc_rid ~a ~b

let observe_stage lh stage ~from ~till =
  if from <> 0 && till <> 0 then Metrics.observe_stage lh stage (till - from)

(* Every call takes immediate ints and preresolved handles: finalizing
   a record allocates nothing. *)
let finalize lc ~flight lh =
  let total = total_ns lc in
  flight_event flight lc Obs.Flight.code_request lc.lc_frame_ns 0 0;
  flight_event flight lc Obs.Flight.code_enqueue lc.lc_queue_ns 0 0;
  flight_event flight lc Obs.Flight.code_worker lc.lc_worker_ns
    lc.lc_wal_wait_ns lc.lc_page_wait_ns;
  if lc.lc_shed then
    flight_event flight lc Obs.Flight.code_shed lc.lc_respond_ns 0 0
  else
    flight_event flight lc Obs.Flight.code_respond lc.lc_respond_ns
      (if lc.lc_error then 1 else 0)
      0;
  flight_event flight lc Obs.Flight.code_flush lc.lc_flush_ns total 0;
  observe_stage lh Metrics.Frame ~from:lc.lc_frame_ns ~till:lc.lc_queue_ns;
  observe_stage lh Metrics.Queue ~from:lc.lc_queue_ns ~till:lc.lc_worker_ns;
  observe_stage lh Metrics.Worker ~from:lc.lc_worker_ns ~till:lc.lc_respond_ns;
  observe_stage lh Metrics.Flush ~from:lc.lc_respond_ns ~till:lc.lc_flush_ns;
  Metrics.observe_stage lh Metrics.Total total;
  if lc.lc_wal_syncs > 0 then
    Metrics.observe_stage lh Metrics.Wal_fsync lc.lc_wal_wait_ns;
  if lc.lc_page_reads > 0 then
    Metrics.observe_stage lh Metrics.Page_read lc.lc_page_wait_ns

(* ---------- span-tree export ---------- *)

let to_span lc =
  let loop_attr = ("loop", string_of_int lc.lc_loop) in
  let stage ?(children = []) ~kind ~from ~till () =
    if from = 0 then None
    else
      let wall = if till = 0 then 0 else Int.max 0 (till - from) in
      Some
        (Trace.span ~kind ~start_ns:(Int64.of_int from)
           ~wall_ns:(Int64.of_int wall) ~attrs:[ loop_attr ] ~children kind)
  in
  let backend_children =
    let wait ~kind ~ns ~count =
      if count = 0 then None
      else
        Some
          (Trace.span ~kind ~start_ns:(Int64.of_int lc.lc_worker_ns)
             ~wall_ns:(Int64.of_int ns)
             ~attrs:[ loop_attr; ("count", string_of_int count) ]
             kind)
    in
    List.filter_map Fun.id
      [
        wait ~kind:"wal_fsync" ~ns:lc.lc_wal_wait_ns ~count:lc.lc_wal_syncs;
        wait ~kind:"page_read" ~ns:lc.lc_page_wait_ns ~count:lc.lc_page_reads;
      ]
  in
  let worker_children =
    let backend =
      match lc.lc_backend with
      | B_none -> backend_children
      | (B_cache | B_exec | B_sld) as b ->
        [
          Trace.span ~kind:(backend_name b)
            ~start_ns:(Int64.of_int lc.lc_worker_ns)
            ~wall_ns:
              (Int64.of_int
                 (if lc.lc_respond_ns = 0 then 0
                  else Int.max 0 (lc.lc_respond_ns - lc.lc_worker_ns)))
            ~attrs:[ loop_attr ] ~children:backend_children (backend_name b);
        ]
    in
    backend @ Option.to_list lc.lc_exec
  in
  let children =
    List.filter_map Fun.id
      [
        stage ~kind:"accept" ~from:lc.lc_accept_ns ~till:lc.lc_accept_ns ();
        stage ~kind:"frame" ~from:lc.lc_frame_ns ~till:lc.lc_queue_ns ();
        stage ~kind:"queue" ~from:lc.lc_queue_ns ~till:lc.lc_worker_ns ();
        stage ~children:worker_children ~kind:"worker" ~from:lc.lc_worker_ns
          ~till:lc.lc_respond_ns ();
        stage ~kind:"flush" ~from:lc.lc_respond_ns ~till:lc.lc_flush_ns ();
      ]
  in
  let flag b = if b then "true" else "false" in
  Trace.span ~kind:"request" ~start_ns:(Int64.of_int lc.lc_frame_ns)
    ~wall_ns:(Int64.of_int (total_ns lc))
    ~attrs:
      [
        loop_attr;
        ("conn", string_of_int lc.lc_conn);
        ("rid", string_of_int lc.lc_rid);
        ("proto", if lc.lc_framed then "v4" else "line");
        ("backend", backend_name lc.lc_backend);
        ("shed", flag lc.lc_shed);
        ("error", flag lc.lc_error);
      ]
    ~children (label lc.lc_req)
