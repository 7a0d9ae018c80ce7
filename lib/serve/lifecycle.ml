type backend = B_none | B_cache | B_exec | B_sld

type t = {
  lc_conn : int;
  lc_rid : int;
  lc_loop : int;
  lc_framed : bool;
  lc_label : string;
  lc_accept_ns : int64;
  lc_frame_ns : int64;
  mutable lc_queue_ns : int64;
  mutable lc_worker_ns : int64;
  mutable lc_respond_ns : int64;
  mutable lc_flush_ns : int64;
  mutable lc_backend : backend;
  mutable lc_shed : bool;
  mutable lc_error : bool;
  mutable lc_wal_wait_ns : int;
  mutable lc_wal_syncs : int;
  mutable lc_page_wait_ns : int;
  mutable lc_page_reads : int;
  mutable lc_exec : Trace.span option;
}

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let create ~conn ~rid ~loop ~framed ~label ~accept_ns ~frame_ns =
  {
    lc_conn = conn;
    lc_rid = rid;
    lc_loop = loop;
    lc_framed = framed;
    lc_label = label;
    lc_accept_ns = accept_ns;
    lc_frame_ns = frame_ns;
    lc_queue_ns = 0L;
    lc_worker_ns = 0L;
    lc_respond_ns = 0L;
    lc_flush_ns = 0L;
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
  let m a b = if Int64.compare a b > 0 then a else b in
  m lc.lc_flush_ns
    (m lc.lc_respond_ns (m lc.lc_worker_ns lc.lc_queue_ns))

let total_ns lc = Int64.max 0L (Int64.sub (last_ns lc) lc.lc_frame_ns)

let backend_name = function
  | B_none -> "none"
  | B_cache -> "cache"
  | B_exec -> "exec"
  | B_sld -> "sld"

let backend_of (a : Core.Live.answer) =
  if a.Core.Live.cached then B_cache
  else if a.Core.Live.fallback then B_sld
  else B_exec

(* ---------- span-tree export ---------- *)

let to_span lc =
  let loop_attr = ("loop", string_of_int lc.lc_loop) in
  let stage ?(children = []) ~kind ~from ~till () =
    if Int64.equal from 0L then None
    else
      let wall =
        if Int64.equal till 0L then 0L else Int64.max 0L (Int64.sub till from)
      in
      Some
        (Trace.span ~kind ~start_ns:from ~wall_ns:wall ~attrs:[ loop_attr ]
           ~children kind)
  in
  let backend_children =
    let wait ~kind ~ns ~count =
      if count = 0 then None
      else
        Some
          (Trace.span ~kind ~start_ns:lc.lc_worker_ns
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
          Trace.span ~kind:(backend_name b) ~start_ns:lc.lc_worker_ns
            ~wall_ns:
              (if Int64.equal lc.lc_respond_ns 0L then 0L
               else Int64.max 0L (Int64.sub lc.lc_respond_ns lc.lc_worker_ns))
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
  Trace.span ~kind:"request" ~start_ns:lc.lc_frame_ns ~wall_ns:(total_ns lc)
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
    ~children lc.lc_label
