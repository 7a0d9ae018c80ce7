type mode = Sniff | Lines | Frames | Http

type incoming =
  | Line_req of Protocol.request
  | Frame_req of Frame.t
  | Upgrade
  | Junk of string
  | Http_req of string

type read_status = Continue | Eof | Rerror of string

let initial_buf = 4096
let max_line = 1 lsl 20
let max_rbuf = Frame.header_size + Frame.max_payload
let max_http_head = 8192
let default_max_output = 64 * 1024 * 1024

(* Write-buffer budget, shared by every connection of a server: a
   per-connection cap plus a global cap over the sum of all buffered
   response bytes ([global_bytes] is the shared accounting cell, atomic
   because every loop's connections draw on it). Either cap at 0 means
   unlimited. *)
type limits = {
  max_buf : int;
  global_max : int;
  global_bytes : int Atomic.t;
}

let limits ?(max_buf = default_max_output) ?(global_max = 0) () =
  { max_buf; global_max; global_bytes = Atomic.make 0 }

(* Every field is owned by the connection's event loop: only that
   loop's thread reads or writes it. *)
type t = {
  fd : Unix.file_descr;
  id : int;
  peer : string;
  ip : string;  (* peer address without the port, for per-IP caps *)
  limits : limits;
  mutable mode : mode;
  (* read side: [rpos, rend) is the unparsed span *)
  mutable rbuf : Bytes.t;
  mutable rpos : int;
  mutable rend : int;
  mutable read_closed : bool;
  pending : Protocol.request Queue.t;
  (* write side: [opos, oend) is the unwritten span *)
  mutable obuf : Bytes.t;
  mutable opos : int;
  mutable oend : int;
  mutable closing : bool;
  mutable dead : bool;
  (* a send ran into a write cap: buffered output was shed, a BUSY went
     in its place, and the loop must disconnect after one flush try *)
  mutable overflowed : bool;
  mutable shed_bytes : int;  (* bytes dropped by the overflow *)
  (* bytes of [opos, oend) counted in [limits.global_bytes]; equal to
     the buffered span except for the tiny unaccounted BUSY notice, and
     0 when the global cap is off *)
  mutable accounted : int;
  mutable inflight : int;
  mutable hwm : int;
  mutable rseq : int;
  mutable last_active : float;  (* for idle timeouts *)
  accept_ns : int;  (* accept wall clock, for lifecycle accept spans *)
  (* monotonic byte marks: a sender records the enqueued total right
     after its append ({!send_mark}) and the loop compares it against
     the flushed total to learn when that response has fully drained to
     the socket *)
  mutable enq_bytes : int;
  mutable flushed_bytes : int;
}

let create ?(accept_ns = 0) ?(http = false) ~id ~peer ~ip ~limits fd =
  {
    fd;
    id;
    peer;
    ip;
    limits;
    mode = (if http then Http else Sniff);
    rbuf = Bytes.create initial_buf;
    rpos = 0;
    rend = 0;
    read_closed = false;
    pending = Queue.create ();
    obuf = Bytes.create initial_buf;
    opos = 0;
    oend = 0;
    closing = false;
    dead = false;
    overflowed = false;
    shed_bytes = 0;
    accounted = 0;
    inflight = 0;
    hwm = 0;
    rseq = 0;
    last_active = 0.0;
    accept_ns;
    enq_bytes = 0;
    flushed_bytes = 0;
  }

let fd t = t.fd
let id t = t.id
let accept_ns t = t.accept_ns
let peer t = t.peer
let ip t = t.ip
let touch t ~now = t.last_active <- now
let last_active t = t.last_active
let framed t = t.mode = Frames
let http t = t.mode = Http
let read_closed t = t.read_closed
let set_read_closed t = t.read_closed <- true
let closing t = t.closing
(* A closing connection runs nothing more. Line requests left pending
   behind a QUIT would otherwise keep it from ever going idle, so it
   would never close and shutdown would never drain. *)
let set_closing t =
  t.closing <- true;
  Queue.clear t.pending
let dead t = t.dead

(* Release [n] of this connection's globally accounted bytes. *)
let release_global t n =
  let n = Int.min n t.accounted in
  if n > 0 then begin
    t.accounted <- t.accounted - n;
    ignore (Atomic.fetch_and_add t.limits.global_bytes (-n))
  end

let kill t =
  t.dead <- true;
  release_global t t.accounted;
  t.opos <- 0;
  t.oend <- 0

let push_pending t r = Queue.push r t.pending
let pop_pending t = Queue.take_opt t.pending
let pending_count t = Queue.length t.pending

let incr_inflight t =
  t.inflight <- t.inflight + 1;
  if t.inflight > t.hwm then t.hwm <- t.inflight

let decr_inflight t = t.inflight <- t.inflight - 1
let inflight t = t.inflight
let pipeline_hwm t = t.hwm

let next_rid t =
  t.rseq <- t.rseq + 1;
  t.rseq

(* --- read side --- *)

let compact t =
  if t.rpos > 0 then begin
    Bytes.blit t.rbuf t.rpos t.rbuf 0 (t.rend - t.rpos);
    t.rend <- t.rend - t.rpos;
    t.rpos <- 0
  end

(* Make room for at least one more byte; false only when a single
   message already fills the whole capped buffer (the parse-side guards
   fire first in practice). *)
let ensure_read_space t =
  if t.rend < Bytes.length t.rbuf then true
  else begin
    compact t;
    if t.rend < Bytes.length t.rbuf then true
    else if Bytes.length t.rbuf >= max_rbuf then false
    else begin
      let bigger = Bytes.create (min max_rbuf (2 * Bytes.length t.rbuf)) in
      Bytes.blit t.rbuf 0 bigger 0 t.rend;
      t.rbuf <- bigger;
      true
    end
  end

let find_nl b pos limit =
  match Bytes.index_from_opt b pos '\n' with
  | Some i when i < limit -> Some i
  | _ -> None

let stopped t = t.closing || t.dead

(* Emit an HTTP connection's request line (up to the first CR) and
   consume the whole head. *)
let emit_http t ~emit =
  let line_end =
    match Bytes.index_from_opt t.rbuf t.rpos '\r' with
    | Some i when i < t.rend -> i
    | _ -> t.rend
  in
  let line = Bytes.sub_string t.rbuf t.rpos (line_end - t.rpos) in
  t.rpos <- t.rend;
  emit (Http_req line)

let rec parse_all t ~emit =
  if not (stopped t) then
    match t.mode with
    | Sniff ->
      if t.rend > t.rpos then begin
        t.mode <-
          (if Bytes.get t.rbuf t.rpos = Frame.magic then Frames else Lines);
        parse_all t ~emit
      end
    | Lines -> parse_lines t ~emit
    | Frames -> parse_frames t ~emit
    | Http -> parse_http t ~emit

and parse_lines t ~emit =
  match find_nl t.rbuf t.rpos t.rend with
  | Some nl -> (
    let req = Protocol.parse_sub t.rbuf ~pos:t.rpos ~len:(nl - t.rpos) in
    t.rpos <- nl + 1;
    match req with
    | Protocol.Hello_v4 ->
      (* the rest of the buffer — bytes that arrived with the upgrade
         line — already speaks frames *)
      t.mode <- Frames;
      emit Upgrade;
      parse_all t ~emit
    | r ->
      emit (Line_req r);
      if not (stopped t) then parse_lines t ~emit)
  | None ->
    if t.rend - t.rpos > max_line then
      emit (Junk "line exceeds the 1 MiB limit")

and parse_frames t ~emit =
  match Frame.decode t.rbuf ~pos:t.rpos ~limit:t.rend with
  | Frame.Frame (f, consumed) ->
    t.rpos <- t.rpos + consumed;
    emit (Frame_req f);
    if not (stopped t) then parse_frames t ~emit
  | Frame.Need_more _ -> ()
  | Frame.Corrupt msg -> emit (Junk msg)

(* One HTTP request per connection: wait for the end of the head
   (CRLFCRLF) and emit its request line; headers are ignored. A head
   past 8 KiB with no end in sight is closed without a reply. *)
and parse_http t ~emit =
  let b = t.rbuf in
  let rec has_end i =
    i + 3 < t.rend
    && ((Bytes.get b i = '\r' && Bytes.get b (i + 1) = '\n'
        && Bytes.get b (i + 2) = '\r' && Bytes.get b (i + 3) = '\n')
       || has_end (i + 1))
  in
  if has_end t.rpos then emit_http t ~emit
  else if t.rend - t.rpos > max_http_head then kill t

let on_readable t ~emit =
  if not (ensure_read_space t) then begin
    emit (Junk "read buffer overflow");
    Continue
  end
  else
    match
      Unix.read t.fd t.rbuf t.rend (Bytes.length t.rbuf - t.rend)
    with
    | 0 -> Eof
    | n ->
      t.rend <- t.rend + n;
      parse_all t ~emit;
      Continue
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      Continue
    | exception Unix.Unix_error (e, _, _) -> Rerror (Unix.error_message e)

let finish_read t ~emit =
  if t.rend > t.rpos && not (stopped t) then
    match t.mode with
    | Frames -> () (* partial frame torn by EOF: nothing to honor *)
    | Http -> emit_http t ~emit (* a head cut short by EOF still counts *)
    | Sniff when Bytes.get t.rbuf t.rpos = Frame.magic -> ()
    | Sniff | Lines -> (
      let req = Protocol.parse_sub t.rbuf ~pos:t.rpos ~len:(t.rend - t.rpos) in
      t.rpos <- t.rend;
      match req with
      | Protocol.Hello_v4 ->
        t.mode <- Frames;
        emit Upgrade
      | r -> emit (Line_req r))

(* --- write side --- *)

let ensure_write_space t len =
  let used = t.oend - t.opos in
  if t.oend + len > Bytes.length t.obuf then begin
    if t.opos > 0 then begin
      Bytes.blit t.obuf t.opos t.obuf 0 used;
      t.opos <- 0;
      t.oend <- used
    end;
    if t.oend + len > Bytes.length t.obuf then begin
      let cap = ref (Bytes.length t.obuf) in
      while !cap < t.oend + len do
        cap := 2 * !cap
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.obuf 0 bigger 0 t.oend;
      t.obuf <- bigger
    end
  end

(* The overflow notice is tiny and constant, so it is buffered outside
   the caps (and outside the global accounting — [shed] compensates by
   releasing the whole discarded span first). *)
let busy_bytes t =
  if t.mode = Frames then
    Frame.encode_string { Frame.id = 0; kind = Frame.Busy; payload = "" }
  else Protocol.busy ^ "\n"

(* Busy-then-disconnect: drop everything buffered for this slow reader,
   leave one BUSY in its place, and flag the connection for the loop to
   tear down after a single best-effort flush. *)
let shed t ~extra =
  let buffered = t.oend - t.opos in
  release_global t t.accounted;
  t.shed_bytes <- t.shed_bytes + buffered + extra;
  t.opos <- 0;
  t.oend <- 0;
  if Bytes.length t.obuf > initial_buf then t.obuf <- Bytes.create initial_buf;
  let notice = busy_bytes t in
  let len = String.length notice in
  ensure_write_space t len;
  Bytes.blit_string notice 0 t.obuf 0 len;
  t.oend <- len;
  t.overflowed <- true;
  t.closing <- true

let send_mark t s =
  (if not t.dead && not t.overflowed then
     let len = String.length s in
     let used = t.oend - t.opos in
     let { max_buf; global_max; global_bytes } = t.limits in
     if
       (max_buf > 0 && used + len > max_buf)
       || (global_max > 0 && Atomic.get global_bytes + len > global_max)
     then
       (* a consumer that never reads: shed rather than buffer without
          bound; the loop disconnects the fd when it next looks *)
       shed t ~extra:len
     else begin
       ensure_write_space t len;
       Bytes.blit_string s 0 t.obuf t.oend len;
       t.oend <- t.oend + len;
       t.enq_bytes <- t.enq_bytes + len;
       (* with the global cap off, nothing reads the shared cell *)
       if global_max > 0 then begin
         t.accounted <- t.accounted + len;
         ignore (Atomic.fetch_and_add global_bytes len)
       end
     end);
  t.enq_bytes

let send t s = ignore (send_mark t s)
let flushed_bytes t = t.flushed_bytes

let flush t =
  if t.dead then `Error
  else if t.opos >= t.oend then `Flushed
  else
    match Unix.write t.fd t.obuf t.opos (t.oend - t.opos) with
    | n ->
      t.opos <- t.opos + n;
      t.flushed_bytes <- t.flushed_bytes + n;
      release_global t n;
      if t.opos >= t.oend then begin
        t.opos <- 0;
        t.oend <- 0;
        (* a burst can balloon the buffer; give it back *)
        if Bytes.length t.obuf > 1 lsl 16 then
          t.obuf <- Bytes.create initial_buf;
        `Flushed
      end
      else `Partial
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      `Partial
    | exception Unix.Unix_error (_, _, _) ->
      t.dead <- true;
      release_global t t.accounted;
      `Error

let has_output t = t.opos < t.oend
let overflowed t = t.overflowed

let take_shed_bytes t =
  let r = t.shed_bytes in
  t.shed_bytes <- 0;
  r
