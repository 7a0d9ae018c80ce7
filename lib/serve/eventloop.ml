external epoll_available : unit -> bool = "strategem_epoll_available"
external epoll_create : unit -> Unix.file_descr = "strategem_epoll_create"

external epoll_ctl : Unix.file_descr -> int -> Unix.file_descr -> int -> unit
  = "strategem_epoll_ctl"

external epoll_wait :
  Unix.file_descr -> int -> int array -> int array -> int
  = "strategem_epoll_wait"

external eventfd_available : unit -> bool = "strategem_eventfd_available"
external eventfd_create : unit -> Unix.file_descr = "strategem_eventfd_create"

(* On Unix, Unix.file_descr is the raw fd int; we need the int to key
   the handler table (and the C stubs hand fds back as ints). *)
external fd_int : Unix.file_descr -> int = "%identity"

let max_events = 512

type entry = {
  fd : Unix.file_descr;
  callback : readable:bool -> writable:bool -> unit;
  mutable read : bool;
  mutable write : bool;
}

type backend = Epoll of Unix.file_descr | Select

type t = {
  backend : backend;
  handlers : (int, entry) Hashtbl.t;
  (* Wake channel: an eventfd where the platform has one (one fd per
     loop — halves the descriptor budget of a reactor fleet — and the
     kernel coalesces the counter for us), a pipe elsewhere. With an
     eventfd, [wake_r == wake_w]. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_is_eventfd : bool;
  wake_flag : bool Atomic.t;
  (* wake deliveries seen: written by the loop thread, read by any *)
  wakeups : int Atomic.t;
  mutable hook : unit -> unit;
  out_fds : int array;
  out_evs : int array;
  drain_buf : Bytes.t;
}

let flags_of ~read ~write = (if read then 1 else 0) lor (if write then 2 else 0)

let create () =
  let backend = if epoll_available () then Epoll (epoll_create ()) else Select in
  let wake_r, wake_w, wake_is_eventfd =
    if eventfd_available () then
      let efd = eventfd_create () in
      (efd, efd, true)
    else begin
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      (r, w, false)
    end
  in
  (match backend with
  | Epoll ep -> epoll_ctl ep 0 wake_r 1
  | Select -> ());
  {
    backend;
    handlers = Hashtbl.create 64;
    wake_r;
    wake_w;
    wake_is_eventfd;
    wake_flag = Atomic.make false;
    wakeups = Atomic.make 0;
    hook = (fun () -> ());
    out_fds = Array.make max_events 0;
    out_evs = Array.make max_events 0;
    drain_buf = Bytes.create 256;
  }

let backend t =
  match t.backend with Epoll _ -> "epoll" | Select -> "select"

let add t fd ~read ~write callback =
  Hashtbl.replace t.handlers (fd_int fd) { fd; callback; read; write };
  match t.backend with
  | Epoll ep -> epoll_ctl ep 0 fd (flags_of ~read ~write)
  | Select -> ()

let modify t fd ~read ~write =
  match Hashtbl.find_opt t.handlers (fd_int fd) with
  | None -> ()
  | Some e when e.read = read && e.write = write -> ()
  | Some e ->
    e.read <- read;
    e.write <- write;
    (match t.backend with
    | Epoll ep -> epoll_ctl ep 1 fd (flags_of ~read ~write)
    | Select -> ())

let remove t fd =
  let key = fd_int fd in
  if Hashtbl.mem t.handlers key then begin
    Hashtbl.remove t.handlers key;
    match t.backend with
    | Epoll ep -> ( try epoll_ctl ep 2 fd 0 with Failure _ -> ())
    | Select -> ()
  end

(* An eventfd wants an 8-byte counter increment; a pipe any byte. Both
   payloads are constant, so neither write allocates. *)
let eventfd_one =
  let b = Bytes.make 8 '\000' in
  Bytes.set b 0 '\001';
  (* eventfd counters are host-endian u64; value 1 on a big-endian host
     puts the 1 in the last byte instead *)
  if Sys.big_endian then begin
    Bytes.set b 0 '\000';
    Bytes.set b 7 '\001'
  end;
  b

let pipe_one = Bytes.make 1 '!'

let wake t =
  if not (Atomic.exchange t.wake_flag true) then
    let buf = if t.wake_is_eventfd then eventfd_one else pipe_one in
    try ignore (Unix.write t.wake_w buf 0 (Bytes.length buf)) with
    | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

(* Drain the pipe BEFORE resetting the flag. The reverse order loses
   wakeups: a byte written by a concurrent {!wake} (which saw the flag
   already reset) can be consumed by this very drain, leaving the flag
   true with an empty pipe — after which every {!wake} skips its write
   and the loop sleeps a full timeout. With this order, a skipped write
   (flag true) implies either a byte still in the pipe or a flag reset
   — and therefore a hook run — still ahead in this iteration; both
   deliver the wakeup. *)
let drain_wake t =
  Atomic.incr t.wakeups;
  (if t.wake_is_eventfd then
     (* one read returns and resets the whole counter *)
     match Unix.read t.wake_r t.drain_buf 0 8 with
     | _ -> ()
     | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
   else
     let rec go () =
       match Unix.read t.wake_r t.drain_buf 0 (Bytes.length t.drain_buf) with
       | n when n = Bytes.length t.drain_buf -> go ()
       | _ -> ()
       | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
     in
     go ());
  Atomic.set t.wake_flag false

let wakeups t = Atomic.get t.wakeups

let dispatch t fd bits =
  if fd = fd_int t.wake_r then drain_wake t
  else
    (* Re-check membership per event: an earlier callback in this batch
       may have closed this connection. *)
    match Hashtbl.find t.handlers fd with
    | exception Not_found -> ()
    | e -> e.callback ~readable:(bits land 1 <> 0) ~writable:(bits land 2 <> 0)

let iterate_epoll t ep ~timeout_ms =
  let n = epoll_wait ep timeout_ms t.out_fds t.out_evs in
  for i = 0 to n - 1 do
    dispatch t t.out_fds.(i) t.out_evs.(i)
  done

let iterate_select t ~timeout_ms =
  let rd = ref [ t.wake_r ] and wr = ref [] in
  Hashtbl.iter
    (fun _ e ->
      if e.read then rd := e.fd :: !rd;
      if e.write then wr := e.fd :: !wr)
    t.handlers;
  match Unix.select !rd !wr [] (float_of_int timeout_ms /. 1000.) with
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | ready_r, ready_w, _ ->
    let events = Hashtbl.create 16 in
    List.iter
      (fun fd ->
        Hashtbl.replace events (fd_int fd)
          (1 lor (try Hashtbl.find events (fd_int fd) with Not_found -> 0)))
      ready_r;
    List.iter
      (fun fd ->
        Hashtbl.replace events (fd_int fd)
          (2 lor (try Hashtbl.find events (fd_int fd) with Not_found -> 0)))
      ready_w;
    Hashtbl.iter (fun fd bits -> dispatch t fd bits) events

let iterate t ~timeout_ms =
  (match t.backend with
  | Epoll ep -> iterate_epoll t ep ~timeout_ms
  | Select -> iterate_select t ~timeout_ms);
  t.hook ()

let on_wake t f = t.hook <- f

let run t ~stop =
  while not (stop ()) do
    iterate t ~timeout_ms:250
  done

let close t =
  (match t.backend with
  | Epoll ep -> ( try Unix.close ep with Unix.Unix_error _ -> ())
  | Select -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  if not t.wake_is_eventfd then
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
