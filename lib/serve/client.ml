type proto = [ `Auto | `Lines | `V4 ]

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable proto : [ `Lines | `V4 ];
  mutable seq : int;  (* next v4 request id *)
  (* v4 responses read while waiting for a specific id *)
  stash : (int, Frame.t) Hashtbl.t;
}

let banner_v4_prefix = Printf.sprintf "HELLO strategem/%d" Frame.version

let connect ?(proto = `Auto) ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with
  | () -> ()
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e);
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  let t =
    {
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      proto = `Lines;
      seq = 1;
      stash = Hashtbl.create 8;
    }
  in
  (match proto with
  | `Lines -> ()
  | `V4 -> t.proto <- `V4
  | `Auto -> (
    (* The upgrade line: a v4-capable server replies with its framed
       banner and switches the connection to frames; an older server
       rejects the argument with ERR and stays on lines. Either way
       exactly one reply line is consumed here. *)
    output_string t.oc "HELLO V4\n";
    flush t.oc;
    match input_line t.ic with
    | line when String.starts_with ~prefix:banner_v4_prefix line ->
      t.proto <- `V4
    | _ -> ()
    | exception End_of_file ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      failwith "Client.connect: server closed during HELLO V4 handshake"));
  t

let protocol t = t.proto

let lines_of_frame (f : Frame.t) =
  match f.Frame.kind with
  | Frame.Ok -> String.split_on_char '\n' f.Frame.payload
  | Frame.Err -> [ "ERR " ^ f.Frame.payload ]
  | Frame.Busy -> [ Protocol.busy ]
  | Frame.Bye -> [ Protocol.bye ]
  | k -> [ "ERR internal unexpected frame kind " ^ Frame.kind_name k ]

let frame_of_request ~id req =
  let f kind payload = Some { Frame.id; kind; payload } in
  match req with
  | Protocol.Hello | Protocol.Hello_v4 -> f Frame.Hello ""
  | Protocol.Query a -> f Frame.Query a
  | Protocol.Trace a -> f Frame.Trace a
  | Protocol.Strategy a -> f Frame.Strategy a
  | Protocol.Stats -> f Frame.Stats ""
  | Protocol.Stats_json -> f Frame.Stats_json ""
  | Protocol.Snapshot -> f Frame.Snapshot ""
  | Protocol.Ping -> f Frame.Ping ""
  | Protocol.Help -> f Frame.Help ""
  | Protocol.Flight -> f Frame.Flight ""
  | Protocol.Quit -> f Frame.Quit ""
  | Protocol.Shutdown -> f Frame.Shutdown ""
  | Protocol.Empty | Protocol.Malformed _ | Protocol.Unknown _ -> None

(* The verbs whose line-dialect reply is lines-until-END. *)
let multi_line = function
  | Protocol.Stats | Protocol.Help -> true
  | _ -> false

let read_until_end ic =
  let rec go acc =
    let line = input_line ic in
    if line = Protocol.terminator then List.rev acc else go (line :: acc)
  in
  go []

(* Buffer one request frame with a fresh id; the caller flushes. *)
let enqueue t ~fn line =
  if t.proto <> `V4 then
    invalid_arg (fn ^ ": pipelining needs a v4 connection");
  let req = Protocol.parse line in
  match frame_of_request ~id:t.seq req with
  | None -> invalid_arg (fn ^ ": cannot frame request: " ^ line)
  | Some f ->
    t.seq <- t.seq + 1;
    output_string t.oc (Frame.encode_string f);
    f.Frame.id

let post t line =
  let id = enqueue t ~fn:"Client.post" line in
  flush t.oc;
  id

let post_batch t lines =
  let ids = List.map (enqueue t ~fn:"Client.post_batch") lines in
  flush t.oc;
  ids

let recv t =
  if t.proto <> `V4 then
    invalid_arg "Client.recv: pipelining needs a v4 connection";
  match Hashtbl.length t.stash with
  | 0 ->
    let f = Frame.read t.ic in
    (f.Frame.id, lines_of_frame f)
  | _ ->
    let found = ref None in
    (try
       Hashtbl.iter
         (fun id f ->
           found := Some (id, f);
           raise Exit)
         t.stash
     with Exit -> ());
    let id, f = Option.get !found in
    Hashtbl.remove t.stash id;
    (id, lines_of_frame f)

let recv_id t wanted =
  match Hashtbl.find_opt t.stash wanted with
  | Some f ->
    Hashtbl.remove t.stash wanted;
    lines_of_frame f
  | None ->
    let rec go () =
      let f = Frame.read t.ic in
      if f.Frame.id = wanted then lines_of_frame f
      else begin
        Hashtbl.replace t.stash f.Frame.id f;
        go ()
      end
    in
    go ()

let command t line =
  let req = Protocol.parse line in
  match t.proto with
  | `V4 -> (
    match req with
    | Protocol.Empty -> []
    (* requests the framed dialect cannot carry get the error reply the
       server's line dialect would give, without touching the wire *)
    | Protocol.Malformed msg -> [ Protocol.err ~code:`Malformed msg ]
    | Protocol.Unknown verb -> [ Protocol.err ~code:`Unknown_verb verb ]
    | _ ->
      let id = post t line in
      recv_id t id)
  | `Lines -> (
    match req with
    | Protocol.Empty -> []
    | _ ->
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc;
      if multi_line req then read_until_end t.ic
      else [ input_line t.ic ])

let request t line = match command t line with [] -> "" | l :: _ -> l

let send_line t line =
  if t.proto <> `Lines then
    invalid_arg "Client.send_line: raw passthrough is line-dialect only";
  output_string t.oc line;
  output_char t.oc '\n'

let half_close t =
  flush t.oc;
  try Unix.shutdown t.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let drain t f =
  try
    while true do
      f (input_line t.ic)
    done
  with End_of_file -> ()

let close t = close_in_noerr t.ic
