(* Per-loop flight recorder: single-writer binary ring, torn-read-safe
   concurrent snapshots. See the .mli for the record layout. *)

let record_size = 48

type t = {
  buf : Bytes.t;          (* capacity * record_size, single writer *)
  mask : int;             (* capacity - 1 (capacity is a power of two) *)
  published : int Atomic.t;  (* records fully written *)
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ~capacity =
  if capacity <= 0 then
    { buf = Bytes.create 0; mask = -1; published = Atomic.make 0 }
  else
    let cap = pow2 capacity 1 in
    { buf = Bytes.create (cap * record_size); mask = cap - 1;
      published = Atomic.make 0 }

let enabled t = t.mask >= 0
let capacity t = if t.mask < 0 then 0 else t.mask + 1
let seq t = Atomic.get t.published

let record t ~ts_ns ~code ~loop ~conn ~rid ~a ~b =
  if t.mask >= 0 then begin
    let s = Atomic.get t.published in
    let off = (s land t.mask) * record_size in
    (* Payload first, the slot's seq stamp second, the publish last: a
       concurrent reader that copies this slot mid-write sees a stale
       stamp and drops it. *)
    Bytes.set_int64_le t.buf (off + 8) (Int64.of_int ts_ns);
    Bytes.set_uint16_le t.buf (off + 16) (code land 0xFFFF);
    Bytes.set_uint16_le t.buf (off + 18) (loop land 0xFFFF);
    Bytes.set_int32_le t.buf (off + 20) (Int32.of_int conn);
    Bytes.set_int32_le t.buf (off + 24) (Int32.of_int rid);
    Bytes.set_int32_le t.buf (off + 28) 0l;
    Bytes.set_int64_le t.buf (off + 32) (Int64.of_int a);
    Bytes.set_int64_le t.buf (off + 40) (Int64.of_int b);
    Bytes.set_int64_le t.buf off (Int64.of_int s);
    Atomic.set t.published (s + 1)
  end

type event = {
  ev_seq : int;
  ev_ts_ns : int64;
  ev_code : int;
  ev_loop : int;
  ev_conn : int;
  ev_rid : int;
  ev_a : int64;
  ev_b : int64;
}

let u32 i32 = Int32.to_int i32 land 0xFFFFFFFF

let snapshot t =
  if t.mask < 0 then []
  else begin
    let cap = t.mask + 1 in
    let hi = Atomic.get t.published in
    let lo = max 0 (hi - cap) in
    let copy = Bytes.create record_size in
    let out = ref [] in
    for s = hi - 1 downto lo do
      let off = (s land t.mask) * record_size in
      Bytes.blit t.buf off copy 0 record_size;
      (* Validate the stamp after the copy: a mismatch means the writer
         lapped us into this slot mid-blit. *)
      if Bytes.get_int64_le copy 0 = Int64.of_int s then
        out :=
          {
            ev_seq = s;
            ev_ts_ns = Bytes.get_int64_le copy 8;
            ev_code = Bytes.get_uint16_le copy 16;
            ev_loop = Bytes.get_uint16_le copy 18;
            ev_conn = u32 (Bytes.get_int32_le copy 20);
            ev_rid = u32 (Bytes.get_int32_le copy 24);
            ev_a = Bytes.get_int64_le copy 32;
            ev_b = Bytes.get_int64_le copy 40;
          }
          :: !out
    done;
    !out
  end

(* ---------- event codes ---------- *)

let code_accept = 1
let code_close = 2
let code_shed = 3
let code_request = 4
let code_enqueue = 5
let code_worker = 6
let code_respond = 7
let code_flush = 8

let code_name = function
  | 1 -> "accept"
  | 2 -> "close"
  | 3 -> "shed"
  | 4 -> "request"
  | 5 -> "enqueue"
  | 6 -> "worker"
  | 7 -> "respond"
  | 8 -> "flush"
  | c -> Printf.sprintf "code%d" c

let event_to_json e =
  Printf.sprintf
    "{\"seq\":%d,\"ts_ns\":%Ld,\"code\":\"%s\",\"loop\":%d,\"conn\":%d,\
     \"rid\":%d,\"a\":%Ld,\"b\":%Ld}"
    e.ev_seq e.ev_ts_ns (code_name e.ev_code) e.ev_loop e.ev_conn e.ev_rid
    e.ev_a e.ev_b
