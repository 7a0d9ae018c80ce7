(* Leveled structured logging: one JSON object per line, written under a
   mutex so concurrent worker threads never interleave records. Each
   record carries a wall-clock ISO 8601 timestamp and a monotonic-ish
   nanosecond offset from logger creation (gettimeofday-based — the
   toolchain has no monotonic clock library; good enough for ordering
   and latency arithmetic within one process run). *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type field =
  | S of string
  | I of int
  | F of float
  | B of bool
  | J of string  (* pre-rendered JSON, embedded verbatim *)

type sink = Null | Channel of { oc : out_channel; close_on_close : bool }

type t = {
  (* Atomic: [enabled] reads it on every log call from any worker
     domain, racing a possible [set_level]. *)
  min_level : level Atomic.t;
  sink : sink;
  lock : Mutex.t;
  t0 : float;  (* gettimeofday at creation; origin for mono_ns *)
}

let null =
  { min_level = Atomic.make Error; sink = Null; lock = Mutex.create (); t0 = 0.0 }

let to_channel ?(level = Info) oc =
  {
    min_level = Atomic.make level;
    sink = Channel { oc; close_on_close = false };
    lock = Mutex.create ();
    t0 = Unix.gettimeofday ();
  }

let open_file ?(level = Info) path =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  {
    min_level = Atomic.make level;
    sink = Channel { oc; close_on_close = true };
    lock = Mutex.create ();
    t0 = Unix.gettimeofday ();
  }

let set_level t l = Atomic.set t.min_level l
let level t = Atomic.get t.min_level

let enabled t l =
  match t.sink with
  | Null -> false
  | Channel _ -> level_rank l >= level_rank (Atomic.get t.min_level)

let json_float v =
  if Float.is_nan v || Float.is_integer v |> not then
    if Float.is_nan v || Float.abs v = Float.infinity then
      (* JSON has no Inf/NaN; encode as string *)
      Printf.sprintf "\"%s\"" (Expo.float_str v)
    else Printf.sprintf "%.6g" v
  else Printf.sprintf "%.0f" v

let field_json = function
  | S s -> Printf.sprintf "\"%s\"" (Trace.json_escape s)
  | I i -> string_of_int i
  | F v -> json_float v
  | B b -> if b then "true" else "false"
  | J raw -> raw

let iso8601 now =
  let tm = Unix.gmtime now in
  let ms = int_of_float (Float.rem now 1.0 *. 1000.0) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec ms

let log t lvl ?(fields = []) msg =
  if enabled t lvl then
    match t.sink with
    | Null -> ()
    | Channel { oc; _ } ->
      let now = Unix.gettimeofday () in
      let mono_ns = Int64.of_float ((now -. t.t0) *. 1e9) in
      let buf = Buffer.create 160 in
      Printf.bprintf buf "{\"ts\":\"%s\",\"mono_ns\":%Ld,\"level\":\"%s\",\"msg\":\"%s\""
        (iso8601 now) mono_ns (level_to_string lvl) (Trace.json_escape msg);
      List.iter
        (fun (k, v) ->
          Printf.bprintf buf ",\"%s\":%s" (Trace.json_escape k) (field_json v))
        fields;
      Buffer.add_string buf "}\n";
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () ->
          output_string oc (Buffer.contents buf);
          flush oc)

let debug t ?fields msg = log t Debug ?fields msg
let info t ?fields msg = log t Info ?fields msg
let warn t ?fields msg = log t Warn ?fields msg
let error t ?fields msg = log t Error ?fields msg

let close t =
  match t.sink with
  | Null -> ()
  | Channel { oc; close_on_close } ->
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        flush oc;
        if close_on_close then close_out_noerr oc)

(* ---------- rate limiting (the slow-query log) ---------- *)

module Limiter = struct
  type nonrec t = {
    min_interval_s : float;
    lock : Mutex.t;
    mutable last_admit : float;  (* -inf before the first admit *)
    mutable suppressed : int;
  }

  let create ~min_interval_s =
    {
      min_interval_s;
      lock = Mutex.create ();
      last_admit = Float.neg_infinity;
      suppressed = 0;
    }

  (* [Some n] admits the event (n = events suppressed since the last
     admitted one); [None] suppresses it. *)
  let admit t ~now =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        if now -. t.last_admit >= t.min_interval_s then begin
          let n = t.suppressed in
          t.suppressed <- 0;
          t.last_admit <- now;
          Some n
        end
        else begin
          t.suppressed <- t.suppressed + 1;
          None
        end)
end

(* ---------- bridge for the [logs] library ---------- *)

(* lib/core's PIB/PALO modules log through [Logs] sources
   ("strategem.pib", "strategem.palo"); forward those records into the
   structured stream so `--log-level debug` shows learner internals as
   JSONL like everything else. *)
let logs_reporter t =
  let report src lvl ~over k msgf =
    let level =
      match lvl with
      | Logs.App | Logs.Info -> Info
      | Logs.Error -> Error
      | Logs.Warning -> Warn
      | Logs.Debug -> Debug
    in
    if not (enabled t level) then begin
      over ();
      k ()
    end
    else
      msgf @@ fun ?header ?tags:_ fmt ->
      Format.kasprintf
        (fun msg ->
          let fields =
            ("src", S (Logs.Src.name src))
            ::
            (match header with None -> [] | Some h -> [ ("header", S h) ])
          in
          log t level ~fields msg;
          over ();
          k ())
        fmt
  in
  { Logs.report }

let install_logs_reporter t =
  Logs.set_reporter (logs_reporter t);
  Logs.set_level ~all:true
    (Some
       (match Atomic.get t.min_level with
       | Debug -> Logs.Debug
       | Info -> Logs.Info
       | Warn -> Logs.Warning
       | Error -> Logs.Error))
