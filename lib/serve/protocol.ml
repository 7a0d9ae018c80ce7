type request =
  | Hello
  | Hello_v4
  | Query of string
  | Trace of string
  | Stats
  | Stats_json
  | Snapshot
  | Strategy of string
  | Ping
  | Help
  | Flight
  | Quit
  | Shutdown
  | Empty
  | Malformed of string
  | Unknown of string

let version = 3

(* The characters [String.trim] strips; the in-place parser must agree
   with it byte for byte so [parse] and [parse_sub] cannot drift. *)
let is_ws = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

(* Case-insensitive match of [b.[pos .. pos+len-1]] against the
   (uppercase) literal [s], without allocating the span. *)
let span_is b ~pos ~len s =
  String.length s = len
  &&
  let rec go k =
    k = len
    || Char.uppercase_ascii (Bytes.get b (pos + k)) = s.[k] && go (k + 1)
  in
  go 0

(* Total parser over a byte range: the verb is matched in place (no line
   or verb string is allocated on the happy path) and only the argument
   — when the verb takes one — is copied out. Semantically identical to
   trimming the line, splitting at the first ' ', and uppercasing the
   verb. *)
let parse_sub b ~pos ~len =
  let i = ref pos and j = ref (pos + len) in
  while !i < !j && is_ws (Bytes.get b !i) do incr i done;
  while !j > !i && is_ws (Bytes.get b (!j - 1)) do decr j done;
  if !i >= !j then Empty
  else begin
    let sp = ref !i in
    while !sp < !j && Bytes.get b !sp <> ' ' do incr sp done;
    let v0 = !i and v1 = !sp in
    let vlen = v1 - v0 in
    let a0 = ref v1 in
    while !a0 < !j && is_ws (Bytes.get b !a0) do incr a0 done;
    let alen = !j - !a0 in
    let arg () = Bytes.sub_string b !a0 alen in
    let verb s = span_is b ~pos:v0 ~len:vlen s in
    let no_arg req name =
      if alen = 0 then req else Malformed (name ^ " takes no argument")
    in
    if verb "QUERY" then
      if alen = 0 then Malformed "QUERY needs an atom" else Query (arg ())
    else if verb "TRACE" then
      if alen = 0 then Malformed "TRACE needs an atom" else Trace (arg ())
    else if verb "STRATEGY" then
      if alen = 0 then Malformed "STRATEGY needs an atom"
      else Strategy (arg ())
    else if verb "STATS" then
      if alen = 0 then Stats
      else if span_is b ~pos:!a0 ~len:alen "JSON" then Stats_json
      else Malformed "STATS takes no argument"
    else if verb "HELLO" then
      if alen = 0 then Hello
      else if span_is b ~pos:!a0 ~len:alen "V4" then Hello_v4
      else Malformed "HELLO takes no argument"
    else if verb "SNAPSHOT" then no_arg Snapshot "SNAPSHOT"
    else if verb "PING" then no_arg Ping "PING"
    else if verb "HELP" then no_arg Help "HELP"
    else if verb "FLIGHT" then no_arg Flight "FLIGHT"
    else if verb "QUIT" then no_arg Quit "QUIT"
    else if verb "SHUTDOWN" then no_arg Shutdown "SHUTDOWN"
    else Unknown (Bytes.sub_string b v0 vlen)
  end

let parse line =
  (* Safe: [parse_sub] never mutates the buffer. *)
  parse_sub (Bytes.unsafe_of_string line) ~pos:0 ~len:(String.length line)

let terminator = "END"

let help_lines =
  [
    "HELLO            protocol banner (version, learner)";
    "HELLO V4         upgrade this connection to framed protocol v4";
    "QUERY <atom>     answer a Datalog query, learning from it";
    "TRACE <atom>     answer a query and return its span tree as JSON";
    "STATS            server metrics (text; terminated by END)";
    "STATS JSON       server metrics as a single JSON line";
    "STRATEGY <atom>  the current learned strategy for the atom's form";
    "SNAPSHOT         persist all learned strategies to the state dir";
    "PING             liveness probe";
    "HELP             this text";
    "FLIGHT           flight-recorder dump + retained traces (one JSON line)";
    "QUIT             close this connection";
    "SHUTDOWN         drain in-flight queries and stop the server";
  ]

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let answer_line ~result ~reductions ~retrievals ~cached ~switched () =
  Printf.sprintf "ANSWER %s reductions=%d retrievals=%d%s%s" (one_line result)
    reductions retrievals
    (if cached then " cached" else "")
    (if switched then " switched" else "")

let hello_line ?version:(v = version) ~learner () =
  Printf.sprintf "HELLO strategem/%d learner=%s" v learner

let trace_line json = "TRACE " ^ one_line json

type err_code =
  [ `Parse | `Unknown_verb | `Malformed | `Unsupported | `No_state_dir
  | `Internal ]

let err_code_to_string = function
  | `Parse -> "parse"
  | `Unknown_verb -> "unknown-verb"
  | `Malformed -> "malformed"
  | `Unsupported -> "unsupported"
  | `No_state_dir -> "no-state-dir"
  | `Internal -> "internal"

let err ~code msg =
  Printf.sprintf "ERR %s %s" (err_code_to_string code) (one_line msg)

let busy = "BUSY"
let bye = "BYE"
let pong = "PONG"
