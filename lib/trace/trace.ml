type span = {
  sp_name : string;
  sp_kind : string;
  mutable sp_cost : float;
  sp_start_ns : int64;
  mutable sp_wall_ns : int64;
  mutable sp_children : span list; (* newest first *)
  mutable sp_attrs : (string * string) list; (* newest first *)
}

type state = { mutable root : span option }
type t = Null | On of state

let null = Null
let make () = On { root = None }
let enabled = function Null -> false | On _ -> true

let dummy =
  {
    sp_name = "";
    sp_kind = "";
    sp_cost = 0.0;
    sp_start_ns = 0L;
    sp_wall_ns = 0L;
    sp_children = [];
    sp_attrs = [];
  }

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let fresh ?(kind = "span") name =
  {
    sp_name = name;
    sp_kind = kind;
    sp_cost = 0.0;
    sp_start_ns = now_ns ();
    sp_wall_ns = 0L;
    sp_children = [];
    sp_attrs = [];
  }

(* Pure constructor for spans assembled after the fact from recorded
   timestamps (the serve layer's request-lifecycle skeletons): no tracer,
   no clock reads — every field is the caller's. *)
let span ?(kind = "span") ?(start_ns = 0L) ?(wall_ns = 0L) ?(cost = 0.0)
    ?(attrs = []) ?(children = []) name =
  {
    sp_name = name;
    sp_kind = kind;
    sp_cost = cost;
    sp_start_ns = start_ns;
    sp_wall_ns = wall_ns;
    sp_children = List.rev children;
    sp_attrs = List.rev attrs;
  }

let root t ?kind name =
  match t with
  | Null -> dummy
  | On st ->
    let sp = fresh ?kind name in
    st.root <- Some sp;
    sp

let push t parent ?kind name =
  match t with
  | Null -> dummy
  | On _ ->
    let sp = fresh ?kind name in
    parent.sp_children <- sp :: parent.sp_children;
    sp

let add_cost t sp c = match t with Null -> () | On _ -> sp.sp_cost <- sp.sp_cost +. c

let set_attr t sp k v =
  match t with Null -> () | On _ -> sp.sp_attrs <- (k, v) :: sp.sp_attrs

let event t parent ?kind ?(cost = 0.0) ?(attrs = []) name =
  match t with
  | Null -> ()
  | On _ ->
    let sp = fresh ?kind name in
    sp.sp_cost <- cost;
    sp.sp_attrs <- List.rev attrs;
    parent.sp_children <- sp :: parent.sp_children

let finish t sp =
  match t with
  | Null -> ()
  | On _ -> sp.sp_wall_ns <- Int64.max 0L (Int64.sub (now_ns ()) sp.sp_start_ns)

let root_span = function Null -> None | On st -> st.root

(* ---------- reads ---------- *)

let name sp = sp.sp_name
let kind sp = sp.sp_kind
let cost sp = sp.sp_cost
let children sp = List.rev sp.sp_children

(* Last write per key wins; oldest-first order of first occurrence. *)
let attrs sp =
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (k, v) -> if not (Hashtbl.mem seen k) then Hashtbl.add seen k v)
    sp.sp_attrs;
  List.rev sp.sp_attrs
  |> List.filter_map (fun (k, _) ->
         match Hashtbl.find_opt seen k with
         | Some v ->
           Hashtbl.remove seen k;
           Some (k, v)
         | None -> None)

let attr sp k = List.assoc_opt k sp.sp_attrs
let start_ns sp = sp.sp_start_ns
let wall_ns sp = sp.sp_wall_ns

let rec total_cost sp =
  List.fold_left (fun acc c -> acc +. total_cost c) sp.sp_cost sp.sp_children

let find_kind sp k =
  let rec go acc sp =
    let acc = if sp.sp_kind = k then sp :: acc else acc in
    List.fold_left go acc (children sp)
  in
  List.rev (go [] sp)

let rec equal a b =
  a.sp_name = b.sp_name && a.sp_kind = b.sp_kind && a.sp_cost = b.sp_cost
  && a.sp_start_ns = b.sp_start_ns
  && a.sp_wall_ns = b.sp_wall_ns
  && attrs a = attrs b
  && List.length a.sp_children = List.length b.sp_children
  && List.for_all2 equal (children a) (children b)

(* ---------- text rendering ---------- *)

let pp_tree ppf sp =
  let rec go indent sp =
    Format.fprintf ppf "%s%s [%s] cost=%g" indent sp.sp_name sp.sp_kind
      sp.sp_cost;
    List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) (attrs sp);
    Format.fprintf ppf "@.";
    List.iter (go (indent ^ "  ")) (children sp)
  in
  go "" sp

(* ---------- JSON ---------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  (* Shortest representation that round-trips a float. *)
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_json sp =
  let buf = Buffer.create 256 in
  let rec go sp =
    Buffer.add_string buf
      (Printf.sprintf "{\"name\":\"%s\",\"kind\":\"%s\",\"cost\":%s,\
                       \"start_ns\":%Ld,\"wall_ns\":%Ld"
         (json_escape sp.sp_name) (json_escape sp.sp_kind)
         (float_repr sp.sp_cost) sp.sp_start_ns sp.sp_wall_ns);
    (match attrs sp with
    | [] -> ()
    | kvs ->
      Buffer.add_string buf ",\"attrs\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
        kvs;
      Buffer.add_char buf '}');
    (match children sp with
    | [] -> ()
    | cs ->
      Buffer.add_string buf ",\"children\":[";
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char buf ',';
          go c)
        cs;
      Buffer.add_char buf ']');
    Buffer.add_char buf '}'
  in
  go sp;
  Buffer.contents buf

exception Parse_error of string

(* A minimal JSON reader, just enough for the dialect [to_json] emits
   (objects, arrays, strings, numbers, booleans, null). *)
module Json = struct
  type value =
    | Obj of (string * value) list
    | Arr of value list
    | Str of string
    | Num of string  (* raw text, so int64 timestamps keep full precision *)
    | Bool of bool
    | Jnull

  type reader = { text : string; mutable pos : int }

  let fail r msg = raise (Parse_error (Printf.sprintf "%s at %d" msg r.pos))
  let peek r = if r.pos < String.length r.text then Some r.text.[r.pos] else None

  let skip_ws r =
    while
      r.pos < String.length r.text
      && match r.text.[r.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      r.pos <- r.pos + 1
    done

  let expect r c =
    skip_ws r;
    match peek r with
    | Some c' when c' = c -> r.pos <- r.pos + 1
    | _ -> fail r (Printf.sprintf "expected %c" c)

  let literal r word value =
    if
      r.pos + String.length word <= String.length r.text
      && String.sub r.text r.pos (String.length word) = word
    then begin
      r.pos <- r.pos + String.length word;
      value
    end
    else fail r ("expected " ^ word)

  let string r =
    expect r '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if r.pos >= String.length r.text then fail r "unterminated string";
      let c = r.text.[r.pos] in
      r.pos <- r.pos + 1;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if r.pos >= String.length r.text then fail r "bad escape";
         let e = r.text.[r.pos] in
         r.pos <- r.pos + 1;
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if r.pos + 4 > String.length r.text then fail r "bad \\u escape";
           let hex = String.sub r.text r.pos 4 in
           r.pos <- r.pos + 4;
           let code =
             try int_of_string ("0x" ^ hex)
             with Failure _ -> fail r "bad \\u escape"
           in
           (* to_json only emits \u for control characters *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else fail r "unsupported \\u escape"
         | _ -> fail r "bad escape");
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()

  let number r =
    let start = r.pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while r.pos < String.length r.text && is_num_char r.text.[r.pos] do
      r.pos <- r.pos + 1
    done;
    if r.pos = start then fail r "expected number";
    let raw = String.sub r.text start (r.pos - start) in
    if float_of_string_opt raw = None then fail r "malformed number";
    raw

  let rec value r =
    skip_ws r;
    match peek r with
    | Some '{' ->
      r.pos <- r.pos + 1;
      skip_ws r;
      if peek r = Some '}' then (r.pos <- r.pos + 1; Obj [])
      else begin
        let rec fields acc =
          skip_ws r;
          let k = string r in
          expect r ':';
          let v = value r in
          skip_ws r;
          match peek r with
          | Some ',' -> r.pos <- r.pos + 1; fields ((k, v) :: acc)
          | Some '}' -> r.pos <- r.pos + 1; List.rev ((k, v) :: acc)
          | _ -> fail r "expected , or }"
        in
        Obj (fields [])
      end
    | Some '[' ->
      r.pos <- r.pos + 1;
      skip_ws r;
      if peek r = Some ']' then (r.pos <- r.pos + 1; Arr [])
      else begin
        let rec elems acc =
          let v = value r in
          skip_ws r;
          match peek r with
          | Some ',' -> r.pos <- r.pos + 1; elems (v :: acc)
          | Some ']' -> r.pos <- r.pos + 1; List.rev (v :: acc)
          | _ -> fail r "expected , or ]"
        in
        Arr (elems [])
      end
    | Some '"' -> Str (string r)
    | Some 't' -> literal r "true" (Bool true)
    | Some 'f' -> literal r "false" (Bool false)
    | Some 'n' -> literal r "null" Jnull
    | _ -> Num (number r)

  let parse text =
    let r = { text; pos = 0 } in
    let v = value r in
    skip_ws r;
    if r.pos <> String.length text then fail r "trailing input";
    v
end

let of_json_value v =
  let fail msg = raise (Parse_error msg) in
  let rec span_of = function
    | Json.Obj fields ->
      let get k = List.assoc_opt k fields in
      let str k =
        match get k with
        | Some (Json.Str s) -> s
        | Some _ -> fail (k ^ " must be a string")
        | None -> fail ("missing field " ^ k)
      in
      let num k =
        match get k with
        | Some (Json.Num raw) -> float_of_string raw
        | Some _ -> fail (k ^ " must be a number")
        | None -> fail ("missing field " ^ k)
      in
      let num64 k =
        match get k with
        | Some (Json.Num raw) -> (
          match Int64.of_string_opt raw with
          | Some i -> i
          | None -> Int64.of_float (float_of_string raw))
        | Some _ -> fail (k ^ " must be a number")
        | None -> fail ("missing field " ^ k)
      in
      let attrs =
        match get "attrs" with
        | None -> []
        | Some (Json.Obj kvs) ->
          List.map
            (function
              | k, Json.Str v -> (k, v)
              | _ -> fail "attrs values must be strings")
            kvs
        | Some _ -> fail "attrs must be an object"
      in
      let children =
        match get "children" with
        | None -> []
        | Some (Json.Arr vs) -> List.map span_of vs
        | Some _ -> fail "children must be an array"
      in
      {
        sp_name = str "name";
        sp_kind = str "kind";
        sp_cost = num "cost";
        sp_start_ns = num64 "start_ns";
        sp_wall_ns = num64 "wall_ns";
        sp_children = List.rev children;
        sp_attrs = List.rev attrs;
      }
    | _ -> fail "span must be a JSON object"
  in
  span_of v

let of_json text = of_json_value (Json.parse text)

(* ---------- Chrome trace-event export ----------

   The [chrome://tracing] / Perfetto JSON-object format: one complete
   ("X"-phase) event per span, microsecond timestamps, the owning event
   loop as the thread id so Perfetto lanes the fleet per loop. *)

let to_chrome ?(tid_attr = "loop") roots =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let us_of_ns ns = Int64.to_float ns /. 1e3 in
  let rec go sp =
    if !first then first := false else Buffer.add_char buf ',';
    let tid =
      match Option.bind (attr sp tid_attr) int_of_string_opt with
      | Some i -> i
      | None -> 0
    in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\
          \"dur\":%s,\"pid\":1,\"tid\":%d"
         (json_escape sp.sp_name) (json_escape sp.sp_kind)
         (float_repr (us_of_ns sp.sp_start_ns))
         (float_repr (us_of_ns sp.sp_wall_ns))
         tid);
    let args = ("cost", float_repr sp.sp_cost) :: attrs sp in
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      args;
    Buffer.add_string buf "}}";
    List.iter go (children sp)
  in
  List.iter go roots;
  Buffer.add_string buf "]}";
  Buffer.contents buf
