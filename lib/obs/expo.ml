(* Prometheus text exposition format 0.0.4: rendering a list of
   families, linting rendered output (used by CI and `strategem scrape
   --lint`), and a small sample parser (used by `strategem watch`). *)

let name_re_ok s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let label_re_ok s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

type kind = Counter | Gauge | Histogram

type value = Int of int | Float of float | Hist of Histogram.snapshot

type family = {
  name : string;
  help : string;
  kind : kind;
  label_names : string list;
  samples : (string list * value) list;
}

let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_str v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

(* [le] appends the histograms' bucket label after the family's own
   labels, matching Prometheus convention. *)
let label_str ?le names values =
  let pairs =
    List.combine names values
    @ match le with Some v -> [ ("le", v) ] | None -> []
  in
  if pairs = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (n, v) -> Printf.sprintf "%s=\"%s\"" n (escape_label_value v))
           pairs)
    ^ "}"

let kind_str = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let render_family buf f =
  Printf.bprintf buf "# HELP %s %s\n" f.name (escape_help f.help);
  Printf.bprintf buf "# TYPE %s %s\n" f.name (kind_str f.kind);
  List.iter
    (fun (values, v) ->
      let labels = label_str f.label_names values in
      match v with
      | Int v -> Printf.bprintf buf "%s%s %d\n" f.name labels v
      | Float v -> Printf.bprintf buf "%s%s %s\n" f.name labels (float_str v)
      | Hist h ->
        let cum = ref 0 in
        Array.iteri
          (fun i n ->
            cum := !cum + n;
            let le =
              if i = Histogram.n_buckets then "+Inf"
              else string_of_int (Histogram.bucket_upper i)
            in
            Printf.bprintf buf "%s_bucket%s %d\n" f.name
              (label_str ~le f.label_names values)
              !cum)
          h.Histogram.buckets;
        Printf.bprintf buf "%s_sum%s %s\n" f.name labels
          (float_str h.Histogram.sum);
        Printf.bprintf buf "%s_count%s %d\n" f.name labels h.Histogram.count)
    (List.sort (fun (a, _) (b, _) -> compare a b) f.samples)

let render families =
  let buf = Buffer.create 4096 in
  List.iter (render_family buf)
    (List.sort (fun a b -> String.compare a.name b.name) families);
  Buffer.contents buf

(* ---------- parsing (for watch and the linter) ---------- *)

type parsed_sample = {
  metric : string;
  labels : (string * string) list;
  value : float;
}

exception Bad_line of string

let parse_labels s =
  (* s is the text between '{' and '}' *)
  let n = String.length s in
  let rec skip_ws i = if i < n && s.[i] = ' ' then skip_ws (i + 1) else i in
  let rec pairs i acc =
    let i = skip_ws i in
    if i >= n then List.rev acc
    else begin
      let j = ref i in
      while !j < n && s.[!j] <> '=' do incr j done;
      if !j >= n then raise (Bad_line "label without '='");
      let name = String.trim (String.sub s i (!j - i)) in
      let j = !j + 1 in
      if j >= n || s.[j] <> '"' then raise (Bad_line "unquoted label value");
      let buf = Buffer.create 16 in
      let k = ref (j + 1) in
      let closed = ref false in
      while not !closed do
        if !k >= n then raise (Bad_line "unterminated label value");
        (match s.[!k] with
        | '\\' ->
          if !k + 1 >= n then raise (Bad_line "dangling escape");
          (match s.[!k + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | c -> raise (Bad_line (Printf.sprintf "bad escape \\%c" c)));
          k := !k + 2
        | '"' ->
          closed := true;
          incr k
        | c ->
          Buffer.add_char buf c;
          incr k);
      done;
      let acc = (name, Buffer.contents buf) :: acc in
      let i = skip_ws !k in
      if i < n && s.[i] = ',' then pairs (i + 1) acc
      else if i >= n then List.rev acc
      else raise (Bad_line "junk after label value")
    end
  in
  pairs 0 []

let parse_value s =
  match String.trim s with
  | "+Inf" -> Float.infinity
  | "-Inf" -> Float.neg_infinity
  | "NaN" -> Float.nan
  | v -> (
    match float_of_string_opt v with
    | Some f -> f
    | None -> raise (Bad_line (Printf.sprintf "bad value %S" v)))

let parse_sample_line line =
  match String.index_opt line '{' with
  | Some i ->
    let close =
      match String.rindex_opt line '}' with
      | Some j when j > i -> j
      | _ -> raise (Bad_line "unbalanced '{'")
    in
    {
      metric = String.sub line 0 i;
      labels = parse_labels (String.sub line (i + 1) (close - i - 1));
      value =
        parse_value (String.sub line (close + 1) (String.length line - close - 1));
    }
  | None -> (
    match String.index_opt line ' ' with
    | None -> raise (Bad_line "sample without value")
    | Some i ->
      {
        metric = String.sub line 0 i;
        labels = [];
        value = parse_value (String.sub line i (String.length line - i));
      })

let parse_samples text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else Some (parse_sample_line line))

(* ---------- lint ---------- *)

(* A family's base name for a sample name: strips the histogram
   suffixes. *)
let base_of ~histograms name =
  let strip suffix =
    let n = String.length name and m = String.length suffix in
    if n > m && String.sub name (n - m) m = suffix then
      Some (String.sub name 0 (n - m))
    else None
  in
  let try_base suffix =
    match strip suffix with
    | Some b when List.mem_assoc b histograms -> Some b
    | _ -> None
  in
  match try_base "_bucket" with
  | Some b -> Some b
  | None -> (
    match try_base "_sum" with
    | Some b -> Some b
    | None -> try_base "_count")

let lint text =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let lines = String.split_on_char '\n' text in
  (* First pass: collect HELP/TYPE declarations, flag duplicates. *)
  let helps = Hashtbl.create 16 and types = Hashtbl.create 16 in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line <> "" && line.[0] = '#' then
        match String.split_on_char ' ' line with
        | "#" :: "HELP" :: name :: _rest ->
          if Hashtbl.mem helps name then
            err "line %d: duplicate # HELP for %s" lineno name
          else Hashtbl.add helps name ()
        | "#" :: "TYPE" :: name :: ty :: [] ->
          if Hashtbl.mem types name then
            err "line %d: duplicate # TYPE for %s" lineno name
          else if not (List.mem ty [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
          then err "line %d: unknown type %S for %s" lineno ty name
          else Hashtbl.add types name ty
        | "#" :: "TYPE" :: name :: _ ->
          err "line %d: malformed # TYPE for %s" lineno name
        | _ -> () (* other comments are allowed *))
    lines;
  let histograms =
    Hashtbl.fold
      (fun name ty acc -> if ty = "histogram" then (name, ()) :: acc else acc)
      types []
  in
  (* Second pass: parse samples; check names are declared, label syntax
     is valid, and no (name, labelset) repeats. *)
  let seen = Hashtbl.create 64 in
  let hist_buckets = Hashtbl.create 16 in
  (* (base, labels-sans-le) -> (le, cumulative) list *)
  let hist_sums = Hashtbl.create 16 and hist_counts = Hashtbl.create 16 in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match parse_sample_line line with
        | exception Bad_line msg -> err "line %d: %s" lineno msg
        | s ->
          if not (name_re_ok s.metric) then
            err "line %d: invalid metric name %S" lineno s.metric;
          List.iter
            (fun (k, _) ->
              if not (label_re_ok k) then
                err "line %d: invalid label name %S" lineno k)
            s.labels;
          let family =
            match base_of ~histograms s.metric with
            | Some b -> b
            | None -> s.metric
          in
          if not (Hashtbl.mem types family) then
            err "line %d: %s has no # TYPE" lineno s.metric;
          if not (Hashtbl.mem helps family) then
            err "line %d: %s has no # HELP" lineno s.metric;
          let key = (s.metric, List.sort compare s.labels) in
          if Hashtbl.mem seen key then
            err "line %d: duplicate sample %s%s" lineno s.metric
              (String.concat ","
                 (List.map (fun (k, v) -> k ^ "=" ^ v) s.labels))
          else Hashtbl.add seen key ();
          (* Histogram series bookkeeping. *)
          (match base_of ~histograms s.metric with
          | Some b ->
            let sans_le =
              List.sort compare (List.remove_assoc "le" s.labels)
            in
            let hkey = (b, sans_le) in
            if Filename.check_suffix s.metric "_bucket" then begin
              match List.assoc_opt "le" s.labels with
              | None -> err "line %d: %s without le label" lineno s.metric
              | Some le ->
                Hashtbl.replace hist_buckets hkey
                  ((le, s.value)
                  :: (try Hashtbl.find hist_buckets hkey with Not_found -> []))
            end
            else if Filename.check_suffix s.metric "_sum" then
              Hashtbl.replace hist_sums hkey s.value
            else if Filename.check_suffix s.metric "_count" then
              Hashtbl.replace hist_counts hkey s.value
          | None ->
            if Hashtbl.mem types s.metric
               && Hashtbl.find types s.metric = "histogram" then
              err "line %d: histogram %s sampled without _bucket/_sum/_count"
                lineno s.metric))
    lines;
  (* Third pass: histogram consistency per (family, labelset). *)
  Hashtbl.iter
    (fun (b, labels) buckets ->
      let pretty =
        b
        ^
        if labels = [] then ""
        else
          "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
          ^ "}"
      in
      let le_value = function
        | "+Inf" -> Float.infinity
        | le -> (
          match float_of_string_opt le with
          | Some f -> f
          | None -> Float.nan)
      in
      let sorted =
        List.sort
          (fun (a, _) (b, _) -> Float.compare (le_value a) (le_value b))
          buckets
      in
      (match List.rev sorted with
      | ("+Inf", inf_cum) :: _ -> (
        match Hashtbl.find_opt hist_counts (b, labels) with
        | Some count when count <> inf_cum ->
          err "%s: le=\"+Inf\" bucket %g != _count %g" pretty inf_cum count
        | Some _ -> ()
        | None -> err "%s: histogram without _count" pretty)
      | _ -> err "%s: histogram without le=\"+Inf\" bucket" pretty);
      if not (Hashtbl.mem hist_sums (b, labels)) then
        err "%s: histogram without _sum" pretty;
      ignore
        (List.fold_left
           (fun prev (le, cum) ->
             if cum < prev then
               err "%s: bucket le=%s not cumulative (%g < %g)" pretty le cum
                 prev;
             cum)
           0.0 sorted))
    hist_buckets;
  (* Families declared but never sampled are fine (empty label sets);
     TYPE without HELP is not. *)
  Hashtbl.iter
    (fun name _ ->
      if not (Hashtbl.mem helps name) then err "%s: # TYPE without # HELP" name)
    types;
  match List.rev !errors with [] -> Ok () | es -> Error es
