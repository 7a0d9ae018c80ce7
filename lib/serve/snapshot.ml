module D = Datalog
open Infgraph
open Strategy

let file_name = "strategies"

(* [Store.Fsync.write_file] writes through the fixed name
   [<path>.tmp], so two overlapping saves would tear each other's file.
   Saves take this lock around both the reading of the learners and the
   write, so they never overlap and the newest save lands last. *)
let save_lock = Mutex.create ()

(* The form as the parser reads it back: a predicate name that does not
   lex as a plain identifier is quoted. *)
let form_text (form : D.Atom.t) =
  let name = D.Symbol.to_string form.D.Atom.pred in
  let text = D.Atom.to_string form in
  if D.Lexer.plain_ident name then text
  else
    let n = String.length name in
    "'" ^ name ^ "'" ^ String.sub text n (String.length text - n)

(* One section per form, in key order: the [form] line, then the graph
   block, then the strategy block (both end in an [end] line). *)
let section e =
  Registry.with_live e (fun live ->
      Printf.sprintf "form %S\n" (form_text (Registry.form e))
      ^ Serial.graph_to_string (Core.Live.graph live)
      ^ Persist.dfs_to_string (Core.Live.strategy live))

let save ~dir registry =
  Mutex.protect save_lock (fun () ->
      Store.Fsync.ensure_dir dir;
      let entries = Registry.entries registry in
      Store.Fsync.write_file
        (Filename.concat dir file_name)
        (String.concat "" (List.map section entries));
      List.length entries)

(* The file's sections: the form text and the lines of its two blocks,
   each block up to and including its [end] line. *)
let sections text =
  let rec block acc = function
    | "end" :: rest -> (String.concat "\n" (List.rev ("end" :: acc)), rest)
    | line :: rest -> block (line :: acc) rest
    | [] -> failwith "snapshot ends inside a block"
  in
  let rec go acc = function
    | [] -> List.rev acc
    | line :: rest ->
      let form = Scanf.sscanf line "form %S%!" Fun.id in
      let graph, rest = block [] rest in
      let strategy, rest = block [] rest in
      go ((form, graph, strategy) :: acc) rest
  in
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> go []

let load_section registry (form, saved_graph, strategy_text) =
  let entry = Registry.find_or_create registry (D.Parser.parse_atom form) in
  Registry.with_live entry (fun live ->
      let g = Core.Live.graph live in
      (* The graph is rebuilt from the rule base, not read from the
         snapshot; the saved copy detects a changed knowledge base. *)
      if String.trim saved_graph <> String.trim (Serial.graph_to_string g)
      then failwith "saved graph does not match the current rule base";
      Core.Live.set_strategy live (Persist.dfs_of_string g strategy_text))

let old_layout_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         List.exists (Filename.check_suffix f)
           [ ".form"; ".graph"; ".strategy" ])
  |> List.length

let load ?(log = Obs.Log.null) ~dir registry =
  let path = Filename.concat dir file_name in
  let skip what e fields =
    Obs.Log.warn log what
      ~fields:(fields @ [ ("exn", Obs.Log.S (Printexc.to_string e)) ])
  in
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else begin
    (match old_layout_files dir with
    | 0 -> ()
    | n ->
      Obs.Log.warn log "ignoring per-form snapshot files of the old layout"
        ~fields:[ ("state_dir", Obs.Log.S dir); ("files", Obs.Log.I n) ]);
    if not (Sys.file_exists path) then 0
    else
      match In_channel.with_open_bin path In_channel.input_all |> sections with
      | exception e ->
        skip "skipping unreadable snapshot" e [ ("path", Obs.Log.S path) ];
        0
      | sections ->
        List.fold_left
          (fun n ((form, _, _) as s) ->
            match load_section registry s with
            | () -> n + 1
            | exception e ->
              skip "skipping snapshot section" e [ ("form", Obs.Log.S form) ];
              n)
          0 sections
  end
