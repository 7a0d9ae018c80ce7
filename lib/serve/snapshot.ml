module D = Datalog
open Infgraph
open Strategy

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic + durable writes via the shared [Store.Fsync] discipline
   (temp file fsynced, renamed, directory fsynced): the snapshot thread
   may run while a SNAPSHOT command does; last rename wins and readers
   never see a torn file. *)
let write_file = Store.Fsync.write_file
let ensure_dir = Store.Fsync.ensure_dir

(* The form as the parser reads it back: a predicate name that does not
   lex as a plain identifier is quoted. *)
let form_text (form : D.Atom.t) =
  let name = D.Symbol.to_string form.D.Atom.pred in
  let text = D.Atom.to_string form in
  if D.Lexer.plain_ident name then text
  else
    let n = String.length name in
    "'" ^ name ^ "'" ^ String.sub text n (String.length text - n)

let save ~dir registry =
  ensure_dir dir;
  let entries = Registry.entries registry in
  List.iter
    (fun e ->
      let key = Registry.key e in
      let base = Filename.concat dir key in
      let graph_text, strategy_text =
        Registry.with_live e (fun live ->
            ( Serial.graph_to_string (Core.Live.graph live),
              Persist.dfs_to_string (Core.Live.strategy live) ))
      in
      write_file (base ^ ".form") (form_text (Registry.form e) ^ "\n");
      write_file (base ^ ".graph") graph_text;
      write_file (base ^ ".strategy") strategy_text)
    entries;
  List.length entries

let warn fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "strategem serve: %s\n%!" s) fmt

let load_form ~dir registry key =
  let base = Filename.concat dir key in
  let form = D.Parser.parse_atom (String.trim (read_file (base ^ ".form"))) in
  let entry = Registry.find_or_create registry form in
  if Registry.key entry <> key then
    failwith (Printf.sprintf "form file names key %S" (Registry.key entry));
  let strategy_text = read_file (base ^ ".strategy") in
  Registry.with_live entry (fun live ->
      let g = Core.Live.graph live in
      (* The graph is rebuilt from the rule base, not read from the
         snapshot; the saved copy detects a changed knowledge base. *)
      let saved_graph = read_file (base ^ ".graph") in
      if String.trim saved_graph <> String.trim (Serial.graph_to_string g)
      then failwith "saved graph does not match the current rule base";
      Core.Live.set_strategy live (Persist.dfs_of_string g strategy_text))

let load ~dir registry =
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else begin
    let keys =
      Sys.readdir dir |> Array.to_list
      |> List.filter_map (Filename.chop_suffix_opt ~suffix:".form")
      |> List.sort String.compare
    in
    List.fold_left
      (fun n key ->
        match load_form ~dir registry key with
        | () -> n + 1
        | exception e ->
          warn "skipping snapshot %S: %s" key (Printexc.to_string e);
          n)
      0 keys
  end
