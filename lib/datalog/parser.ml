type item =
  | Clause of Clause.t
  | Query of Clause.lit list

exception Parse_error of string * Lexer.position

let fail lx fmt =
  Format.kasprintf (fun msg -> raise (Parse_error (msg, Lexer.position lx))) fmt

(* [tok] is always a constant constructor, so physical equality is exact. *)
let expect lx tok =
  if Lexer.token lx == tok then Lexer.advance lx
  else
    fail lx "expected %a but found %a" Lexer.pp_token tok Lexer.pp_token
      (Lexer.token lx)

let parse_term lx =
  match Lexer.token lx with
  | Lexer.Ident s ->
    Lexer.advance lx;
    Term.const s
  | Lexer.Variable s ->
    Lexer.advance lx;
    Term.var s
  | tok -> fail lx "expected a term but found %a" Lexer.pp_token tok

(* The arguments are interned before the predicate: symbol ids, and with
   them [Database.iter] order and the paged store's symtab, depend on
   this order. *)
let parse_atom_lx lx =
  match Lexer.token lx with
  | Lexer.Ident name ->
    Lexer.advance lx;
    (match Lexer.token lx with
    | Lexer.Lparen ->
      Lexer.advance lx;
      let rec args acc =
        let t = parse_term lx in
        match Lexer.token lx with
        | Lexer.Comma ->
          Lexer.advance lx;
          args (t :: acc)
        | _ ->
          expect lx Lexer.Rparen;
          List.rev (t :: acc)
      in
      let args = args [] in
      Atom.make name args
    | _ -> Atom.make name [])
  | tok -> fail lx "expected a predicate but found %a" Lexer.pp_token tok

let parse_lit lx =
  match Lexer.token lx with
  | Lexer.Not ->
    Lexer.advance lx;
    Clause.Neg (parse_atom_lx lx)
  | _ -> Clause.Pos (parse_atom_lx lx)

let parse_body lx =
  let rec loop acc =
    let l = parse_lit lx in
    match Lexer.token lx with
    | Lexer.Comma ->
      Lexer.advance lx;
      loop (l :: acc)
    | _ -> List.rev (l :: acc)
  in
  loop []

let parse_item lx =
  match Lexer.token lx with
  | Lexer.Query ->
    Lexer.advance lx;
    let body = parse_body lx in
    expect lx Lexer.Dot;
    Query body
  | _ ->
    let head = parse_atom_lx lx in
    (match Lexer.token lx with
    | Lexer.Turnstile ->
      Lexer.advance lx;
      let body = parse_body lx in
      expect lx Lexer.Dot;
      Clause (Clause.make head body)
    | _ ->
      expect lx Lexer.Dot;
      Clause (Clause.fact head))

let only_eof lx =
  match Lexer.token lx with
  | Lexer.Eof -> ()
  | tok -> fail lx "trailing input: %a" Lexer.pp_token tok

(* Run [f] over a pull lexer on [input]. A lexical error anywhere in the
   input wins over a parse error, so on a parse error the rest of the
   input is lexed and its first lexical error, if any, is raised
   instead. *)
let run input f =
  let lx = Lexer.of_string input in
  try f lx
  with Parse_error _ as e ->
    while Lexer.token lx != Lexer.Eof do
      Lexer.advance lx
    done;
    raise e

let fold_program input f init =
  run input (fun lx ->
      let rec loop acc =
        match Lexer.token lx with
        | Lexer.Eof -> acc
        | _ -> loop (f acc (parse_item lx))
      in
      loop init)

let parse_program input =
  List.rev (fold_program input (fun acc item -> item :: acc) [])

let parse_clause input =
  run input (fun lx ->
      match parse_item lx with
      | Clause c ->
        only_eof lx;
        c
      | Query _ ->
        raise
          (Parse_error ("expected a clause, found a query", { line = 1; col = 1 })))

let parse_clauses input =
  List.map
    (function
      | Clause c -> c
      | Query _ ->
        raise
          (Parse_error ("unexpected query in clause list", { line = 1; col = 1 })))
    (parse_program input)

let parse_atom input =
  run input (fun lx ->
      let a = parse_atom_lx lx in
      only_eof lx;
      a)

let parse_query input =
  run input (fun lx ->
      (match Lexer.token lx with Lexer.Query -> Lexer.advance lx | _ -> ());
      let body = parse_body lx in
      (match Lexer.token lx with Lexer.Dot -> Lexer.advance lx | _ -> ());
      only_eof lx;
      body)

let parse_kb input =
  let rules, facts, queries =
    fold_program input
      (fun (rules, facts, queries) item ->
        match item with
        | Clause c when Clause.is_fact c -> (rules, c.Clause.head :: facts, queries)
        | Clause c -> (c :: rules, facts, queries)
        | Query q -> (rules, facts, q :: queries))
      ([], [], [])
  in
  (List.rev rules, List.rev facts, List.rev queries)
