(* Lock tests for the Datalog parser: what it produces, in what order it
   interns symbols, and exactly how it fails. Symbol ids fix
   [Database.iter] order and hence the paged store's symtab, so the
   interning order is part of the contract, not an accident. *)

open Helpers
module D = Datalog

(* ---------- printed (rules, facts, queries) ---------- *)

let print_kb (rules, facts, queries) =
  let lits ls = String.concat ", " (List.map (Format.asprintf "%a" D.Clause.pp_lit) ls) in
  String.concat "\n"
    (List.map (fun c -> "rule " ^ D.Clause.to_string c) rules
    @ List.map (fun a -> "fact " ^ D.Atom.to_string a) facts
    @ List.map (fun q -> "query " ^ lits q) queries)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every [.dl] file under [dir], recursively, sorted. *)
let rec dl_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then dl_files p
         else if Filename.check_suffix f ".dl" then [ p ]
         else [])

let expected_examples =
  [
    ( "data/university.dl",
      "rule instructor(X) :- prof(X).\n\
       rule instructor(X) :- grad(X).\n\
       fact prof(russ)\n\
       fact grad(manolis)\n\
       query instructor(manolis)\n\
       query instructor(fred)\n\
       query instructor(X)" );
  ]

let examples_print_same () =
  let root = "../examples" in
  let files = dl_files root in
  let rel p =
    String.sub p (String.length root + 1) (String.length p - String.length root - 1)
  in
  Alcotest.(check (list string))
    "example programs" (List.map fst expected_examples) (List.map rel files);
  List.iter
    (fun p ->
      check_string (rel p)
        (List.assoc (rel p) expected_examples)
        (print_kb (D.Parser.parse_kb (read_file p))))
    files

(* Inline programs: the test suite's own, the workloads' rule texts, and
   one exercising every lexical form (comments, CRLF, tabs, quoted atoms,
   numbers, [\+], nullary atoms, [_] variables). *)
let inline_programs =
  [
    ( "% a comment\n\
       parent(tom, bob).\n\
       ancestor(X, Y) :- parent(X, Y).\n\
       ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n\
       ?- ancestor(tom, Who).\n",
      "rule ancestor(X, Y) :- parent(X, Y).\n\
       rule ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n\
       fact parent(tom, bob)\n\
       query ancestor(tom, Who)" );
    ( "p(a). r(X) :- p(X). ?- r(a).",
      "rule r(X) :- p(X).\nfact p(a)\nquery r(a)" );
    ( Workload.University.rules_text,
      "rule instructor(X) :- prof(X).\nrule instructor(X) :- grad(X)." );
    ( Workload.Gb.rules_text,
      "rule g(X) :- a(X).\n\
       rule g(X) :- s(X).\n\
       rule s(X) :- b(X).\n\
       rule s(X) :- t(X).\n\
       rule t(X) :- c(X).\n\
       rule t(X) :- d(X)." );
    ( Workload.Genealogy.rules_text,
      "rule relative(X) :- ancestor_of_probe(X).\n\
       rule relative(X) :- sibling(X).\n\
       rule relative(X) :- inlaw(X).\n\
       rule ancestor_of_probe(X) :- parent_of_probe(X).\n\
       rule ancestor_of_probe(X) :- grandparent_of_probe(X).\n\
       rule parent_of_probe(X) :- mother_probe(X).\n\
       rule parent_of_probe(X) :- father_probe(X).\n\
       rule grandparent_of_probe(X) :- gm_probe(X).\n\
       rule grandparent_of_probe(X) :- gf_probe(X).\n\
       rule sibling(X) :- full_sibling(X).\n\
       rule sibling(X) :- half_sibling(X).\n\
       rule inlaw(X) :- spouse(X).\n\
       rule inlaw(X) :- spouse_sibling(X)." );
    ( "% header\r\n\
       likes('Mary Jane', 42).\r\n\
       \tsafe(X) :- person(X), not criminal(X), \\+ banned(X, _Why).\n\
       tenured.   % nullary\n\
       ok :- tenured.\n\
       n007(x_1, 0, Under_score).\n\
       ?- safe(X), tenured.\n\
       ?- likes(Who, 42).",
      "rule safe(X) :- person(X), not criminal(X), not banned(X, _Why).\n\
       rule ok :- tenured.\n\
       fact likes(Mary Jane, 42)\n\
       fact tenured\n\
       fact n007(x_1, 0, Under_score)\n\
       query safe(X), tenured\n\
       query likes(Who, 42)" );
  ]

let inline_print_same () =
  List.iteri
    (fun i (src, want) ->
      check_string (Printf.sprintf "program %d" i) want
        (print_kb (D.Parser.parse_kb src)))
    inline_programs

(* ---------- interning order ---------- *)

(* Names no other test interns, so their relative ids are exactly the
   order this parse first meets them: an atom's arguments left to right,
   then its predicate. *)
let interning_order () =
  let _ =
    D.Parser.parse_kb
      "lk_h(X) :- lk_b1(X, lk_c1), not lk_b2(lk_c2).\n\
       lk_f(lk_a, lk_b).\n\
       ?- lk_q(lk_d), lk_q(lk_a).\n\
       lk_n."
  in
  let _ = D.Parser.parse_atom "lk_pa(lk_x, lk_y)" in
  let _ = D.Parser.parse_clause "lk_ch(lk_k) :- lk_cb(lk_k2)." in
  let _ = D.Parser.parse_query "lk_qa(lk_z), \\+ lk_qb" in
  let names =
    [
      "lk_h"; "lk_b1"; "lk_c1"; "lk_b2"; "lk_c2"; "lk_f"; "lk_a"; "lk_b";
      "lk_q"; "lk_d"; "lk_n"; "lk_pa"; "lk_x"; "lk_y"; "lk_ch"; "lk_k";
      "lk_cb"; "lk_k2"; "lk_qa"; "lk_z"; "lk_qb";
    ]
  in
  let by_id =
    List.map D.Symbol.intern names
    |> List.sort D.Symbol.compare
    |> List.map D.Symbol.to_string
  in
  Alcotest.(check (list string))
    "first-seen order"
    [
      "lk_h"; "lk_c1"; "lk_b1"; "lk_c2"; "lk_b2"; "lk_a"; "lk_b"; "lk_f";
      "lk_d"; "lk_q"; "lk_n"; "lk_x"; "lk_y"; "lk_pa"; "lk_k"; "lk_ch";
      "lk_k2"; "lk_cb"; "lk_z"; "lk_qa"; "lk_qb";
    ]
    by_id

(* ---------- malformed inputs: exact exception, message, position ---------- *)

let outcome f input =
  match f input with
  | _ -> "ok"
  | exception D.Parser.Parse_error (msg, p) ->
    Printf.sprintf "Parse_error %S at %d:%d" msg p.D.Lexer.line p.D.Lexer.col
  | exception D.Lexer.Lex_error (msg, p) ->
    Printf.sprintf "Lex_error %S at %d:%d" msg p.D.Lexer.line p.D.Lexer.col

let entry = function
  | `Atom -> outcome D.Parser.parse_atom
  | `Clause -> outcome D.Parser.parse_clause
  | `Clauses -> outcome D.Parser.parse_clauses
  | `Query -> outcome D.Parser.parse_query
  | `Kb -> outcome D.Parser.parse_kb

let entry_name = function
  | `Atom -> "atom"
  | `Clause -> "clause"
  | `Clauses -> "clauses"
  | `Query -> "query"
  | `Kb -> "kb"

let malformed =
  [
    (`Atom, "", "Parse_error \"expected a predicate but found end of input\" at 1:1");
    (`Atom, "p(", "Parse_error \"expected a term but found end of input\" at 1:3");
    (`Atom, "p(a", "Parse_error \"expected ')' but found end of input\" at 1:4");
    (`Atom, "p(a,)", "Parse_error \"expected a term but found ')'\" at 1:5");
    (`Atom, "p(a) q", "Parse_error \"trailing input: identifier \\\"q\\\"\" at 1:6");
    (`Atom, "p(a).", "Parse_error \"trailing input: '.'\" at 1:5");
    (`Atom, "X", "Parse_error \"expected a predicate but found variable \\\"X\\\"\" at 1:1");
    (`Atom, "p(&)", "Lex_error \"unexpected character '&'\" at 1:3");
    (`Atom, "p('x", "Lex_error \"unterminated quoted atom\" at 1:3");
    (`Atom, "p(a b) &", "Lex_error \"unexpected character '&'\" at 1:8");
    (`Atom, "p(a b) 'x", "Lex_error \"unterminated quoted atom\" at 1:8");
    (`Atom, ":x", "Lex_error \"expected '-' after ':'\" at 1:1");
    (`Atom, "p(?x)", "Lex_error \"expected '-' after '?'\" at 1:3");
    (`Atom, "\\x", "Lex_error \"expected '+' after '\\\\\\\\'\" at 1:1");
    (`Atom, "p(a)\n\n   :", "Lex_error \"expected '-' after ':'\" at 3:4");
    (`Atom, "\255", "Lex_error \"unexpected character '\\\\255'\" at 1:1");
    (`Clause, "p(a)", "Parse_error \"expected '.' but found end of input\" at 1:5");
    (`Clause, "?- p(a).", "Parse_error \"expected a clause, found a query\" at 1:1");
    (`Clause, "?- p(a). &", "Lex_error \"unexpected character '&'\" at 1:10");
    (`Clause, "p(a) :- .", "Parse_error \"expected a predicate but found '.'\" at 1:9");
    (`Clause, "p(a) :- q(a)", "Parse_error \"expected '.' but found end of input\" at 1:13");
    (`Clause, "p(a). q(b).", "Parse_error \"trailing input: identifier \\\"q\\\"\" at 1:7");
    (`Clause, "p(a) :- & q(a).", "Lex_error \"unexpected character '&'\" at 1:9");
    (`Clause, "p(a) :- not not q(a).", "Parse_error \"expected a predicate but found 'not'\" at 1:13");
    (`Clause, "p(a) ?- q.", "Parse_error \"expected '.' but found '?-'\" at 1:6");
    (`Query, "?- .", "Parse_error \"expected a predicate but found '.'\" at 1:4");
    (`Query, "p(X), ", "Parse_error \"expected a predicate but found end of input\" at 1:7");
    (`Query, "p(X) q", "Parse_error \"trailing input: identifier \\\"q\\\"\" at 1:6");
    (`Query, "p(X). q", "Parse_error \"trailing input: identifier \\\"q\\\"\" at 1:7");
    (`Query, "?- ?- p", "Parse_error \"expected a predicate but found '?-'\" at 1:4");
    (`Kb, "p(a).\nq(b)\nr(c).", "Parse_error \"expected '.' but found identifier \\\"r\\\"\" at 3:1");
    (`Kb, "p(a).\n  q(b) :- r(c),\n not .", "Parse_error \"expected a predicate but found '.'\" at 3:6");
    (`Kb, "p(a). % comment\n q(\n'unterminated", "Lex_error \"unterminated quoted atom\" at 3:1");
    (`Kb, "p(a) :- q(\n  1x).", "Parse_error \"expected ')' but found identifier \\\"x\\\"\" at 2:4");
    (`Kb, "p(a).\r\nq(b) ?", "Lex_error \"expected '-' after '?'\" at 2:6");
    (`Kb, "p(a).\n\tq(b, ).", "Parse_error \"expected a term but found ')'\" at 2:7");
    (`Kb, "p(a) :- q(X", "Parse_error \"expected ')' but found end of input\" at 1:12");
    (`Kb, "p(a) :- q(X) r. $", "Lex_error \"unexpected character '$'\" at 1:17");
    (`Clauses, "p(a). ?- q(a).", "Parse_error \"unexpected query in clause list\" at 1:1");
    (`Clauses, "p(a). ?- q(a). #", "Lex_error \"unexpected character '#'\" at 1:16");
  ]

let malformed_exact () =
  List.iter
    (fun (e, input, want) ->
      check_string
        (Printf.sprintf "%s %S" (entry_name e) input)
        want (entry e input))
    malformed

(* ---------- arbitrary input fails only with the parser's own errors ---------- *)

let only_parser_errors =
  let alphabet = "pqX_a1(),.:-?\\+'% \n\t&not" in
  qcheck "arbitrary strings raise only Parse_error or Lex_error" ~count:2000
    QCheck2.Gen.(
      oneof
        [
          string_size (int_range 0 40);
          string_size
            ~gen:(map (String.get alphabet) (int_range 0 (String.length alphabet - 1)))
            (int_range 0 40);
        ])
    (fun s ->
      List.for_all
        (fun e ->
          match entry e s with
          | _ -> true
          | exception
              (Invalid_argument _ | Not_found | Failure _ | Stack_overflow) ->
            false)
        [ `Atom; `Clause; `Clauses; `Query; `Kb ])

(* ---------- a whole program, printed, parses back to itself ---------- *)

let gen_program =
  let open QCheck2.Gen in
  let name = map (fun i -> Printf.sprintf "p%d" (i mod 6)) small_nat in
  let const = map (fun i -> D.Term.const (Printf.sprintf "c%d" (i mod 9))) small_nat in
  let var = map (fun i -> D.Term.var (Printf.sprintf "V%d" (i mod 4))) small_nat in
  let atom term = map2 D.Atom.make name (list_size (int_range 0 3) term) in
  let lit =
    oneof
      [
        map (fun a -> D.Clause.Pos a) (atom (oneof [ const; var ]));
        map (fun a -> D.Clause.Neg a) (atom (oneof [ const; var ]));
      ]
  in
  let item =
    oneof
      [
        map2
          (fun h b -> `Rule (D.Clause.make h b))
          (atom (oneof [ const; var ]))
          (list_size (int_range 1 3) lit);
        map (fun a -> `Fact a) (atom const);
        map (fun q -> `Query q) (list_size (int_range 1 3) lit);
      ]
  in
  list_size (int_range 0 30) item

let print_program items =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i it ->
      (match it with
      | `Rule c -> Buffer.add_string buf (D.Clause.to_string c)
      | `Fact a -> Buffer.add_string buf (D.Atom.to_string a ^ ".")
      | `Query q ->
        Buffer.add_string buf
          (Format.asprintf "?- %a."
             (Format.pp_print_list
                ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                D.Clause.pp_lit)
             q));
      Buffer.add_string buf (if i mod 3 = 0 then " % item\n" else "\n"))
    items;
  Buffer.contents buf

let program_round_trip =
  qcheck "whole program: print then parse_kb round trip" ~count:300 gen_program
    (fun items ->
      let rules, facts, queries = D.Parser.parse_kb (print_program items) in
      let want_rules = List.filter_map (function `Rule c -> Some c | _ -> None) items in
      let want_facts = List.filter_map (function `Fact a -> Some a | _ -> None) items in
      let want_queries = List.filter_map (function `Query q -> Some q | _ -> None) items in
      List.equal D.Clause.equal rules want_rules
      && List.equal D.Atom.equal facts want_facts
      (* a query body compares as the body of a clause *)
      && List.equal
           (fun a b ->
             let q = D.Atom.make "q" [] in
             D.Clause.equal (D.Clause.make q a) (D.Clause.make q b))
           queries want_queries)

(* [Lexer.plain_ident] agrees with the parser: a plain name reads back
   unquoted, any other name only quoted. *)
let plain_idents () =
  let reads_back name text =
    match D.Parser.parse_atom (text ^ "(q)") with
    | a -> D.Symbol.to_string a.D.Atom.pred = name
    | exception (D.Parser.Parse_error _ | D.Lexer.Lex_error _) -> false
  in
  List.iter
    (fun (name, plain) ->
      check_bool (Printf.sprintf "plain_ident %S" name) plain
        (D.Lexer.plain_ident name);
      check_bool (Printf.sprintf "%S unquoted" name) plain
        (reads_back name name);
      check_bool (Printf.sprintf "%S quoted" name) true
        (reads_back name ("'" ^ name ^ "'")))
    [
      ("instructor", true); ("p_1X", true); ("42", true); ("a b", false);
      ("a-b", false); ("not", false); ("Upper", false); ("_x", false);
      ("x\nEND", false);
    ]

let suite =
  [
    ( "datalog.parser_lock",
      [
        case "example programs print the same" examples_print_same;
        case "inline programs print the same" inline_print_same;
        case "symbols interned in first-seen order" interning_order;
        case "malformed inputs: exact error and position" malformed_exact;
        only_parser_errors;
        program_round_trip;
        case "plain identifiers read back unquoted, others quoted"
          plain_idents;
      ] );
  ]
