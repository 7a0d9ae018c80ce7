type token =
  | Ident of string
  | Variable of string
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Turnstile
  | Query
  | Not
  | Eof

type position = { line : int; col : int }

exception Lex_error of string * position

let pp_token ppf = function
  | Ident s -> Format.fprintf ppf "identifier %S" s
  | Variable s -> Format.fprintf ppf "variable %S" s
  | Lparen -> Format.pp_print_string ppf "'('"
  | Rparen -> Format.pp_print_string ppf "')'"
  | Comma -> Format.pp_print_string ppf "','"
  | Dot -> Format.pp_print_string ppf "'.'"
  | Turnstile -> Format.pp_print_string ppf "':-'"
  | Query -> Format.pp_print_string ppf "'?-'"
  | Not -> Format.pp_print_string ppf "'not'"
  | Eof -> Format.pp_print_string ppf "end of input"

let is_lower c = (c >= 'a' && c <= 'z')
let is_upper c = (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_lower c || is_upper c || is_digit c || c = '_'

let plain_ident s =
  s <> ""
  && ((is_lower s.[0] && String.for_all is_ident_char s && s <> "not")
     || String.for_all is_digit s)

(* The lexer holds one token of lookahead. A column is a byte offset
   from the start of its line, so only newlines need bookkeeping and a
   position is allocated only when someone asks for one (errors). *)
type t = {
  input : string;
  len : int;
  mutable i : int; (* next unread byte *)
  mutable line : int; (* line of byte [i] *)
  mutable bol : int; (* offset where that line begins *)
  mutable tok : token;
  mutable tok_line : int;
  mutable tok_col : int;
}

let read_while lx pred =
  let start = lx.i in
  while lx.i < lx.len && pred (String.unsafe_get lx.input lx.i) do
    lx.i <- lx.i + 1
  done;
  String.sub lx.input start (lx.i - start)

let rec skip_blank lx =
  if lx.i < lx.len then
    match String.unsafe_get lx.input lx.i with
    | ' ' | '\t' | '\r' ->
      lx.i <- lx.i + 1;
      skip_blank lx
    | '\n' ->
      lx.i <- lx.i + 1;
      lx.line <- lx.line + 1;
      lx.bol <- lx.i;
      skip_blank lx
    | '%' ->
      while lx.i < lx.len && String.unsafe_get lx.input lx.i <> '\n' do
        lx.i <- lx.i + 1
      done;
      skip_blank lx
    | _ -> ()

let fail lx msg =
  raise (Lex_error (msg, { line = lx.tok_line; col = lx.tok_col }))

(* The current byte followed by [next] makes [tok]; anything else is an
   error. *)
let pair lx next tok msg =
  lx.i <- lx.i + 1;
  if lx.i < lx.len && String.unsafe_get lx.input lx.i = next then begin
    lx.i <- lx.i + 1;
    tok
  end
  else fail lx msg

let quoted lx =
  let start = lx.i + 1 in
  match String.index_from_opt lx.input start '\'' with
  | None -> fail lx "unterminated quoted atom"
  | Some stop ->
    (* A quoted atom may span lines. *)
    for j = start to stop - 1 do
      if String.unsafe_get lx.input j = '\n' then begin
        lx.line <- lx.line + 1;
        lx.bol <- j + 1
      end
    done;
    lx.i <- stop + 1;
    Ident (String.sub lx.input start (stop - start))

let single lx tok =
  lx.i <- lx.i + 1;
  tok

let advance lx =
  skip_blank lx;
  lx.tok_line <- lx.line;
  lx.tok_col <- lx.i - lx.bol + 1;
  lx.tok <-
    (if lx.i >= lx.len then Eof
     else
       match String.unsafe_get lx.input lx.i with
       | '(' -> single lx Lparen
       | ')' -> single lx Rparen
       | ',' -> single lx Comma
       | '.' -> single lx Dot
       | ':' -> pair lx '-' Turnstile "expected '-' after ':'"
       | '?' -> pair lx '-' Query "expected '-' after '?'"
       | '\\' -> pair lx '+' Not "expected '+' after '\\\\'"
       | '\'' -> quoted lx
       | c when is_lower c ->
         let s = read_while lx is_ident_char in
         if s = "not" then Not else Ident s
       | c when is_upper c || c = '_' -> Variable (read_while lx is_ident_char)
       | c when is_digit c -> Ident (read_while lx is_digit)
       | c -> fail lx (Printf.sprintf "unexpected character %C" c))

let of_string input =
  let lx =
    {
      input;
      len = String.length input;
      i = 0;
      line = 1;
      bol = 0;
      tok = Eof;
      tok_line = 1;
      tok_col = 1;
    }
  in
  advance lx;
  lx

let token lx = lx.tok
let position lx = { line = lx.tok_line; col = lx.tok_col }
