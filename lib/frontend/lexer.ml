exception Error of Loc.t * string

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* position of beginning of current line *)
}

let loc st = { Loc.line = st.line; col = st.pos - st.bol + 1 }
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  if st.pos < String.length st.src && st.src.[st.pos] = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_ws st
  | Some '{' ->
      let start = loc st in
      let rec close () =
        match peek st with
        | None -> raise (Error (start, "unterminated comment"))
        | Some '}' -> advance st
        | Some _ ->
            advance st;
            close ()
      in
      advance st;
      close ();
      skip_ws st
  | Some '(' when peek2 st = Some '*' ->
      let start = loc st in
      advance st;
      advance st;
      let rec close () =
        match (peek st, peek2 st) with
        | Some '*', Some ')' ->
            advance st;
            advance st
        | None, _ -> raise (Error (start, "unterminated comment"))
        | _ ->
            advance st;
            close ()
      in
      close ();
      skip_ws st
  | _ -> ()

let lex_ident st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some c when is_alpha c || is_digit c ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  String.lowercase_ascii (String.sub st.src start (st.pos - start))

let lex_number st l =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some c when is_digit c ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let text = String.sub st.src start (st.pos - start) in
  match int_of_string_opt text with
  | Some n -> n
  | None -> raise (Error (l, "number too large: " ^ text))

(* 'x' is a char literal; 'abc' (or '' contents with quotes) is a string *)
let lex_quoted st l =
  advance st;
  let buf = Buffer.create 8 in
  let rec go () =
    match peek st with
    | None -> raise (Error (l, "unterminated string literal"))
    | Some '\'' when peek2 st = Some '\'' ->
        advance st;
        advance st;
        Buffer.add_char buf '\'';
        go ()
    | Some '\'' -> advance st
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  let s = Buffer.contents buf in
  if String.length s = 1 then Token.CharLit s.[0] else Token.StrLit s

let symbol st l =
  let two tok =
    advance st;
    advance st;
    tok
  in
  let one tok =
    advance st;
    tok
  in
  match (peek st, peek2 st) with
  | Some ':', Some '=' -> two Token.Assign
  | Some '<', Some '=' -> two Token.Le
  | Some '<', Some '>' -> two Token.Ne
  | Some '>', Some '=' -> two Token.Ge
  | Some '.', Some '.' -> two Token.Dotdot
  | Some '+', _ -> one Token.Plus
  | Some '-', _ -> one Token.Minus
  | Some '*', _ -> one Token.Star
  | Some '=', _ -> one Token.Eq
  | Some '<', _ -> one Token.Lt
  | Some '>', _ -> one Token.Gt
  | Some '(', _ -> one Token.Lparen
  | Some ')', _ -> one Token.Rparen
  | Some '[', _ -> one Token.Lbracket
  | Some ']', _ -> one Token.Rbracket
  | Some ',', _ -> one Token.Comma
  | Some ':', _ -> one Token.Colon
  | Some ';', _ -> one Token.Semi
  | Some '.', _ -> one Token.Dot
  | Some c, _ -> raise (Error (l, Printf.sprintf "unexpected character %C" c))
  | None, _ -> assert false

(* built once, read-only after: safe to share between Domains *)
let keywords = Hashtbl.of_seq (List.to_seq Token.keyword_table)

let tokenize src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let out = ref [] in
  let rec go () =
    skip_ws st;
    let l = loc st in
    match peek st with
    | None -> out := (Token.Eof, l) :: !out
    | Some c when is_alpha c ->
        let id = lex_ident st in
        let tok =
          match Hashtbl.find_opt keywords id with
          | Some k -> k
          | None -> Token.Ident id
        in
        out := (tok, l) :: !out;
        go ()
    | Some c when is_digit c ->
        out := (Token.Num (lex_number st l), l) :: !out;
        go ()
    | Some '\'' ->
        out := (lex_quoted st l, l) :: !out;
        go ()
    | Some _ ->
        out := (symbol st l, l) :: !out;
        go ()
  in
  go ();
  List.rev !out
