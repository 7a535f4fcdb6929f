exception Error of Loc.t * string

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* position of beginning of current line *)
}

let loc st = { Loc.line = st.line; col = st.pos - st.bol + 1 }
let at_end st = st.pos >= String.length st.src

(* the current character; only when not [at_end] *)
let peek st = st.src.[st.pos]

(* whether the character after the current one is [c] *)
let next_is st c = st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = c

let advance st =
  if st.pos < String.length st.src && st.src.[st.pos] = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let rec skip_ws st =
  if not (at_end st) then
    match peek st with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_ws st
    | '{' ->
        let start = loc st in
        let rec close () =
          if at_end st then raise (Error (start, "unterminated comment"))
          else if peek st = '}' then advance st
          else begin
            advance st;
            close ()
          end
        in
        advance st;
        close ();
        skip_ws st
    | '(' when next_is st '*' ->
        let start = loc st in
        advance st;
        advance st;
        let rec close () =
          if at_end st then raise (Error (start, "unterminated comment"))
          else if peek st = '*' && next_is st ')' then begin
            advance st;
            advance st
          end
          else begin
            advance st;
            close ()
          end
        in
        close ();
        skip_ws st
    | _ -> ()

let lex_ident st =
  let start = st.pos in
  let rec go () =
    if (not (at_end st)) && (is_alpha (peek st) || is_digit (peek st)) then begin
      advance st;
      go ()
    end
  in
  go ();
  String.lowercase_ascii (String.sub st.src start (st.pos - start))

let lex_number st l =
  let start = st.pos in
  let rec go () =
    if (not (at_end st)) && is_digit (peek st) then begin
      advance st;
      go ()
    end
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
    if at_end st then raise (Error (l, "unterminated string literal"));
    match peek st with
    | '\'' when next_is st '\'' ->
        advance st;
        advance st;
        Buffer.add_char buf '\'';
        go ()
    | '\'' -> advance st
    | c ->
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
  match peek st with
  | ':' when next_is st '=' -> two Token.Assign
  | '<' when next_is st '=' -> two Token.Le
  | '<' when next_is st '>' -> two Token.Ne
  | '>' when next_is st '=' -> two Token.Ge
  | '.' when next_is st '.' -> two Token.Dotdot
  | '+' -> one Token.Plus
  | '-' -> one Token.Minus
  | '*' -> one Token.Star
  | '=' -> one Token.Eq
  | '<' -> one Token.Lt
  | '>' -> one Token.Gt
  | '(' -> one Token.Lparen
  | ')' -> one Token.Rparen
  | '[' -> one Token.Lbracket
  | ']' -> one Token.Rbracket
  | ',' -> one Token.Comma
  | ':' -> one Token.Colon
  | ';' -> one Token.Semi
  | '.' -> one Token.Dot
  | c -> raise (Error (l, Printf.sprintf "unexpected character %C" c))

(* built once, read-only after: safe to share between Domains *)
let keywords = Hashtbl.of_seq (List.to_seq Token.keyword_table)

let tokenize src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let out = ref [] in
  let rec go () =
    skip_ws st;
    let l = loc st in
    if at_end st then out := (Token.Eof, l) :: !out
    else
      match peek st with
      | c when is_alpha c ->
          let id = lex_ident st in
          let tok =
            match Hashtbl.find_opt keywords id with
            | Some k -> k
            | None -> Token.Ident id
          in
          out := (tok, l) :: !out;
          go ()
      | c when is_digit c ->
          out := (Token.Num (lex_number st l), l) :: !out;
          go ()
      | '\'' ->
          out := (lex_quoted st l, l) :: !out;
          go ()
      | _ ->
          out := (symbol st l, l) :: !out;
          go ()
  in
  go ();
  List.rev !out
