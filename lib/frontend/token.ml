(* Tokens of the Pascal-subset language. *)

type t =
  | Ident of string
  | Num of int
  | CharLit of char
  | StrLit of string
  (* keywords *)
  | Program
  | Const
  | Type
  | Var
  | Procedure
  | Function
  | Begin
  | End
  | If
  | Then
  | Else
  | While
  | Do
  | Repeat
  | Until
  | For
  | To
  | Downto
  | Case
  | Of
  | Array
  | Packed
  | Record
  | Div
  | Mod
  | And
  | Or
  | Not
  | True
  | False
  (* punctuation and operators *)
  | Plus
  | Minus
  | Star
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Assign  (* := *)
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Comma
  | Colon
  | Semi
  | Dot
  | Dotdot
  | Eof
[@@deriving eq, show]

let keyword_table =
  [ ("program", Program); ("const", Const); ("type", Type); ("var", Var);
    ("procedure", Procedure); ("function", Function); ("begin", Begin);
    ("end", End); ("if", If); ("then", Then); ("else", Else); ("while", While);
    ("do", Do); ("repeat", Repeat); ("until", Until); ("for", For); ("to", To);
    ("downto", Downto); ("case", Case); ("of", Of); ("array", Array);
    ("packed", Packed); ("record", Record); ("div", Div); ("mod", Mod);
    ("and", And); ("or", Or); ("not", Not); ("true", True); ("false", False) ]

(* How a parser message names a token: symbols by their source spelling. *)
let describe = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Num n -> Printf.sprintf "number %d" n
  | CharLit c -> Printf.sprintf "character %C" c
  | StrLit s -> Printf.sprintf "string %S" s
  | Eof -> "end of file"
  | ( Program | Const | Type | Var | Procedure | Function | Begin | End | If
    | Then | Else | While | Do | Repeat | Until | For | To | Downto | Case
    | Of | Array | Packed | Record | Div | Mod | And | Or | Not | True | False )
    as t ->
      Printf.sprintf "keyword %S"
        (fst (List.find (fun (_, k) -> equal k t) keyword_table))
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Star -> "'*'"
  | Eq -> "'='"
  | Ne -> "'<>'"
  | Lt -> "'<'"
  | Le -> "'<='"
  | Gt -> "'>'"
  | Ge -> "'>='"
  | Assign -> "':='"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | Comma -> "','"
  | Colon -> "':'"
  | Semi -> "';'"
  | Dot -> "'.'"
  | Dotdot -> "'..'"
