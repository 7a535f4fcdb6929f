open Mips_isa

type item = { piece : string Piece.t; note : Note.t; fixed : bool }
type line = Label of string | Ins of item

type program = {
  lines : line list;
  data : (int * Word32.t) list;
  data_words : int;
  entry : string;
}

let ins ?(note = Note.plain) ?(fixed = false) piece = Ins { piece; note; fixed }
let label s = Label s

let make ?(data = []) ?(data_words = 0) ~entry lines =
  { lines; data; data_words; entry }

let pp_line ppf = function
  | Label s -> Format.fprintf ppf "%s:" s
  | Ins i -> Format.fprintf ppf "        %a" Piece.pp_sym i.piece

let pp ppf p =
  Format.fprintf ppf "@[<v>";
  List.iter (fun l -> Format.fprintf ppf "%a@," pp_line l) p.lines;
  Format.fprintf ppf "@]"
