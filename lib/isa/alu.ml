type binop = Add | Sub | Rsub | And | Or | Xor | Sll | Srl | Sra | Mul | Div | Rem
[@@deriving eq, ord, show]

type special = Surprise | Segment | Byte_select | Epc of int
[@@deriving eq, ord, show]

type t =
  | Binop of binop * Operand.t * Operand.t * Reg.t
  | Mov of Operand.t * Reg.t
  | Movi8 of int * Reg.t
  | Setc of Cond.t * Operand.t * Operand.t * Reg.t
  | Xbyte of Operand.t * Operand.t * Reg.t
  | Ibyte of Operand.t * Reg.t
  | Rd_special of special * Reg.t
  | Wr_special of special * Operand.t
  | Rfe
[@@deriving eq, ord, show]

let reads = function
  | Binop (_, a, b, _) | Setc (_, a, b, _) | Xbyte (a, b, _) ->
      Operand.add_read (Operand.add_read Reg.Set.empty a) b
  | Mov (a, _) | Wr_special (_, a) -> Operand.add_read Reg.Set.empty a
  | Ibyte (a, dst) -> Reg.Set.add dst (Operand.add_read Reg.Set.empty a)
  | Movi8 _ | Rd_special _ | Rfe -> Reg.Set.empty

let writes = function
  | Binop (_, _, _, d)
  | Mov (_, d)
  | Movi8 (_, d)
  | Setc (_, _, _, d)
  | Xbyte (_, _, d)
  | Ibyte (_, d)
  | Rd_special (_, d) ->
      Some d
  | Wr_special _ | Rfe -> None

let reads_special = function
  | Rd_special (s, _) -> Some s
  | Ibyte _ -> Some Byte_select
  | Rfe -> Some Surprise
  | Binop _ | Mov _ | Movi8 _ | Setc _ | Xbyte _ | Wr_special _ -> None

let writes_special = function
  | Wr_special (s, _) -> Some s
  | Rfe -> Some Surprise
  | Binop _ | Mov _ | Movi8 _ | Setc _ | Xbyte _ | Ibyte _ | Rd_special _ -> None

let is_privileged = function
  | Rd_special (Byte_select, _) | Wr_special (Byte_select, _) -> false
  | Rd_special _ | Wr_special _ | Rfe -> true
  | Binop _ | Mov _ | Movi8 _ | Setc _ | Xbyte _ | Ibyte _ -> false

let binop_mnemonic = function
  | Add -> "add"
  | Sub -> "sub"
  | Rsub -> "rsub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"

let special_name = function
  | Surprise -> "sr"
  | Segment -> "seg"
  | Byte_select -> "bs"
  | Epc i -> "epc" ^ string_of_int i

let pp ppf = function
  | Binop (op, a, b, d) ->
      Format.fprintf ppf "%s %a,%a,%a" (binop_mnemonic op) Operand.pp a Operand.pp b
        Reg.pp d
  | Mov (a, d) -> Format.fprintf ppf "mov %a,%a" Operand.pp a Reg.pp d
  | Movi8 (c, d) -> Format.fprintf ppf "movi8 #%d,%a" c Reg.pp d
  | Setc (c, a, b, d) ->
      Format.fprintf ppf "s%a %a,%a,%a" Cond.pp c Operand.pp a Operand.pp b Reg.pp d
  | Xbyte (p, w, d) ->
      Format.fprintf ppf "xc %a,%a,%a" Operand.pp p Operand.pp w Reg.pp d
  | Ibyte (s, d) -> Format.fprintf ppf "ic bs,%a,%a" Operand.pp s Reg.pp d
  | Rd_special (s, d) -> Format.fprintf ppf "rds %s,%a" (special_name s) Reg.pp d
  | Wr_special (s, a) -> Format.fprintf ppf "wrs %a,%s" Operand.pp a (special_name s)
  | Rfe -> Format.pp_print_string ppf "rfe"
