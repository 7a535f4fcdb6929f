type style = { set_on_moves : bool; has_cond_set : bool }

let vax_style = { set_on_moves = true; has_cond_set = false }
let m68000_style = { set_on_moves = true; has_cond_set = true }

type operand = Reg of int | Imm of int | Var of string [@@deriving eq, show]
type alu_op = Add | Sub | Mul | Div | Rem | And | Or | Xor [@@deriving eq, show]

type instr =
  | Mov of operand * operand
  | Alu of alu_op * operand * operand
  | Cmp of operand * operand
  | Bcc of Mips_isa.Cond.t * string
  | Scc of Mips_isa.Cond.t * operand
  | Jmp of string
  | Label of string
  | Call of string * operand list * operand option
  | Ret of operand option
[@@deriving eq, show]

let is_branch = function Bcc _ | Jmp _ -> true | _ -> false

let cost = function
  | Cmp _ -> 2
  | Bcc _ | Jmp _ | Call _ | Ret _ -> 4
  | Label _ -> 0
  | Mov _ | Alu _ | Scc _ -> 1

let count pred prog = List.length (List.filter pred prog)

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Imm n -> Format.fprintf ppf "#%d" n
  | Var v -> Format.pp_print_string ppf v

let pp_instr ppf = function
  | Mov (src, dst) -> Format.fprintf ppf "mov %a,%a" pp_operand src pp_operand dst
  | Alu (op, src, dst) ->
      Format.fprintf ppf "%s %a,%a" (alu_name op) pp_operand src pp_operand dst
  | Cmp (a, b) -> Format.fprintf ppf "cmp %a,%a" pp_operand a pp_operand b
  | Bcc (c, l) -> Format.fprintf ppf "b%a %s" Mips_isa.Cond.pp c l
  | Scc (c, dst) -> Format.fprintf ppf "s%a %a" Mips_isa.Cond.pp c pp_operand dst
  | Jmp l -> Format.fprintf ppf "bra %s" l
  | Label l -> Format.fprintf ppf "%s:" l
  | Call (f, args, _) ->
      Format.fprintf ppf "call %s(%d args)" f (List.length args)
  | Ret _ -> Format.pp_print_string ppf "ret"

let pp_program ppf prog =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun i ->
      match i with
      | Label _ -> Format.fprintf ppf "%a@," pp_instr i
      | _ -> Format.fprintf ppf "        %a@," pp_instr i)
    prog;
  Format.fprintf ppf "@]"
