type t = R of Reg.t | I4 of int [@@deriving eq, ord, show]

let reg r = R r
let fits_imm4 n = n >= 0 && n <= 15

let imm4 n =
  if not (fits_imm4 n) then invalid_arg "Operand.imm4: constant out of range";
  I4 n

let add_read set = function R r -> Reg.Set.add r set | I4 _ -> set

let pp ppf = function
  | R r -> Reg.pp ppf r
  | I4 n -> Format.fprintf ppf "#%d" n
