type 'lbl t =
  | Cbr of Cond.t * Operand.t * Operand.t * 'lbl
  | Jump of 'lbl
  | Jal of 'lbl * Reg.t
  | Jind of Reg.t
  | Jalind of Reg.t * Reg.t
  | Trap of int
[@@deriving eq, ord, show]

let map f = function
  | Cbr (c, a, b, l) -> Cbr (c, a, b, f l)
  | Jump l -> Jump (f l)
  | Jal (l, r) -> Jal (f l, r)
  | Jind r -> Jind r
  | Jalind (r, link) -> Jalind (r, link)
  | Trap c -> Trap c

let label = function
  | Cbr (_, _, _, l) | Jump l | Jal (l, _) -> Some l
  | Jind _ | Jalind _ | Trap _ -> None

let delay = function
  | Cbr _ | Jump _ | Jal _ -> 1
  | Jind _ | Jalind _ -> 2
  | Trap _ -> 0

let is_conditional = function
  | Cbr (c, _, _, _) -> not (Cond.equal c Cond.Always)
  | Jump _ | Jal _ | Jind _ | Jalind _ | Trap _ -> false

let reads = function
  | Cbr (_, a, b, _) -> Operand.add_read (Operand.add_read Reg.Set.empty a) b
  | Jind r | Jalind (r, _) -> Reg.Set.singleton r
  | Jump _ | Jal _ | Trap _ -> Reg.Set.empty

let writes = function
  | Jal (_, link) | Jalind (_, link) -> Some link
  | Cbr _ | Jump _ | Jind _ | Trap _ -> None

let trap_code_max = 4095

let pp pp_lbl ppf = function
  | Cbr (c, a, b, l) ->
      Format.fprintf ppf "b%a %a,%a,%a" Cond.pp c Operand.pp a Operand.pp b pp_lbl l
  | Jump l -> Format.fprintf ppf "jmp %a" pp_lbl l
  | Jal (l, r) -> Format.fprintf ppf "jal %a,%a" pp_lbl l Reg.pp r
  | Jind r -> Format.fprintf ppf "jind (%a)" Reg.pp r
  | Jalind (r, link) -> Format.fprintf ppf "jalind (%a),%a" Reg.pp r Reg.pp link
  | Trap c -> Format.fprintf ppf "trap #%d" c

let pp_sym ppf t = pp Format.pp_print_string ppf t
let pp_abs ppf t = pp Format.pp_print_int ppf t
