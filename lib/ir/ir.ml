(* The intermediate representation: instruction pieces over virtual
   registers, produced from the typed AST and consumed by the register
   allocator and emitter.  The shapes mirror the machine pieces so that
   emission after coloring is a direct mapping. *)

open Mips_isa

type vreg = int [@@deriving eq, show]

type operand =
  | V of vreg
  | C of int  (* a constant of any magnitude; the emitter picks the 4-bit
                 inline form, an 8-bit move immediate, or a long immediate *)
[@@deriving eq, show]

type frame_ref =
  | Local_slot of int  (* unit offset within the locals area *)
  | Param_slot of int  (* parameter ordinal *)
  | Spill_slot of int  (* allocated by the register allocator *)
[@@deriving eq, show]

type addr =
  | Abs_a of int
  | Based of operand * int  (* base + constant displacement, address units *)
  | Indexed of operand * operand
  | Shifted_a of operand * operand * int  (* base + (index lsr n) *)
  | Scaled_a of operand * operand * int
      (* base + (index lsl n): the byte machine's scaled-index mode *)
  | Frame of frame_ref
[@@deriving eq, show]

type width = W32 | W8 [@@deriving eq, show]

type instr =
  | Bin of Alu.binop * operand * operand * vreg
  | Setcond of Cond.t * operand * operand * vreg
  | Mov of operand * vreg
  | Lea of addr * vreg  (* load effective address *)
  | Load of { addr : addr; dst : vreg; width : width; note : Note.t }
  | Store of { src : operand; addr : addr; width : width; note : Note.t }
  | Xbyte of operand * operand * vreg  (* byte ptr, word value, dst *)
  | Set_bs of operand  (* stage a byte pointer in the byte-select register *)
  | Ibyte of operand * vreg  (* insert src byte into the word held in vreg *)
  | Lbl of string
  | Br of Cond.t * operand * operand * string
  | Jmp of string
  | Call of { func : string; args : operand list; dst : vreg option }
  | Trapcall of { code : int; args : operand list; dst : vreg option }
  | Ret of operand option  (* the function result, moved to the result
                              register by the epilogue *)
[@@deriving eq, show]

(* A function ready for register allocation and emission. *)
type func = {
  name : string;
  body : instr list;
  nparams : int;
  local_units : int;  (* locals area size, in address units *)
  ret_vreg : vreg option;  (* carries the function result to Ret *)
  vreg_count : int;
}

(* [v :: acc] for an operand [V v] *)
let cons_vreg op acc = match op with V v -> v :: acc | C _ -> acc

let addr_vregs = function
  | Abs_a _ | Frame _ -> []
  | Based (b, _) -> cons_vreg b []
  | Indexed (a, b) | Shifted_a (a, b, _) | Scaled_a (a, b, _) ->
      cons_vreg a (cons_vreg b [])

(* Virtual registers read / written by an instruction. *)
let uses = function
  | Bin (_, a, b, _) | Setcond (_, a, b, _) | Xbyte (a, b, _) | Br (_, a, b, _) ->
      cons_vreg a (cons_vreg b [])
  | Mov (a, _) | Set_bs a -> cons_vreg a []
  | Lea (a, _) -> addr_vregs a
  | Load { addr; _ } -> addr_vregs addr
  | Store { src; addr; _ } -> cons_vreg src (addr_vregs addr)
  | Ibyte (a, w) -> cons_vreg a [ w ]
  | Call { args; _ } | Trapcall { args; _ } -> List.fold_right cons_vreg args []
  | Ret (Some op) -> cons_vreg op []
  | Lbl _ | Jmp _ | Ret None -> []

let defs = function
  | Bin (_, _, _, d)
  | Setcond (_, _, _, d)
  | Mov (_, d)
  | Lea (_, d)
  | Xbyte (_, _, d)
  | Ibyte (_, d) ->
      [ d ]
  | Load { dst; _ } -> [ dst ]
  | Call { dst; _ } | Trapcall { dst; _ } -> Option.to_list dst
  | Store _ | Set_bs _ | Lbl _ | Br _ | Jmp _ | Ret _ -> []

let is_call = function Call _ -> true | _ -> false

let pp_operand ppf = function
  | V v -> Format.fprintf ppf "v%d" v
  | C c -> Format.fprintf ppf "#%d" c

let pp_addr ppf = function
  | Abs_a a -> Format.fprintf ppf "@%d" a
  | Based (b, d) -> Format.fprintf ppf "%d(%a)" d pp_operand b
  | Indexed (a, b) -> Format.fprintf ppf "(%a,%a)" pp_operand a pp_operand b
  | Shifted_a (a, b, n) ->
      Format.fprintf ppf "(%a,%a>>%d)" pp_operand a pp_operand b n
  | Scaled_a (a, b, n) ->
      Format.fprintf ppf "(%a,%a<<%d)" pp_operand a pp_operand b n
  | Frame (Local_slot i) -> Format.fprintf ppf "local[%d]" i
  | Frame (Param_slot i) -> Format.fprintf ppf "param[%d]" i
  | Frame (Spill_slot i) -> Format.fprintf ppf "spill[%d]" i

let pp_instr ppf = function
  | Bin (op, a, b, d) ->
      Format.fprintf ppf "v%d := %a %s %a" d pp_operand a (Alu.show_binop op)
        pp_operand b
  | Setcond (c, a, b, d) ->
      Format.fprintf ppf "v%d := %a %a %a" d pp_operand a Cond.pp c pp_operand b
  | Mov (a, d) -> Format.fprintf ppf "v%d := %a" d pp_operand a
  | Lea (a, d) -> Format.fprintf ppf "v%d := &%a" d pp_addr a
  | Load { addr; dst; width; _ } ->
      Format.fprintf ppf "v%d := load%s %a" dst
        (match width with W8 -> "8" | W32 -> "")
        pp_addr addr
  | Store { src; addr; width; _ } ->
      Format.fprintf ppf "store%s %a, %a"
        (match width with W8 -> "8" | W32 -> "")
        pp_operand src pp_addr addr
  | Xbyte (p, w, d) ->
      Format.fprintf ppf "v%d := xbyte %a of %a" d pp_operand p pp_operand w
  | Set_bs a -> Format.fprintf ppf "bs := %a" pp_operand a
  | Ibyte (s, w) -> Format.fprintf ppf "v%d := ibyte %a" w pp_operand s
  | Lbl l -> Format.fprintf ppf "%s:" l
  | Br (c, a, b, l) ->
      Format.fprintf ppf "if %a %a %a goto %s" pp_operand a Cond.pp c pp_operand b l
  | Jmp l -> Format.fprintf ppf "goto %s" l
  | Call { func; args; dst } ->
      (match dst with Some d -> Format.fprintf ppf "v%d := " d | None -> ());
      Format.fprintf ppf "call %s(%a)" func
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_operand)
        args
  | Trapcall { code; args; dst } ->
      (match dst with Some d -> Format.fprintf ppf "v%d := " d | None -> ());
      Format.fprintf ppf "trap %d(%a)" code
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_operand)
        args
  | Ret None -> Format.pp_print_string ppf "ret"
  | Ret (Some op) -> Format.fprintf ppf "ret %a" pp_operand op
