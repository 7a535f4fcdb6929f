(** The condition-code comparison architecture.

    An abstract two-address CISC in the VAX/M68000 mould: ALU operations
    (and, optionally, moves) set a condition code as a side effect;
    conditional branches and — on machines that have it — the conditional
    -set instruction read it.  This is the baseline against which the paper
    weighs the MIPS compare-and-branch / set-conditionally design
    (Tables 2-6, Figures 1-2).

    Cost weights are the paper's (Table 6): "register operations take
    time 1, compares take time 2, and branches take time 4". *)

(** Which instructions set the condition code, and whether a conditional
    -set instruction exists — the two axes of the paper's Table 2. *)
type style = {
  set_on_moves : bool;  (** VAX: "sets the condition code on all move
                            operations"; M68000/360 likewise on moves;
                            false = operators only *)
  has_cond_set : bool;  (** M68000 Scc / VAX-style conditional set *)
}

val vax_style : style
val m68000_style : style

type operand =
  | Reg of int  (** unlimited virtual registers, as befits a cost model *)
  | Imm of int
  | Var of string  (** a named memory cell (CISC memory operand) *)
[@@deriving eq, show]

type alu_op = Add | Sub | Mul | Div | Rem | And | Or | Xor
[@@deriving eq, show]

type instr =
  | Mov of operand * operand  (** dst <- src *)
  | Alu of alu_op * operand * operand  (** dst <- dst op src; sets CC *)
  | Cmp of operand * operand  (** sets CC from the comparison *)
  | Bcc of Mips_isa.Cond.t * string  (** branch on condition code *)
  | Scc of Mips_isa.Cond.t * operand  (** dst <- CC test result (0/1) *)
  | Jmp of string
  | Label of string
  | Call of string * operand list * operand option
  | Ret of operand option
[@@deriving eq, show]

val is_branch : instr -> bool
(** [is_branch] covers conditional branches and jumps, not calls/returns. *)

val cost : instr -> int
(** Paper weights: compare 2, branch (conditional or not) 4, label 0,
    call/return 4 (branch-class), everything else 1. *)

val count : (instr -> bool) -> instr list -> int
val pp_instr : Format.formatter -> instr -> unit
val pp_program : Format.formatter -> instr list -> unit
