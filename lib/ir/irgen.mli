(** Lowering from the typed AST to the virtual-register IR.

    Per-variable placement: scalars that never have their address taken live
    in virtual registers (the register allocator decides which stay in
    machine registers — the paper: "there are efficient register allocation
    algorithms which produce good assignments"); arrays, records, globals,
    and anything passed by reference live in memory.

    Boolean expressions are lowered according to the configured strategy:
    [Setcond] uses the MIPS {e set conditionally} instruction for values and
    compare-and-branch for control (Figure 3); [Early_out] emits
    short-circuit jumping code (Figure 1, right column). *)

open Mips_frontend

type result = {
  funcs : Ir.func list;  (** all functions, the program body as ["$main"] *)
  layout : Layout.t;
}

val lower : Config.t -> Tast.program -> result

val trap_codes : (string * int) list
(** The monitor-call codes this generator emits, by name — kept equal to
    [Mips_machine.Monitor]'s (checked by a test; this library does not
    depend on the machine). *)
