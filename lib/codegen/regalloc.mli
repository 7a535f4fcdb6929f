(** Graph-coloring register allocation (Chaitin style — the paper's
    reference [3], "Register Allocation by Coloring").

    Virtual registers are colored onto the ten allocatable machine registers
    r0-r9.  Values live across a call are spilled to frame slots first (the
    calling convention is caller-save with no reserved registers, as in
    PCC-era compilers), then the interference graph is colored by simplicial
    elimination with optimistic spilling: when no low-degree node remains,
    the highest-degree node is pushed anyway and spilled only if no color is
    left when it pops.  Spilling rewrites the code with short-lived reload
    temporaries and the whole allocation restarts, which always converges. *)

open Mips_ir

type t = {
  body : Ir.instr list;  (** rewritten body: spill code inserted, every
                             remaining vreg carries a color *)
  color : Ir.vreg -> Mips_isa.Reg.t;
  spill_words : int;  (** spill slots used (one word each) *)
}

val allocate : Ir.func -> t

val live_out : Ir.instr list -> Ir.vreg list array
(** Each instruction's live-out vregs, ascending (used by the property
    tests). *)

val check : t -> bool
(** Validate the result: no two simultaneously-live vregs share a color
    (used by the property tests). *)
