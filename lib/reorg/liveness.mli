(** Block-level register liveness over the assembly control-flow graph.

    Used by the branch-delay optimizer to decide when an instruction may
    execute speculatively on a path where its result is dead (the paper's
    Figure 4 note: "it is assumed that r2 is dead outside of the section
    shown").  Calls, returns and unknown control transfers are treated as
    using every register, so the analysis only ever over-approximates
    liveness. *)

open Mips_isa

val live_in : index:(string, int) Hashtbl.t -> Block.t array -> Reg.Set.t array
(** Fixpoint solution of the standard backward dataflow equations.
    [index] is {!Block.label_index} of the blocks; successors are computed
    from it once, before the first iteration. *)
