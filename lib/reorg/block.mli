(** Basic-block partitioning.

    "All code reorganization is done on a basic block basis."  A block is a
    maximal label-free, branch-free run of pieces, optionally preceded by
    labels and optionally closed by a control-transfer terminator.  Traps and
    calls (jal) end a block too: everything after them must stay after them
    in program order, and their successors fall through. *)

open Mips_isa

type t = {
  labels : string list;  (** labels naming the block's entry (may be several) *)
  body : Asm.item list;  (** non-branch pieces, in program order *)
  term : (string Branch.t * Note.t) option;  (** closing control transfer *)
}

val partition : Asm.line list -> t list
(** Split a line list into blocks.  Every branch piece becomes a terminator;
    a label always starts a new block.  Concatenating the blocks in order
    reproduces the original program order. *)

val flatten : t list -> Asm.line list
(** Inverse of {!partition} up to empty-block normalization. *)

val block_uses : t -> Reg.Set.t
(** Registers read in the block before being written, in program order —
    the liveness [use] set.  Conservative at control transfers: a trap uses
    the argument registers (r10, r11); calls and indirect jumps (returns)
    use {e every} register, so nothing live across them is ever declared
    dead. *)

val block_defs : t -> Reg.Set.t
(** Registers written in the block (liveness [def] set).  A trap defines the
    result register. *)

val label_index : t array -> (string, int) Hashtbl.t
(** Each entry label mapped to the first block carrying it.  Built once
    per compile, so no label lookup scans the blocks. *)

val successors : (string, int) Hashtbl.t -> t array -> int -> int list
(** [successors index blocks i], with [index = label_index blocks]:
    successor block indices of block [i] in the array: the fall-through
    block (when the terminator is absent, conditional, a call, or a trap)
    and the branch target (when the terminator names a label).  Indirect
    jumps (returns) have no static successors. *)
