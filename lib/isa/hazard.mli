(** Pipeline hazard rules — the contract between hardware and reorganizer.

    The machine has {e no interlock hardware} (paper, Section 4.2.1).  The
    rules the software must respect are:

    - {b Load delay 1}: a register written by a load is not visible to the
      immediately following instruction word; that word still reads the old
      value.  ALU results are bypassed and visible immediately.
    - {b Branch delay}: the [Branch.delay] words after a control transfer are
      always executed (1 for direct branches and traps, 2 for indirect
      jumps).
    - A branch may not sit in another branch's delay slot.

    These predicates are used by the scheduler (to know what it may emit) and
    by tests (to check that scheduled code is hazard-free). *)

val load_use_conflict : earlier:_ Word.t -> later:_ Word.t -> bool
(** Whether [later], placed immediately after [earlier], would read a
    register that [earlier] loads — i.e. would observe the stale value. *)

val sequence_hazards : 'lbl Word.t array -> (int * Reg.t) list
(** All load-use violations in a straight-line sequence, as
    [(index_of_later_word, register)] pairs.  Branch structure is not
    checked here (the reorganizer handles it structurally). *)

val mem_dependent : Mem.t -> Mem.t -> bool
(** Whether two memory pieces must keep their program order: any pair
    involving a store conflicts unless both reference provably distinct
    absolute addresses (no aliasing assumptions otherwise: "the algorithm
    must also avoid reordering loads and stores that might be aliased").
    The reorganizer's whole dependence rule is [Mips_reorg.Dag.latency]. *)
