(** Branch-delay-slot optimization — the paper's three schemes.

    "There are three major schemes for dealing with delayed branches of
    delay n:
    1. Move n instructions from before the branch till after the branch.
    2. If the branch is a backward loop branch, then duplicate the first n
       instructions in the loop and branch to the n + 1 instruction.
    3. If the branch is conditional, move the next n sequential instructions
       so they immediately follow the branch."

    Scheme 1 is always semantics-preserving (the moved word ran on both
    paths before and still does); it must not move a load (the load-delay
    shadow would extend into an unknown successor) and must not touch what
    the branch reads or links.  Schemes 2 and 3 execute a word speculatively
    on one path, so the word must be un-trapping (a pure ALU piece — no
    memory reference, no divide) unless the branch is unconditional, and its
    result must be dead on the spurious path (checked against {!Liveness}).
    Scheme 3 additionally requires the fall-through block to have no other
    predecessors. *)

type stats = {
  scheme1 : int;  (** slots filled by moving a word from before the branch *)
  scheme2 : int;  (** slots filled by loop-head duplication *)
  scheme3 : int;  (** slots filled from the fall-through block *)
  unfilled : int;  (** slots left as no-ops *)
}

val fill : blocks:Block.t array -> Sblock.t array -> Sblock.t array * stats
(** [fill ~blocks sblocks] — [blocks] are the pre-scheduling blocks (used
    for liveness), positionally parallel to [sblocks].  Returns rewritten
    scheduled blocks (bodies moved, loop heads duplicated with synthetic
    mid-block labels, branches retargeted) and fill statistics.  The
    synthetic labels are numbered [.Ldelay1], [.Ldelay2], ... per call, so
    two compiles of one program give the same image, symbols included, and
    fills on different Domains share no state. *)
