(** One-time instruction-word lowering for the fast execution engine.

    The paper's bet is that work moved out of the per-cycle hardware path
    into a one-time software pass is nearly free; the simulator makes the
    same bet about itself.  {!lower} flattens everything {!Cpu.step}
    recomputes on every cycle — the piece projections ([Word.alu] /
    [Word.mem] / [Word.branch]), the register read/write sets, the static
    hazard classification — into one immutable record built once per
    instruction word.  The fast engine ({!Cpu.step_fast}) then executes
    from these records (further specialized into per-word closures) and the
    reference interpreter remains the oracle: both must produce
    bit-identical architectural state and {!Stats}.  {!Stats.charge} adds
    what a word costs each time it executes.

    Entries are pure data and machine-independent: the same entry is valid
    for the word- and byte-addressed machines, interlocked or not (the
    engine applies the configuration-dependent parts itself). *)

open Mips_isa

type entry = {
  word : int Word.t;  (** the original instruction word *)
  alu : Alu.t option;  (** resolved piece variants, no re-projection *)
  mem : Mem.t option;
  branch : int Branch.t option;
  reads : Reg.Set.t;  (** = [Word.reads word] *)
  writes : Reg.Set.t;  (** = [Word.writes word] *)
  load_writes : Reg.Set.t;  (** = [Word.load_writes word] *)
  (* static hazard flags *)
  may_stall : bool;  (** reads at least one register, so an interlocked
                         machine may have to stall it after a load *)
  is_trap : bool;  (** enters the exception machinery on its own *)
  privileged : bool;  (** faults when executed at user level *)
  may_arith_fault : bool;  (** overflow-trappable op, or a division *)
  may_fault : bool;  (** any of the above, or a data-memory reference *)
  render : string lazy_t;  (** trace string, rendered on first use only *)
}

val nop : entry
(** The lowering of {!Mips_isa.Word.Nop} (shared, never rebuilt). *)

val lower : int Word.t -> entry

val of_program : Program.t -> entry array
(** The one-time pass: lower every word of a program image.  Element [i]
    describes [code.(i)]. *)

(** {2 Block structure}

    Helpers for basic-block construction (the profiler's block boundaries
    are derived here rather than re-projecting pieces per word). *)

val ends_block : entry -> bool
(** The word carries a branch piece (including traps) — a block
    terminator. *)

val branch_target : entry -> int option
(** Static target of a direct branch piece; [None] for indirect jumps,
    traps, and non-branching words. *)

val branch_delay : entry -> int option
(** {!Mips_isa.Branch.delay} of the word's branch piece: 1 direct, 2
    indirect, 0 for traps; [None] for a non-branching word. *)
