(** Emission: colored IR to symbolic assembly pieces.

    Calling convention (see DESIGN.md):
    - arguments are pushed on the stack by the caller ([sp] drops by one
      word per argument; argument [i] sits at [sp + i]);
    - the callee saves the link register and frame pointer, points [fp] at
      the saved pair, and claims its locals + spill area below;
    - scalar results return in [r12]; [r10]/[r11] are emitter scratch and
      monitor-call argument registers.

    Constants choose the cheapest encoding: a 4-bit inline immediate, an
    8-bit move-immediate, or a whole-word long immediate — and small
    negative subtrahends become reverse-operator forms upstream, exactly
    the paper's Section 2.2 story. *)

open Mips_ir

val emit_program : Config.t -> Irgen.result -> Mips_reorg.Asm.program
(** All functions (the program body first, entry ["$main"]), plus the
    layout's initialized data. *)

val collect_constants : Mips_reorg.Asm.program -> int list
(** Magnitudes of all constants appearing in emitted instructions
    (immediates of every size) — the raw data behind Table 1. *)
