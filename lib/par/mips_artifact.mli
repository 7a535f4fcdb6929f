(** A content-keyed cache of the evaluation's build and simulation
    artifacts.

    Every table of the paper's evaluation consumes some mix of: the checked
    program, the symbolic assembly for a code-generation config, the
    reorganized machine program at a postpass level, and the statistics of
    a full simulation.  Each artifact is computed once per distinct key —
    (source digest, codegen config, postpass level, engine, fuel, input) —
    and shared by every consumer, including worker domains: lookups are
    mutex-protected, computes run outside the lock, and a compute that
    loses a publish race to an identical key adopts the winner's value, so
    callers always share one physical copy.  All cached values are
    deterministic functions of their key, which is what makes a parallel
    warm-up phase safe: workers only decide {e when} an artifact is built,
    never {e what} it contains. *)

type sim = {
  program : Mips_machine.Program.t;
  result : Mips_machine.Hosted.result;
  stats : Mips_machine.Stats.t;
      (** read-only by convention: shared across consumers *)
}

val default_fuel : int
(** 500,000,000 steps — the harness-wide budget corpus runs execute under. *)

val tast : string -> Mips_frontend.Tast.program
(** The checked program for a source text. *)

val asm : ?config:Mips_ir.Config.t -> string -> Mips_reorg.Asm.program
(** The symbolic assembly under a code-generation config (default
    {!Mips_ir.Config.default}). *)

val compiled :
  ?config:Mips_ir.Config.t -> ?level:Mips_reorg.Pipeline.level -> string ->
  Mips_machine.Program.t
(** The reorganized, assembled program at a postpass level (default
    [Delay_filled]). *)

val simulated :
  ?config:Mips_ir.Config.t -> ?level:Mips_reorg.Pipeline.level ->
  ?engine:Mips_machine.Cpu.engine -> ?fuel:int -> ?input:string -> string ->
  sim
(** A full simulation of the program: compiled as above, then run to
    completion (or the fuel budget) on a reset machine matching the
    config's addressing mode, borrowed with [Cpu.with_machine].  [engine]
    defaults to [Cpu.Jit] on both machines, which is bit-identical to the
    reference engine; linking this module installs it
    ([Mips_jit.install]).  Pass [~engine:Cpu.Ref] for the oracle.  The
    engine is part of the key, so runs on different engines never share an
    entry. *)

val entry_sim :
  ?config:Mips_ir.Config.t -> ?level:Mips_reorg.Pipeline.level ->
  ?engine:Mips_machine.Cpu.engine -> ?fuel:int ->
  Mips_corpus.Corpus.entry -> sim
(** {!simulated} on a corpus entry's source with the entry's input. *)

type counters = { hits : int; misses : int; corrupt : int }

val counters : unit -> counters
(** Process-lifetime totals across all four tables (not reset by
    {!clear}).  Every entry is published with a fingerprint of its
    serialized form; a hit is re-fingerprinted before being served, and a
    mismatch — a consumer mutated a shared artifact, or memory was damaged
    — evicts the entry, counts in [corrupt], and recomputes instead of
    serving the damaged value. *)

val clear : unit -> unit
(** Empty every table — for benchmarks that need a cold harness. *)
