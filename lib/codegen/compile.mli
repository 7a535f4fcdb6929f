(** The full compilation driver: source text to loadable program image.

    Pipeline: {!Mips_frontend.Parser} → {!Mips_frontend.Semant} →
    {!Mips_ir.Irgen} → {!Regalloc} → {!Emit} → {!Mips_reorg.Pipeline}
    (scheduling, packing, branch-delay filling, assembly). *)

open Mips_ir

val to_asm : ?config:Config.t -> string -> Mips_reorg.Asm.program
(** Compile source down to symbolic assembly (before the reorganizer). *)

val to_asm_checked :
  ?config:Config.t -> Mips_frontend.Tast.program -> Mips_reorg.Asm.program
(** Same, from an already-checked program. *)

val compile :
  ?config:Config.t ->
  ?level:Mips_reorg.Pipeline.level ->
  string ->
  Mips_machine.Program.t
(** Compile and assemble at the given postpass level (default: all
    optimizations). *)

val compile_profiled :
  ?config:Config.t ->
  ?level:Mips_reorg.Pipeline.level ->
  obs:Mips_obs.Metrics.t ->
  string ->
  Mips_machine.Program.t
(** Like {!compile}, charging per-phase wall time and pass statistics to
    the registry: ["compile.frontend"] (lex/parse/check),
    ["compile.codegen"] (lowering, register allocation, emission) and the
    reorganizer's ["reorg.*"] entries — what [mipsc profile] reports. *)

val run :
  ?config:Config.t ->
  ?level:Mips_reorg.Pipeline.level ->
  ?fuel:int ->
  ?input:string ->
  string ->
  Mips_machine.Hosted.result
(** Compile and execute on a fresh machine (word- or byte-addressed to
    match [config]). *)

val run_with_machine :
  ?config:Config.t ->
  ?level:Mips_reorg.Pipeline.level ->
  ?fuel:int ->
  ?input:string ->
  ?trace:Mips_obs.Sink.t ->
  ?engine:Mips_machine.Cpu.engine ->
  string ->
  Mips_machine.Hosted.result * Mips_machine.Cpu.t
(** Like {!run}, also returning the machine for statistics inspection.
    [trace] attaches an event sink to the machine before execution;
    [engine] selects the execution engine (default reference). *)

val machine_config : Config.t -> Mips_machine.Cpu.config
(** The simulator configuration matching a code-generation configuration. *)
