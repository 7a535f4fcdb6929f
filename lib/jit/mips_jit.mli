(** Trace-JIT execution engine ([--engine=jit]).

    A third engine over the same machine state: per-PC hotness counts
    detect hot basic blocks; at {!hot_threshold} executions the
    straight-line superblock from that entry (through at most one
    terminating branch and its delay slots) is compiled into a single
    fused closure, which is entered at once.  PC and delayed-load latch
    bookkeeping are hoisted out of the block body, a trace counts its runs
    and the statistics fold charges them to its words, cmp+branch and
    load+use pairs are fused into single fragments, and a conditional
    branch back to its own entry makes the loop spin inside the closure.

    Traces exist for the delayed-load machines, word and byte addressed,
    executing in kernel mode with mapping off; on the byte machine a trace
    adds each completed word's weighted cycles ({!Mips_machine.Cpu.weight})
    in execution order, since that float sum is never folded.  Everything
    else — the interlocked machine, user mode, tracing, profiling, fault
    injection, pending interrupts, traps, and cold code — runs through
    {!Mips_machine.Cpu.step_fast}, so the jit engine degrades to the fast
    engine rather than diverging.  A trace's per-pc state lives in its
    entry slot's {!Mips_machine.Cpu.xword}.  A trace is invalidated when a
    word of its body is written, by {!Mips_machine.Cpu.write_code}
    (self-modifying code) or by {!Mips_machine.Cpu.load_program}, which
    leaves traces over words it does not reload in place;
    {!Mips_machine.Cpu.reset} drops them all.

    The equivalence contract is the fast engine's, unchanged: bit-identical
    architectural state and {!Mips_machine.Stats} versus the reference
    interpreter, for any program, any fault plan, any fuel. *)

val hot_threshold : int
(** Executions of an entry pc before its block is compiled (32). *)

val run :
  fuel:int ->
  Mips_machine.Cpu.t ->
  (Mips_machine.Cpu.t -> Mips_machine.Cause.t -> [ `Resume | `Halt ]) -> int
(** The whole-run jit dispatch loop; same contract, fuel semantics and
    result (the fuel left) as {!Mips_machine.Cpu.run_engine} (each
    simulated word costs 1 fuel, a dispatching step costs 1).  The
    steady-state loop and the compiled trace closures allocate no minor
    words per simulated instruction. *)

val install : unit -> unit
(** Register {!run} as the [Cpu.Jit] engine
    ({!Mips_machine.Cpu.set_jit_runner}).  Idempotent; call once at
    program start before requesting [--engine=jit]. *)
