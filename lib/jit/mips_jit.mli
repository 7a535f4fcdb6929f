(** Trace-JIT execution engine ([--engine=jit]).

    A third engine over the same machine state: per-PC hotness counters
    detect hot basic blocks; at {!hot_threshold} executions the
    straight-line superblock from that entry (through at most one
    terminating branch and its delay slots, up to {!max_trace_words} words)
    is compiled into a single fused closure.  PC and delayed-load latch
    bookkeeping are hoisted out of the block body, statistics are applied
    once per block from precomputed sums, cmp+branch and load+use pairs are
    fused into single fragments, and a conditional branch back to its own
    entry makes the loop spin inside the closure.

    Traces exist only for the default machine configuration (no interlocks,
    word-addressed) executing in kernel mode with mapping off; everything
    else — other configurations, user mode, tracing, profiling, fault
    injection, pending interrupts, traps, and cold code — runs through
    {!Mips_machine.Cpu.step_fast}, so the jit engine degrades to the fast
    engine rather than diverging.  The trace cache is invalidated through
    the {!Mips_machine.Cpu.write_code} path (self-modifying code) and reset
    on {!Mips_machine.Cpu.load_program}.

    The equivalence contract is the fast engine's, unchanged: bit-identical
    architectural state and {!Mips_machine.Stats} versus the reference
    interpreter, for any program, any fault plan, any fuel. *)

val hot_threshold : int
(** Executions of an entry pc before its block is compiled (32). *)

val run :
  ?fuel:int ->
  Mips_machine.Cpu.t ->
  (Mips_machine.Cpu.t -> Mips_machine.Cause.t -> [ `Resume | `Halt ]) -> bool
(** The whole-run jit dispatch loop; same contract and fuel semantics as
    {!Mips_machine.Cpu.run} (each simulated word costs 1 fuel, a
    dispatching step costs 1).  The steady-state loop and the compiled
    trace closures allocate no minor words per simulated instruction. *)

val install : unit -> unit
(** Register {!run} as the [Cpu.Jit] engine
    ({!Mips_machine.Cpu.set_jit_runner}).  Idempotent; call once at
    program start before requesting [--engine=jit]. *)
