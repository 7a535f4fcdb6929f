(** Differential and kernel soak harnesses over generated programs.

    {b Differential soak}: one generated program is assembled two ways —
    raw program order (correct only on the hardware-interlock comparison
    machine) and fully reorganized (hazard-free on the no-interlock
    machine) — and executed on the matching machines, with and without a
    transient-fault plan.  Every execution must agree with the fault-free
    reorganized reference on everything a program can observe: monitor
    output, exit status, fault attribution, and the static data area.
    (Final register values are deliberately {e not} compared: delay-slot
    schemes 2 and 3 legitimately speculate dead ALU writes, so dead
    registers may differ between schedules.)

    Only {e semantically transparent} fault kinds are injected here —
    flaky-memory restarts and spurious interrupts — so equivalence must
    hold exactly.  Bit flips corrupt state by design and are exercised by
    the {b kernel soak} instead, whose property is survival and precise
    attribution: the kernel never globally halts on a process-local fault;
    every process ends exited, killed (with a {!Mips_os.Kernel.kill_reason})
    or still live at fuel exhaustion. *)

(** One executed variant of a generated program. *)
type outcome = {
  output : string;
  exit_status : int option;
  halted : bool;
  fault : string option;  (** rendered cause/detail when aborted *)
  mem : int list;  (** the static data area after execution *)
  retries : int;  (** transient restarts performed *)
}

type diff = {
  seed : int;
  ok : bool;
  mismatches : (string * string) list;  (** (variant, first divergence) *)
  retries : int;  (** transient restarts across the faulted variants *)
  injected : int;  (** injections decided across the faulted variants *)
}

val differential :
  ?segments:int -> ?fuel:int -> ?flaky_rate:float -> ?irq_rate:float ->
  ?engine:Mips_machine.Cpu.engine -> seed:int -> unit -> diff
(** Generate program [seed]; run reorganized/no-interlock (fault-free
    reference), raw/interlocked, reorganized/no-interlock + faults, and
    raw/interlocked + faults — then the same schedules again under the
    predecoded fast engine ({!Mips_machine.Cpu.Fast}), clean and faulted —
    and compare every variant against the reference.  This makes the
    generator the differential oracle for the fast engine's equivalence
    contract.  [engine] substitutes another engine (e.g.
    {!Mips_machine.Cpu.Jit}) for the alternate-engine variants; the
    variant names carry the engine's {!Mips_machine.Cpu.engine_name}, so
    the default keeps the historical "reorganized-fast" names.
    Defaults: [flaky_rate = 0.01], [irq_rate = 0.005]. *)

(** Aggregate result of a multi-process kernel soak run. *)
type summary = {
  seed : int;
  programs : int;
  steps : int;
  exited : int;
  killed : int;
  live : int;  (** still runnable when fuel ran out *)
  kill_reasons : (string * int) list;  (** reason name -> processes *)
  injected : (string * int) list;  (** fault-plan counters, fixed order *)
  transient_faults : int;
  transient_retries : int;
  watchdog_kills : int;
  double_faults : int;
  oom_kills : int;
  page_faults : int;
  switches : int;
  fuel_exhausted : bool;
  total_cycles : int;
}

val run_soak :
  ?programs:int -> ?segments:int -> ?quantum:int -> ?watchdog:int ->
  ?data_frames:int -> ?code_frames:int -> ?backing_limit:int ->
  ?steps:int -> ?engine:Mips_machine.Cpu.engine ->
  plan:Mips_fault.Plan.config -> seed:int -> unit -> summary
(** Spawn [programs] generated processes (seeds derived from [seed]) under
    a hardened kernel with the given fault plan and run for at most [steps]
    machine steps (default 2,000,000).  Deterministic: equal arguments give
    equal summaries, bit for bit.  The returned summary always satisfies
    [exited + killed + live = programs]. *)

val summary_json : summary -> Mips_obs.Json.t

val result_json : summary -> diff list -> Mips_obs.Json.t
(** The complete soak result as one object —
    [{"kernel": ..., "differential": [...]}] — exactly what
    [mipsc soak --json] prints and what a [mipsd] soak session returns, so
    the two outputs are byte-comparable. *)

(** {2 Checkpointed soak}

    The resilient variant of {!run_soak}, plus [diff_count]
    {!differential} runs at seeds [seed ..]: the run writes versioned,
    checksummed checkpoints as it goes (none without [checkpoint]), and a
    killed-and-resumed run is {e bit-identical} to an uninterrupted one —
    the kernel executes in slices whose loop state lives in the kernel
    itself, programs are regenerated from their seeds on resume, and
    {!Mips_resilience.Snapshot.restore_sched} +
    {!Mips_resilience.Snapshot.restore_machine}
    reinstate the exact machine.  Differential seeds run in supervised
    chunks: a seed whose job is quarantined is attributed in place
    ([mismatches = [("supervisor", error)]]) instead of sinking the sweep. *)

type resilient_result =
  | Complete of summary * diff list
  | Interrupted
      (** only with [max_slices] — the in-process stand-in for a kill *)

val run_checkpointed :
  ?programs:int -> ?segments:int -> ?quantum:int -> ?watchdog:int ->
  ?data_frames:int -> ?code_frames:int -> ?backing_limit:int -> ?steps:int ->
  ?diff_count:int -> ?diff_jobs:int -> ?diff_chunk:int ->
  ?checkpoint:string -> ?checkpoint_every:int -> ?resume:string ->
  ?obs:Mips_obs.Sink.t -> ?metrics:Mips_obs.Metrics.t ->
  ?breaker:Mips_resilience.Policy.Breaker.t -> ?max_slices:int ->
  ?before_write:(unit -> unit) ->
  ?engine:Mips_machine.Cpu.engine ->
  plan:Mips_fault.Plan.config -> seed:int -> unit ->
  (resilient_result, Mips_resilience.Snapshot.error) result
(** Run the soak, checkpointing to [checkpoint] every [checkpoint_every]
    kernel steps (default 250,000) and after each differential chunk
    (default [diff_chunk = 4] seeds); a final "done" checkpoint is written
    at completion, so resuming always works no matter when the previous
    process died.  [resume] restores from a checkpoint written by the
    {e same} parameters (byte-compared; mismatch is [Corrupt]).
    [max_slices] interrupts the kernel phase after that many slices —
    a deterministic in-process kill for tests.  [metrics] (default
    {!Mips_obs.Metrics.null}) receives the [checkpoint.writes] and
    [checkpoint.restores] counters and the differential chunks'
    [supervise.*] counters; [breaker] (default a fresh
    {!Mips_resilience.Supervise.default_breaker}) is the one breaker all
    the chunks share.  [before_write] runs
    immediately before each checkpoint file write — the crash-point hook
    [mipsd]'s recovery harness uses to enumerate every journal write
    boundary (an exception raised there aborts the run {e before} the
    write lands).  With [diff_count = 0] the
    result's diff list is empty and [Complete (s, [])] carries the same
    summary {!run_soak} returns.  [engine] (default [Ref]) drives both the
    kernel phase and the differential phase's alternate-engine variants,
    and is part of the byte-compared checkpoint parameters. *)
