(** A demand-paged, multi-programmed kernel over the simulator —
    the systems story of the paper's Section 3, made executable.

    - {b Segmentation}: each process gets a process id; the on-chip
      segmentation unit gives it a private 64K-word segment of the global
      virtual space.  Code and static data live in the low half of the
      process's address space, the stack grows in the high half — a
      reference between the two valid regions faults, exactly as
      Section 3.1 prescribes.  Because the pid travels in the address,
      {e context switches never touch the page map}; the kernel counts map
      changes during switches to demonstrate it.
    - {b Demand paging}: instruction and data pages fault in on first
      touch; a clock algorithm evicts when physical frames run out, writing
      dirty data pages to a backing store.
    - {b Exceptions}: every kernel entry goes through the architectural
      dispatch (surprise push, EPC save, PC chain to 0); the kernel reads
      the cause fields to decide, then performs the return-from-exception.
    - {b Scheduling}: round-robin.  Quantum expiry is signalled by raising
      the external interrupt line (the paper's single-line interface), so
      preemption exercises the interrupt dispatch path.
    - {b Context switches}: the kernel saves/restores the sixteen general
      registers through the dual instruction/data memory interface — the
      paper's observation that register-save sequences run at full memory
      bandwidth is charged as 32 memory cycles plus the dispatch overhead,
      and measured by the report.
    - {b Robustness}: faults are process-local.  A per-process cycle-budget
      watchdog, bounded retry with exponential backoff for injected
      transient memory faults, double-fault detection (a process that keeps
      faulting with no successful step in between is killed rather than
      looped through dispatch forever), and graceful out-of-frames /
      out-of-backing-store kills guarantee the kernel itself never hangs or
      crashes on a misbehaving (or fault-injected) process. *)

open Mips_machine

(** Why the kernel terminated a process. *)
type kill_reason =
  | Arch_fault of Cause.t * int
      (** an unserviceable architectural exception (cause, cause-detail) —
          a wild reference, privilege violation, unknown trap code, ... *)
  | Watchdog of int
      (** exceeded its cycle budget; the payload is the cycles it had used *)
  | Retry_exhausted of int
      (** an injected transient memory fault kept firing on the same word
          past the retry bound; the payload is the attempts made *)
  | Double_fault of Cause.t * Cause.t
      (** kept faulting with no successful step in between (oldest and
          newest cause of the streak) *)
  | Out_of_memory of Mips_machine.Pagemap.space
      (** a page fault that could not be serviced: no evictable frame in
          this space's pool (or the backing store is full) *)

val kill_reason_name : kill_reason -> string

(** {2 The kernel's state}

    Concrete, like {!Mips_machine.Cpu.t}, so the checkpoint codec
    ([Mips_resilience.Snapshot.sched_to_string]) reads and writes these
    records directly.  Everything else treats them as the kernel's own:
    change them only through the functions below. *)

type state = Ready | Exited of int | Killed of kill_reason

(** One process control block.  For the installed process the machine holds
    the live registers, PC chain and surprise register; [regs], [chain] and
    [usr] are the copy last saved at a switch. *)
type pcb = {
  pid : int;  (** its place in the process table, from 0 *)
  pname : string;
  program : Program.t;
  data_image : int array;  (** the initial static data, filled on demand *)
  regs : int array;  (** the sixteen general registers *)
  chain : int array;  (** the PC chain, three words *)
  mutable usr : Surprise.t;  (** user-mode surprise register, popped form *)
  io : Hosted.io;  (** its monitor-call input and output *)
  mutable st : state;
  mutable cycles_used : int;  (** user instruction words, for the watchdog *)
  mutable retries : int;
      (** consecutive transient retries, no step between *)
  mutable total_retries : int;
  mutable consec_faults : int;  (** faults with no successful step between *)
  mutable first_fault : Cause.t option;  (** oldest cause in that streak *)
}

(** The owner of a physical frame: a process and a global virtual page. *)
type frame_owner = { fo_pid : int; fo_gpage : int }

type t = {
  cpu : Cpu.t;
  quantum : int;
  watchdog : int option;  (** per-process cycle budget *)
  max_retries : int;
  double_fault_limit : int;
  backing_limit : int option;  (** backing-store capacity, in pages *)
  mutable procs : pcb list;  (** in pid order *)
  mutable current : pcb option;  (** the installed process *)
  code_frames : frame_owner option array;
  data_frames : frame_owner option array;
  mutable code_clock : int;  (** clock hand over [code_frames] *)
  mutable data_clock : int;
  backing : (int * int, int array) Hashtbl.t;
      (** (pid, data gpage) -> the page's words *)
  mutable switches : int;
  mutable page_faults : int;
  mutable evictions : int;
  mutable interrupts : int;
  mutable map_changes_outside_fault : int;
  mutable in_switch : bool;  (** inside a context switch, for the map-change count *)
  mutable kernel_cycles : int;
  mutable watchdog_kills : int;
  mutable transient_faults : int;
  mutable transient_retries : int;
  mutable double_faults : int;
  mutable oom_kills : int;
  mutable out_of_fuel : bool;
  mutable quantum_left : int;  (** words to the next quantum interrupt *)
  mutable started : bool;  (** first ready process installed *)
  mutable halted : bool;  (** no ready process left *)
  trace : Mips_obs.Sink.t;
  engine : Cpu.engine;
}

val max_procs : int
(** Process-table capacity: [2^mask_bits = 256], the pid field's worth. *)

val create :
  ?data_frames:int ->
  ?code_frames:int ->
  ?quantum:int ->
  ?watchdog:int ->
  ?max_retries:int ->
  ?double_fault_limit:int ->
  ?backing_limit:int ->
  ?fault_plan:Mips_fault.Plan.t ->
  ?trace:Mips_obs.Sink.t ->
  ?engine:Mips_machine.Cpu.engine ->
  ?cpu:Cpu.t ->
  unit ->
  t
(** [cpu] is the machine the kernel runs on: a fresh
    {!Mips_machine.Cpu.default_config} machine by default, or one the
    caller lends, such as a {!Mips_machine.Cpu.with_machine} borrow, which
    must have that config and be in its {!Mips_machine.Cpu.reset} state.
    Read the kernel's {!report} before a borrowed machine goes back.

    [data_frames]/[code_frames]: physical frames available for paging
    (default 32 each); [quantum]: instructions between timer interrupts
    (default 2000).

    Robustness knobs: [watchdog] is a per-process cycle budget (default
    none — processes may run forever); [max_retries] bounds consecutive
    transient-fault retries of one word (default 8); [double_fault_limit]
    bounds consecutive non-transient faults with no successful step between
    them (default 8); [backing_limit] caps the backing store, in pages
    (default unlimited).  [fault_plan] attaches a {!Mips_fault.Plan.t} to
    the underlying machine for seeded transient-fault injection.

    [trace] receives the kernel's scheduling story — [Spawn],
    [Context_switch], [Page_fault] (serviced demand page-ins), [Retry],
    [Watchdog_kill], [Double_fault], [Proc_exit] and [Proc_killed] — and is
    also attached to the underlying machine, so per-word events and monitor
    calls interleave in the same stream.

    [engine] selects the machine's engine (default {!Mips_machine.Cpu.Ref});
    [Fast] and [Jit] (which steps mapped user mode on [Fast]) drop every
    quantum-expiry interrupt, injected fault and traced cycle back to the
    reference step, so scheduling behaviour is unchanged. *)

val user_stack_top : int
(** Virtual stack top for user programs (in the high half of the process
    address space).  Compile OS-hosted programs with a configuration whose
    [stack_top] is this value. *)

val spawn : t -> ?input:string -> name:string -> Program.t -> unit
(** Add a process (at most {!max_procs} = 256, the capacity of the pid
    field the segmentation unit folds into addresses).  Nothing is loaded
    into memory until the process faults its first page in.
    @raise Invalid_argument when the table is full or the program does not
    fit a segment half. *)

type proc_report = {
  pname : string;
  output : string;
  exit_status : int option;  (** None if killed or still running *)
  killed : kill_reason option;
  live : bool;  (** still runnable when the run stopped (fuel ran out) *)
  cycles_used : int;  (** user instruction words this process executed *)
  retries : int;  (** transient-fault retries performed on its behalf *)
}

type report = {
  procs : proc_report list;
  switches : int;
  page_faults : int;
  evictions : int;
  interrupts : int;
  map_changes_during_switches : int;  (** expected 0: the pid travels in the
                                          address, not in the map *)
  switch_cycle_cost : int;  (** cycles charged per context switch *)
  total_cycles : int;
  kernel_cycles : int;  (** cycles spent on kernel work (switches, fault
                            service), charged per the cost model *)
  watchdog_kills : int;
  transient_faults : int;  (** injected transient memory faults dispatched *)
  transient_retries : int;  (** of those, restarted through the EPC chain *)
  double_faults : int;
  oom_kills : int;
  fuel_exhausted : bool;  (** the run stopped on fuel, not quiescence *)
}

val run : ?fuel:int -> t -> report
(** Run until every process exits or is killed (or fuel runs out — then
    [fuel_exhausted] is set and still-runnable processes have [live]).
    A process-local fault never halts the kernel: the offender is killed
    (with a precise {!kill_reason}) and everyone else keeps running. *)

val run_for : t -> steps:int -> [ `Done | `More ]
(** Run at most [steps] iterations of the scheduling loop (each is one
    machine step or one dispatched exception), in
    {!Mips_machine.Cpu.run_engine} slices that end at a dispatch, the
    quantum or the watchdog budget.  All loop state lives in the kernel, so
    a run sliced into arbitrary [run_for] calls is bit-identical to a single
    {!run} with the same total budget — this is the hook the checkpointing
    driver uses.  [`Done] when every process has exited or been killed;
    [`More] when the budget ran out first. *)

val report : t -> report
(** The report for the work done so far (what {!run} returns). *)

val report_json : report -> Mips_obs.Json.t
(** Machine-readable form of a run report (process outcomes by name plus
    every kernel counter). *)

val cpu : t -> Cpu.t
(** The underlying machine, for inspection. *)

(** {2 Checkpoint support}

    A checkpoint carries the machine
    ([Mips_resilience.Snapshot.machine_to_string]) and the fields of {!t}
    and its {!pcb}s that the machine does not
    ([Mips_resilience.Snapshot.sched_to_string]), but no code.  Restoring a
    run means: re-create the kernel with the same parameters, {!spawn} the
    same processes in the same order (their programs are re-derived
    deterministically), [Mips_resilience.Snapshot.restore_sched], then
    [Mips_resilience.Snapshot.restore_machine]. *)

val refill_code_frames : t -> unit
(** Write every owned code frame again from its owner's program image: the
    last step of a scheduler restore, since instruction memory is not
    checkpointed.  Code pages are read-only, so the refill is bit-identical
    to the frame's content in the uninterrupted run.  Every owner must be a
    spawned process. *)
