(** The architectural simulator.

    Models the user-visible consequences of the MIPS 5-stage pipeline at
    instruction-word granularity:

    - {b No hardware interlocks} (default).  A register written by a load is
      not visible to the immediately following word — that word reads the
      {e stale} value.  The instruction word(s) after a taken branch
      ({!Mips_isa.Branch.delay} of them) always execute.  Correctness is the
      reorganizer's job, exactly as in the paper.
    - {b Interlock mode} ([interlock = true]): the conventional comparison
      machine.  Loads commit immediately but a dependent next word stalls one
      cycle; taken branches squash their delay slots and pay them as stall
      cycles.
    - {b Byte-addressed mode} ([byte_addressed = true]): data addresses are
      byte addresses, [W8] accesses are legal, word accesses must be aligned,
      and every memory-referencing word costs an extra
      [fetch_overhead_pct] percent in {!Stats.t.weighted_cycles} — the
      paper's estimate of what byte addressability adds to the critical path.

    Exceptions follow Section 3.3: instructions logically before the fault
    complete; a faulting memory reference inhibits the register write of the
    ALU piece in the same word; the three-deep program-counter chain is saved
    in the EPC registers; the surprise register is pushed; control resumes at
    physical address 0 with mapping off. *)

open Mips_isa

type config = {
  interlock : bool;
  byte_addressed : bool;
  fetch_overhead_pct : float;  (** used only when [byte_addressed] *)
  imem_words : int;
  dmem_words : int;
}

val default_config : config
(** Word-addressed, no interlocks, 64K instruction words, 256K data words. *)

val byte_addressed_config : config
(** The Table 9/10 comparison machine with the paper's 15 % overhead. *)

val interlocked_config : config

(** Guest-profiling buffers; see {!section-profiling} below. *)
type profile = {
  pr_counts : int array;
      (** executed words per physical pc (indexed to [imem_words]) *)
  pr_stalls : int array;
      (** stall cycles charged at pc: load-use at the consumer, interlock
          branch latency at the branch *)
  pr_shadow : int array;
      (** executions of pc inside a taken branch's delay shadow *)
  pr_edges : (int * int, int) Hashtbl.t;
      (** (branch pc, target) -> times the branch was taken to target *)
  mutable pr_shadow_pending : int;
  mutable pr_other_cycles : int;
      (** cycles charged without a resolved fetch pc *)
}

type latch
(** The reference engine's per-machine compute-phase latch (private to
    {!step}). *)

(** A compiled jit trace's execution tally, read by the statistics fold:
    the runs past [tl_spread] are added to the execution count of every
    word in [tl_pcs], and [tl_jumps] taken branches (the trace's inlined
    jumps) per run.  [tl_runs] is cumulative, so the jit's own heuristics
    may read it; [tl_dead] marks a trace that can no longer run. *)
type tally = {
  tl_entry : int;
  tl_pcs : int array;
  tl_jumps : int;
  mutable tl_runs : int;
  mutable tl_spread : int;
  mutable tl_dead : bool;
}

(** The machine state, exposed concretely so the compiled execution engines
    (the per-word closures below and the trace compiler in [lib/jit]) can
    read and write it without accessor calls on the hot path.  The
    architectural state is reachable through the named accessors too, and
    code outside the engines should prefer those; the execution state they
    do not reach ([byte_select], the pending load, [last_load_writes],
    [fault], [flaky_armed], [prev_pc]/[prev_word], [delay_pending]) is
    read and written directly by the checkpoint codec
    ([Mips_resilience.Snapshot]), which must carry it to make a resumed
    run bit-identical.  [prev_word] is always the word at [prev_pc]. *)
type t = {
  cfg : config;
  regs : int array;
  mutable p0 : int;
  mutable p1 : int;
  mutable p2 : int;
  mutable sr : Surprise.t;
  mutable seg : Segmap.t;
  mutable byte_select : int;
  epcs : int array;
  (* load landing one word late, flattened to two scalar cells so neither
     engine allocates an option per load ([pend_r] = -1 means none) *)
  mutable pend_r : int;
  mutable pend_v : int;
  mutable last_load_writes : Reg.Set.t;  (* interlock-mode stall detection *)
  imem : int Word.t array;
  notes : Note.t array;
  dmem : int array array;
      (** data memory, one slot per page of {!Pagemap.page_words} words
          (the last page may reach past [dmem_words]): a slot holds
          {!zero_page} until a nonzero word is stored in it, and then a
          page of its own.  Engines read it through {!load_word} and store
          through {!store_word}. *)
  pagemap : Pagemap.t;  (* cleared in place by [reset] *)
  mutable interrupt_line : bool;
  mutable fault : fault_kind option;
  mutable stats : Stats.t;  (* replaced, never cleared, by [reset] *)
  mutable trace : Mips_obs.Sink.t;
  mutable trace_on : bool;  (* = trace.enabled, flattened for the hot path *)
  mutable plan : Mips_fault.Plan.t;
  mutable inject_on : bool;  (* = Plan.enabled plan, flattened likewise *)
  mutable flaky_armed : bool;  (* next data reference transiently faults *)
  (* previous executed word, for load-use stall attribution by pair *)
  mutable prev_pc : int;
  mutable prev_word : int Word.t;
  (* taken-branch shadow countdown; maintained only while tracing *)
  mutable delay_pending : int;
  (* one [xword] per instruction slot, holding every compiled engine's
     state for it, kept in sync with [imem]; [xlive] lists every slot's
     record the statistics fold visits, each once *)
  xcode : xword array;
  mutable xlive : xword list;
  (* fast-engine scratch slots: compute-phase results parked here so the
     commit phase can pick them up without allocating effect records *)
  mutable sc_a : int;  (* resolved physical address (byte ops: phys*4+lane) *)
  mutable sc_b : int;  (* store value, read in the compute phase *)
  mutable sc_v : int;  (* ALU result *)
  mutable sc_taken : bool;  (* conditional-branch decision *)
  mutable sc_target : int;  (* indirect-branch target, read pre-commit *)
  mutable latch : latch;  (* reference-engine compute-phase results *)
  (* guest profiling: [prof_on] is the single hot-path flag test; [prof]
     points at [no_profile] while disabled; [prof_fetch] is the physical
     fetch address the last step resolved (-1 when it never did) *)
  mutable prof_on : bool;
  mutable prof : profile;
  mutable prof_fetch : int;
  (* trace-JIT scratch: [jit_live] holds the tallies of the compiled
     traces the fold has still to visit; [jit_k] and [jit_pv] are
     fault-recovery scratch: the body index reached and the in-flight
     delayed-load value of the trace being executed *)
  mutable jit_live : tally list;
  mutable jit_k : int;
  mutable jit_pv : int;
  (* one byte per page ({!Pagemap.page_words} words) of [imem], [notes]
     and [xcode], nonzero once a word of the page is written after
     [create] or [reset]; and the private data pages {!clear_data} took
     out of [dmem], which the next first stores reuse *)
  ipages : Bytes.t;
  mutable spare_pages : int array list;
}

(** One instruction slot's state, for every compiled engine.  A slot never
    compiled shares one sentinel record, of which no field is ever
    written; a slot gets a record of its own on its first compile and
    keeps it until {!reset}. *)
and xword = {
  mutable code : t -> unit;
      (** the fast engine's closure, or a stale sentinel when the word
          changed since it was last compiled *)
  mutable runs : int;
      (** executions not yet folded into the statistics: bumped by the
          fast engine once per completed word, and by the jit for the
          completed prefix of a trace it leaves early and when the fold
          spreads its run counts *)
  slot : int;
  mutable tcode : t -> int -> int;
      (** the jit trace entered at this pc (fuel in, fuel remaining out),
          or {!jit_stale} *)
  mutable tlen : int;  (** that trace's straight-line length in words *)
  mutable hot : int;  (** the jit's hotness count for this entry pc *)
  mutable cover : tally list;
      (** the live traces whose compiled body includes this word, so a
          code write invalidates exactly the traces it affects *)
  mutable nospec : bool;
      (** a branch whose speculation kept failing: traces compiled later
          end at it *)
}

(** What the external mapping unit latched at the most recent [Page_fault]
    dispatch. *)
and fault_kind =
  | Missing_page of Pagemap.space * int
      (** page-map miss at this global virtual address *)
  | Segment_violation of int
      (** a reference between the two valid segment regions, at this
          process virtual address ("treated as a page fault" by the
          hardware; the OS decides to grow the segment or kill) *)
  | Transient_ref
      (** an injected flaky-memory fault: the data reference never happened
          and the word is restartable as-is — software should simply retry *)

(** Why [step] or [run] stopped making forward progress. *)
type event =
  | Stepped  (** one word executed normally *)
  | Dispatched of Cause.t  (** an exception was accepted; the machine has
                               pushed state and now sits at physical 0 *)

val create : ?config:config -> unit -> t

val reset : t -> unit
(** Return the machine to exactly the state [create ~config:(config t) ()]
    gives, reusing its memory arrays and page map.  It clears only the
    pages of memory written since [create] or the last reset, and the
    page map's entries, so it costs what the last run touched.  The
    statistics record is replaced by a fresh one, so a {!Stats.t} read
    before the reset keeps its values; execution counts not yet folded
    into it are dropped. *)

val with_machine : ?config:config -> (t -> 'a) -> 'a
(** [with_machine f] lends [f] a {!reset} machine that the current Domain
    keeps for [config] (default {!default_config}), created on first use.
    For callers that build a machine only to run one program and read its
    results: the machine must not outlive [f].  A nested or concurrent
    borrow on the same Domain gets a freshly created machine.  A
    long-lived process therefore retains one machine per Domain per
    config it has borrowed: ~1.5 MB of code arrays at the default sizes,
    plus the data pages (8 KB each) of the largest run it served. *)

val config : t -> config

val stats : t -> Stats.t
(** The machine's live statistics record, up to date as of this call.

    {b Derived statistics.}  The reference {!step} charges every counter
    as it goes.  The fast engine and the jit write only the dynamic fields
    directly: [branches_taken], the stall counters and stall pairs, and
    [exceptions].  For everything else they count executions — one per
    completed word, or one per trace run — and this
    call folds the pending counts into the record, each charged with its
    word and note through {!Stats.charge}.  Integer sums
    commute, so the result is bit-identical to the reference engine's at
    any fold point, and a count is always charged with the word it
    counted: {!write_code}, {!write_note} and {!load_program} flush the
    slots they change first.  The byte machine's [weighted] cell is the
    exception: its per-word weights are not integral, so the float sum
    depends on the order of the adds, and on [byte_addressed] configs
    every engine adds each word's {!weight} in execution order (the jit
    as a trace leaves).  Everywhere else [weighted] is integer-valued and
    derived.

    The fold costs O(slots with code + live traces) and nothing on a
    machine only the reference step has run.  The returned record is the
    same one later runs keep updating: call [stats] again to read it
    after more execution. *)

val trace : t -> Mips_obs.Sink.t
val set_trace : t -> Mips_obs.Sink.t -> unit
(** Attach an event sink.  With the default {!Mips_obs.Sink.null} the
    instrumentation in {!step} reduces to a handful of branch tests and no
    event is ever allocated; with a live sink every fetch, issue, stall,
    memory reference, taken branch, delay-slot execution and exception
    dispatch is reported. *)

val fault_plan : t -> Mips_fault.Plan.t
val set_fault_plan : t -> Mips_fault.Plan.t -> unit
(** Attach a transient-fault plan.  With the default {!Mips_fault.Plan.none}
    the hook in {!step} is a single flag test; with an enabled plan the plan
    is consulted once per step and any decided injection (register/data bit
    flip, spurious interrupt, clean-page drop, flaky-memory arming) is
    applied to the architectural state before the word executes.  An armed
    flaky fault fires on the next data reference: the reference raises a
    transient [Page_fault] ({!fault_kind.Transient_ref}) {e before} touching
    memory, so restarting the word through the EPC chain re-executes it
    exactly.  Attaching a plan disarms any pending flaky fault. *)

(** {2:profiling Guest profiling}

    Per-PC execution profiling behind a single flag test (the same pattern
    as the trace and fault hooks); every engine runs a profiled step on the
    reference {!step}.  The buffers are updated from {!Stats} deltas after
    each step — profiling never writes the statistics, so a profiled run's
    {!Stats} are byte-identical to an unprofiled one's, and the buffer
    totals reconcile exactly:
    sum(pr_counts) = words, sum(pr_stalls) = stall cycles, and
    sum(pr_counts) + sum(pr_stalls) + pr_other_cycles = cycles.  The
    buffers are not part of the architectural state: checkpoints do not
    carry them. *)

val set_profiling : t -> bool -> unit
(** Arm (with fresh buffers) or disarm profiling. *)

val profile : t -> profile option
(** The live buffers while profiling is armed. *)

(** {2 Architectural state} *)

val get_reg : t -> Reg.t -> Word32.t
val set_reg : t -> Reg.t -> Word32.t -> unit
val surprise : t -> Surprise.t
val set_surprise : t -> Surprise.t -> unit
val segmap : t -> Segmap.t
val set_segmap : t -> Segmap.t -> unit
val pagemap : t -> Pagemap.t
val epc : t -> int -> int
val set_epc : t -> int -> int -> unit

val pc : t -> int
(** Current instruction address (head of the three-deep chain). *)

val pc_chain : t -> int * int * int
val set_pc_chain : t -> int -> int -> int -> unit

val set_pc : t -> int -> unit
(** Reset the chain to sequential flow from the given address. *)

val set_interrupt : t -> bool -> unit
(** Drive the single external interrupt line. *)

val interrupt_pending : t -> bool

(** {2 Physical memory} *)

val read_code : t -> int -> int Word.t
val write_code : t -> int -> int Word.t -> unit
val write_note : t -> int -> Note.t -> unit
val read_data : t -> int -> Word32.t
(** Physical word read (word index into data memory).  An index outside
    [0, dmem_words) raises [Invalid_argument], as for a flat array. *)

val write_data : t -> int -> Word32.t -> unit
(** Physical word write; out of range, it raises as {!read_data}. *)

val data_written : t -> int -> bool
(** Whether data word [a]'s page holds a page of its own: one a nonzero
    word was stored in since {!create} or the last {!clear_data} or
    {!reset}.  Every word of any other page is 0, so a reader of all
    nonzero words may skip those pages. *)

val clear_data : t -> unit
(** Zero data memory, at the cost of the pages written since {!create} or
    the last {!clear_data} or {!reset}: each goes back to {!zero_page}. *)

val load_program : ?at:int -> ?data_at:int -> t -> Program.t -> unit
(** Copy a program image into physical memory ([at] = code origin,
    [data_at] = data origin, both default 0) and point the PC chain at its
    entry.  The caller chooses privilege/mapping via {!set_surprise}.
    Each loaded word is written as {!write_code} writes one, so compiled
    jit traces over words not reloaded survive. *)

(** {2 Execution} *)

val step : t -> event
(** Execute one instruction word (or accept a pending interrupt). *)

val resume : t -> unit
(** The return-from-exception: pop the surprise register and restart at the
    saved PC chain (the EPCs, which a handler may have redirected first). *)

(** {2 Fast engine}

    A second execution engine over the same machine state.  Each instruction
    word is lowered once ({!Predecode.lower}) and specialized into a closure
    the first time it executes; subsequent executions skip all per-cycle
    decode work (piece projection, read/write set construction, statistics
    classification: see {!stats}).  Self-modifying code is handled by
    invalidation: {!write_code} and {!load_program} mark the touched slots
    for recompilation.

    {b Equivalence contract}: for any program and any machine configuration,
    running under the fast engine must leave registers, data memory, the PC
    chain, EPCs, the surprise register and every {!Stats.t} counter —
    including float [weighted_cycles], per-pair stall attribution and
    exception tallies — bit-identical to the reference {!step} loop.  The
    fast path only runs when tracing, fault injection, an armed flaky
    reference, the interrupt line and profiling are all quiet; any of them
    arming makes {!step_fast} delegate that cycle to {!step}, so the
    engines interleave cycle-for-cycle and observability never changes
    results. *)

val step_fast : t -> event
(** Execute one word via the predecoded closure cache, or — when any
    observer/injector is armed — via the reference {!step}. *)

type engine = Ref | Fast | Jit

val engine_name : engine -> string
val engine_of_string : string -> engine option

val run_engine :
  ?fuel:int -> engine:engine -> t -> (t -> Cause.t -> [ `Resume | `Halt ]) -> int
(** [run_engine ~engine t handler] steps under the named engine until the
    handler (called on every dispatched exception) answers [`Halt], or
    [fuel] (default 10 million) words have executed; a dispatching step
    costs 1.  On [`Resume] the machine performs {!resume}.  Returns the
    fuel left: [0] when out of fuel, above [0] when the handler halted.

    This is the {e hosted} mode used by {!Hosted}, the kernel's slices,
    tests and analyses: the handler stands in for kernel code at
    address 0.  [Jit] requires the trace compiler to have been linked and
    installed ([Mips_jit.install]); requesting it without fails loudly
    rather than silently running a slower engine. *)

val faulted : t -> fault_kind option

val faulted_addr : t -> (Pagemap.space * int) option
(** The page-miss address, when the latest fault was one. *)

(** {2 Engine internals}

    Shared machinery between the predecoded fast engine (this module) and
    the trace compiler ([lib/jit]).  Nothing here is meant for ordinary
    clients. *)

exception Fault of Cause.t * int
(** A fault detected during the compute phase of a word.  The engines catch
    it and route it through {!dispatch}; the faulting word contributes no
    cycle. *)

exception Trap_dispatch of int
(** A [Trap] reached during the compute phase.  Unlike {!Fault}, the trap
    word completes: the engine that catches this counts its cycle. *)

val quiet : t -> bool
(** No tracing, fault injection, armed flaky reference, raised interrupt
    line or profiling: the precondition of every compiled path.  A cycle
    where it is false runs on the reference {!step}, so the observers see
    it exactly as they would under [Ref]. *)

val weight : config -> busy:bool -> float
(** One completed word's weighted cycles: [1 + fetch_overhead_pct / 100]
    for a word that references data memory ([busy]) on a [byte_addressed]
    config, 1.0 otherwise.  On the byte machine the float sum depends on
    the order of the adds, so every engine adds this per word, in
    execution order (see {!stats}). *)

val overflow_trap : t -> unit
(** Raises [Fault (Overflow, 0)] when the surprise register enables
    overflow traps; called by a piece whose arithmetic overflowed. *)

val dispatch : t -> Cause.t -> int -> int -> int -> int -> event
(** [dispatch t cause detail e0 e1 e2] accepts an exception: commit the
    pending load, save the chain [e0 e1 e2] into the EPCs, push the surprise register, redirect to physical 0, count the
    exception and emit the trace event.  Always returns [Dispatched]. *)

(** Resolved ALU piece: destination picked apart from the value computation. *)
type alu_exec =
  | AXnone
  | AXreg of int * (t -> int)  (** destination register, value *)
  | AXspecial of Alu.special * (t -> int)
  | AXrfe

(** Resolved memory piece.  The [t -> int] computes the resolved physical
    address at compute time (byte variants encode [(phys lsl 2) lor lane]);
    faults raise from inside it. *)
type mem_exec =
  | MXnone
  | MXlimm of int * int  (** destination register, constant *)
  | MXload_w of int * (t -> int)
  | MXload_b of int * (t -> int)
  | MXstore_w of int * (t -> int)  (** source register, address *)
  | MXstore_b of int * (t -> int)

(** Resolved branch piece.  Targets of indirect branches are register reads
    and must happen at compute time (pre-commit); direct targets are
    immediate. *)
type br_exec =
  | BXnone
  | BXcbr of (t -> bool) * int
  | BXjump of int
  | BXjal of int * int  (** target, link register *)
  | BXjind of int  (** target register *)
  | BXjalind of int * int  (** target register, link register *)
  | BXtrap of int

val op_rd : Operand.t -> bool * int
(** An operand resolved at compile time: [(true, r)] reads register [r],
    [(false, n)] is the immediate [n]. *)

(** The piece compilers.  The fast engine's word closures are built from
    them, and so are the jit's ALU and branch fragments, so the ALU and
    branch-condition semantics are compiled in one place (the jit keeps
    only its pinned-state address and direct fragments, which apply the
    same resolve rule).  An ALU
    piece and a conditional branch's test are each one flat closure:
    operands resolved through {!op_rd} and read straight from the
    register file, with no nested operand closures. *)

val compile_alu : Alu.t -> alu_exec

(** A data reference's resolve rule: a word reference on the word machine
    ([Whole]), on the byte machine ([Aligned]), a byte reference on the
    byte machine ([Lane]) or on the word machine ([No_lane]).  The fast
    engine's compiled addresses apply it around the data translation, and
    the jit's with translation pinned to the identity. *)
type rule = Whole | Aligned | Lane | No_lane

val rule_of : config -> Mem.width -> rule

val rule_word : rule -> int -> int
(** The word address to translate for native address [addr]: [addr asr 2]
    on the byte machine.  A byte reference on the word machine raises
    [Fault (Illegal, 3)]. *)

val rule_place : rule -> dmem_words:int -> int -> int -> int
(** [rule_place rule ~dmem_words addr phys] checks translated word [phys]
    (out of range: [Fault (Illegal, 1)]) and the alignment of [addr]
    (a misaligned word reference on the byte machine:
    [Fault (Illegal, 2)]), and returns the physical word, or
    [(phys lsl 2) lor lane] for a byte reference. *)
val compile_branch : int Branch.t option -> br_exec

(** {2 Jit hooks}

    The trace compiler lives in [lib/jit] (which depends on this module);
    these are its attachment points.  Its per-pc state is kept in the
    slots' {!xword} records, so {!reset} clears it with the fast engine's
    and {!write_code} and {!load_program} invalidate exactly the traces
    covering the words they write. *)

val jit_stale : t -> int -> int
(** The no-trace sentinel for {!xword.tcode}; recognized with [==]. *)

val slot : t -> int -> xword
(** Slot [p]'s own record, compiled first when its word is stale. *)

val zero_page : int array
(** The page every {!t.dmem} slot starts as, shared by every machine.
    Nothing may write it: it reads all zeros. *)

val load_word : t -> int -> int
(** [load_word t p] reads data word [p], which must be in range
    ([0 <= p < dmem_words]); nothing checks it. *)

val store_word : t -> int -> int -> unit
(** [store_word t p v] stores [v] into data word [p], which must be in
    range.  Every engine store goes through it: a slot that still holds
    {!zero_page} gets a page of its own first, unless [v] is 0. *)

val jit_register : t -> tally -> unit
(** Enter a newly compiled trace's tally: the fold visits it, and a write
    to any word in [tl_pcs] flushes and invalidates it.  Every word in
    [tl_pcs] gets a compiled slot, which holds its count. *)

val set_jit_runner :
  (fuel:int -> t -> (t -> Cause.t -> [ `Resume | `Halt ]) -> int) -> unit
(** Register the whole-run jit loop that {!run_engine} dispatches [Jit] to;
    it returns the fuel left, as {!run_engine} does. *)
