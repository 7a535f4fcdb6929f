open Mips_isa

type config = {
  interlock : bool;
  byte_addressed : bool;
  fetch_overhead_pct : float;
  imem_words : int;
  dmem_words : int;
}

let default_config =
  {
    interlock = false;
    byte_addressed = false;
    fetch_overhead_pct = 0.;
    imem_words = 1 lsl 16;
    dmem_words = 1 lsl 18;
  }

let byte_addressed_config =
  { default_config with byte_addressed = true; fetch_overhead_pct = 15. }

let interlocked_config = { default_config with interlock = true }

(* Guest-profiling buffers, armed by [set_profiling].  Indexed by physical
     word address; [pr_other_cycles] absorbs cycles a step charged without
     resolving a fetch (interrupt dispatch, fetch-translation faults) so the
     per-PC totals still reconcile exactly with [Stats].  The buffers are
     bumped after the step from [Stats] deltas — profiling never writes the
     statistics themselves, so a profiled run's [Stats] are byte-identical
     to an unprofiled one's. *)
type profile = {
  pr_counts : int array;  (* executed words per pc *)
  pr_stalls : int array;  (* stall cycles charged at pc *)
  pr_shadow : int array;  (* executions of pc inside a taken branch's shadow *)
  pr_edges : (int * int, int) Hashtbl.t;  (* (branch pc, target) -> taken *)
  mutable pr_shadow_pending : int;
  mutable pr_other_cycles : int;
}

(* Reference-engine latch: the compute phase parks each piece's result here
   and the commit and next-pc phases read it back, so a reference step
   allocates nothing.  Every compute phase resets the two kinds and
   [l_taken]; a payload field means something only under the kind that
   wrote it. *)
type mem_kind = No_mem | Load | Store | Imm
type alu_kind = No_alu | Reg_write | Special_write | Rfe

type latch = {
  mutable l_mem : mem_kind;
  mutable l_mem_reg : int;  (* load / immediate destination register *)
  mutable l_mem_val : int;  (* loaded value, immediate, or value to store *)
  mutable l_phys : int;  (* load / store physical word *)
  mutable l_lane : int;  (* byte lane of a byte reference, -1 for a word *)
  mutable l_alu : alu_kind;
  mutable l_alu_reg : int;
  mutable l_alu_val : int;
  mutable l_special : Alu.special;  (* Special_write destination *)
  mutable l_taken : bool;
  mutable l_target : int;
  mutable l_delay : int;
  mutable l_link : int;  (* link register of a taken jal, else -1 *)
  mutable l_ret : int;  (* its return address *)
}

(* A compiled jit trace's execution tally.  [tl_runs] counts the trace's
   complete runs (cumulative: the jit's blacklist heuristic reads it); the
   fold adds the runs past [tl_spread] to the execution count of every
   word in [tl_pcs], and [tl_jumps] (its inlined jumps) to the taken
   branches per run.  [tl_dead] marks a trace that can no longer run. *)
type tally = {
  tl_entry : int;
  tl_pcs : int array;
  tl_jumps : int;
  mutable tl_runs : int;
  mutable tl_spread : int;
  mutable tl_dead : bool;
}

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
  dmem : int array;
  mutable pagemap : Pagemap.t;
  mutable interrupt_line : bool;
  mutable fault : fault_kind option;
  mutable stats : Stats.t;
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
     state for it, kept in sync with [imem] ([stale_code] marks a slot
     whose word changed since it was last compiled); [xlive] lists every
     slot's record the fold visits, each once *)
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
     traces the fold has still to visit (each trace's per-pc state lives in
     its entry slot's [xword]); [jit_k] and [jit_pv] are fault-recovery
     scratch: the body index reached and the in-flight delayed-load value
     of the trace being executed. *)
  mutable jit_live : tally list;
  mutable jit_k : int;
  mutable jit_pv : int;
}

(* One instruction slot's state for every compiled engine.  The fast engine
   reads [code] and [runs]: the slot's compiled closure and the executions
   it has not yet had folded into [stats] (see [fold]), bumped once per
   completed word, and by the jit for trace prefixes and at the fold.  The
   jit keeps its per-pc state here too: [tcode] is the trace entered at
   this pc (fuel in, fuel remaining out; [jit_stale] when none) and [tlen]
   its straight-line length in words, [hot] the entry's hotness count,
   [cover] the tallies of the live traces whose body includes this word
   (so a code write invalidates exactly the traces it affects) and
   [nospec] marks a branch whose speculation kept failing (traces compiled
   later end at it).  A slot keeps its record from its first compile until
   [reset]; a code write swaps [code] back to [stale_code]. *)
and xword = {
  mutable code : t -> unit;
  mutable runs : int;
  slot : int;
  mutable tcode : t -> int -> int;
  mutable tlen : int;
  mutable hot : int;
  mutable cover : tally list;
  mutable nospec : bool;
}

and fault_kind =
  | Missing_page of Pagemap.space * int
  | Segment_violation of int
  | Transient_ref

type event = Stepped | Dispatched of Cause.t

(* Jit-engine sentinel: marks a slot with no compiled trace.  Recognized
   with [==]; returns its fuel untouched if ever called. *)
let jit_stale (_ : t) (fuel : int) = fuel

(* Fast-engine sentinel: marks an [xcode] slot whose word has not been
   compiled since it last changed.  Recognized with [==]; never called with
   the intent of executing an instruction.  [stale] is the record of every
   slot never compiled; no field of it is ever written. *)
let stale_code (_ : t) = ()
let stale =
  { code = stale_code; runs = 0; slot = -1; tcode = jit_stale; tlen = 0;
    hot = 0; cover = []; nospec = false }

(* Shared placeholder for machines not being profiled: zero-length arrays,
   never written while [prof_on] is false. *)
let no_profile =
  { pr_counts = [||];
    pr_stalls = [||];
    pr_shadow = [||];
    pr_edges = Hashtbl.create 1;
    pr_shadow_pending = 0;
    pr_other_cycles = 0 }

let new_latch () =
  { l_mem = No_mem; l_mem_reg = 0; l_mem_val = 0; l_phys = 0; l_lane = -1;
    l_alu = No_alu; l_alu_reg = 0; l_alu_val = 0; l_special = Alu.Surprise;
    l_taken = false; l_target = 0; l_delay = 0; l_link = -1; l_ret = 0 }

let create ?(config = default_config) () =
  {
    cfg = config;
    regs = Array.make 16 0;
    p0 = 0;
    p1 = 1;
    p2 = 2;
    sr = Surprise.reset;
    seg = Segmap.make ~pid:0 ~mask_bits:0;
    byte_select = 0;
    epcs = Array.make 3 0;
    pend_r = -1;
    pend_v = 0;
    last_load_writes = Reg.Set.empty;
    imem = Array.make config.imem_words Word.Nop;
    notes = Array.make config.imem_words Note.plain;
    dmem = Array.make config.dmem_words 0;
    pagemap = Pagemap.create ();
    interrupt_line = false;
    fault = None;
    stats = Stats.create ();
    trace = Mips_obs.Sink.null;
    trace_on = false;
    plan = Mips_fault.Plan.none;
    inject_on = false;
    flaky_armed = false;
    prev_pc = -1;
    prev_word = Word.Nop;
    delay_pending = 0;
    xcode = Array.make config.imem_words stale;
    xlive = [];
    sc_a = 0;
    sc_b = 0;
    sc_v = 0;
    sc_taken = false;
    sc_target = 0;
    latch = new_latch ();
    prof_on = false;
    prof = no_profile;
    prof_fetch = -1;
    jit_live = [];
    jit_k = 0;
    jit_pv = 0;
  }

(* Discard every live trace whose body covers address [a] and clear its
   entry's hotness count, so a recompile observes the new word.  Traces do
   not read [notes], so note writes leave them alone. *)
let jit_invalidate t a =
  let x = t.xcode.(a) in
  match x.cover with
  | [] -> ()
  | cover ->
      List.iter
        (fun tl ->
          if not tl.tl_dead then begin
            tl.tl_dead <- true;
            let e = t.xcode.(tl.tl_entry) in
            e.tcode <- jit_stale;
            e.tlen <- 0;
            e.hot <- 0
          end)
        cover;
      x.cover <- []

(* ---------------------------------------------------------------------- *)
(* Derived statistics.  The fast engine and the jit do not write the static
   [Stats] fields: they count executions per slot (in its [xword], and per
   trace in a [tally]), and [fold] charges each count with its word's
   [Predecode.charge].  Integer sums commute, so the folded record equals
   the reference step's per-cycle one at any fold point.  The weighted
   cell is folded only off the byte machine, where every word weighs
   exactly 1.0; the byte machine's fractional weights are added per word
   ([weight]), in execution order, by every engine.
   A count is always charged with the word it counted: a write to a slot
   ([write_code], [write_note], [load_program]) first flushes the slot and
   the traces covering it. *)

(* A trace's words all have compiled slots (see [jit_register]). *)
let spread t tl =
  let n = tl.tl_runs - tl.tl_spread in
  if n > 0 then begin
    tl.tl_spread <- tl.tl_runs;
    Array.iter (fun p -> let x = t.xcode.(p) in x.runs <- x.runs + n) tl.tl_pcs;
    t.stats.Stats.branches_taken <- t.stats.Stats.branches_taken + (n * tl.tl_jumps)
  end

let charge t x =
  let n = x.runs in
  if n > 0 then begin
    x.runs <- 0;
    Stats.charge t.stats
      (Predecode.charge t.imem.(x.slot) t.notes.(x.slot))
      n ~weighted:(not t.cfg.byte_addressed)
  end

(* Before slot [p]'s word or note changes. *)
let flush_slot t p =
  let x = t.xcode.(p) in
  List.iter (spread t) x.cover;
  charge t x

(* After slot [p]'s word changed: recompile on its next execution, and
   let the jit count and speculate on the new word afresh. *)
let restale t p =
  let x = t.xcode.(p) in
  if x != stale then begin
    x.code <- stale_code;
    x.hot <- 0;
    x.nospec <- false
  end

(* O(compiled slots + live traces): nothing on a machine only the
   reference step has run. *)
let fold t =
  (match t.jit_live with
  | [] -> ()
  | live ->
      List.iter (spread t) live;
      if List.exists (fun tl -> tl.tl_dead) live then
        t.jit_live <- List.filter (fun tl -> not tl.tl_dead) live);
  List.iter (charge t) t.xlive

(* Back to the state [create ~config:t.cfg ()] gives, keeping the big
   arrays.  [stats] and [pagemap] are replaced, not cleared: a caller may
   still hold the last run's records (the artifact cache does), so pending
   execution counts are dropped, not folded.  Every engine's per-slot
   state goes with the [xcode] records. *)
let reset t =
  Array.fill t.regs 0 (Array.length t.regs) 0;
  t.p0 <- 0;
  t.p1 <- 1;
  t.p2 <- 2;
  t.sr <- Surprise.reset;
  t.seg <- Segmap.make ~pid:0 ~mask_bits:0;
  t.byte_select <- 0;
  Array.fill t.epcs 0 (Array.length t.epcs) 0;
  t.pend_r <- -1;
  t.pend_v <- 0;
  t.last_load_writes <- Reg.Set.empty;
  Array.fill t.imem 0 (Array.length t.imem) Word.Nop;
  Array.fill t.notes 0 (Array.length t.notes) Note.plain;
  Array.fill t.dmem 0 (Array.length t.dmem) 0;
  t.pagemap <- Pagemap.create ();
  t.interrupt_line <- false;
  t.fault <- None;
  t.stats <- Stats.create ();
  t.trace <- Mips_obs.Sink.null;
  t.trace_on <- false;
  t.plan <- Mips_fault.Plan.none;
  t.inject_on <- false;
  t.flaky_armed <- false;
  t.prev_pc <- -1;
  t.prev_word <- Word.Nop;
  t.delay_pending <- 0;
  Array.fill t.xcode 0 (Array.length t.xcode) stale;
  t.xlive <- [];
  t.sc_a <- 0;
  t.sc_b <- 0;
  t.sc_v <- 0;
  t.sc_taken <- false;
  t.sc_target <- 0;
  t.latch <- new_latch ();
  t.prof_on <- false;
  t.prof <- no_profile;
  t.prof_fetch <- -1;
  t.jit_live <- [];
  t.jit_k <- 0;
  t.jit_pv <- 0

(* One machine per config per Domain, lent to run-and-discard callers so a
   run costs a [reset] instead of a 3.5 MB allocation (and, with it, a
   share of a major GC cycle that stops every Domain).  The systhreads of
   a Domain share its DLS, so a slot is taken with a compare-and-set; a
   nested or concurrent borrow gets a machine of its own. *)
type slot = { machine : t; busy : bool Atomic.t }

let pool : (config * slot) list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make [])

let rec pool_slot slots config =
  let known = Atomic.get slots in
  match List.assoc_opt config known with
  | Some s -> s
  | None ->
      let s = { machine = create ~config (); busy = Atomic.make false } in
      if Atomic.compare_and_set slots known ((config, s) :: known) then s
      else pool_slot slots config

let with_machine ?(config = default_config) f =
  let slot = pool_slot (Domain.DLS.get pool) config in
  if Atomic.compare_and_set slot.busy false true then begin
    reset slot.machine;
    Fun.protect
      ~finally:(fun () -> Atomic.set slot.busy false)
      (fun () -> f slot.machine)
  end
  else f (create ~config ())

let config t = t.cfg
let stats t =
  fold t;
  t.stats
let trace t = t.trace
let set_trace t sink =
  t.trace <- sink;
  t.trace_on <- sink.Mips_obs.Sink.enabled

let fault_plan t = t.plan

let set_profiling t on =
  if on then begin
    t.prof <-
      { pr_counts = Array.make t.cfg.imem_words 0;
        pr_stalls = Array.make t.cfg.imem_words 0;
        pr_shadow = Array.make t.cfg.imem_words 0;
        pr_edges = Hashtbl.create 64;
        pr_shadow_pending = 0;
        pr_other_cycles = 0 };
    t.prof_on <- true
  end
  else begin
    t.prof <- no_profile;
    t.prof_on <- false
  end

let profile t = if t.prof_on then Some t.prof else None

let set_fault_plan t plan =
  t.plan <- plan;
  t.inject_on <- Mips_fault.Plan.enabled plan;
  t.flaky_armed <- false
let render_word w = Format.asprintf "%a" Word.pp_abs w
let get_reg t r = t.regs.(Reg.to_int r)
let set_reg t r v = t.regs.(Reg.to_int r) <- Word32.norm v
let surprise t = t.sr
let set_surprise t sr = t.sr <- sr
let segmap t = t.seg
let set_segmap t seg = t.seg <- seg
let pagemap t = t.pagemap
let epc t i = t.epcs.(i)
let set_epc t i v = t.epcs.(i) <- v
let pc t = t.p0
let pc_chain t = (t.p0, t.p1, t.p2)

let[@inline] set_chain t a b c =
  t.p0 <- a;
  t.p1 <- b;
  t.p2 <- c

let set_pc_chain t (a, b, c) = set_chain t a b c

let set_pc t a = set_chain t a (a + 1) (a + 2)
let set_interrupt t b = t.interrupt_line <- b
let interrupt_pending t = t.interrupt_line
let read_code t a = t.imem.(a)

let write_code t a w =
  flush_slot t a;
  t.imem.(a) <- w;
  restale t a;
  jit_invalidate t a

let write_note t a n =
  flush_slot t a;
  t.notes.(a) <- n
let read_data t a = t.dmem.(a)
let write_data t a v = t.dmem.(a) <- Word32.norm v
let faulted t = t.fault

let faulted_addr t =
  match t.fault with
  | Some (Missing_page (sp, ga)) -> Some (sp, ga)
  | Some (Segment_violation _ | Transient_ref) | None -> None

(* Each loaded word is written the way [write_code] writes one: traces
   over words not reloaded survive. *)
let load_program ?(at = 0) ?(data_at = 0) t (p : Program.t) =
  Array.iteri (fun i w -> write_code t (at + i) w) p.code;
  Array.blit p.notes 0 t.notes at (Array.length p.notes);
  List.iter (fun (a, v) -> t.dmem.(data_at + a) <- Word32.norm v) p.data;
  set_pc t (at + p.entry)

(* ---------------------------------------------------------------------- *)

exception Fault of Cause.t * int
exception Trap_dispatch of int

(* Translate a word-granularity virtual address to a physical word address. *)
let translate_word t space ~write vaddr =
  match (t.sr.priv, t.sr.map_enable) with
  | Surprise.Kernel, false -> vaddr
  | Surprise.User, false -> raise (Fault (Cause.Privilege, 0))
  | _, true -> (
      let gaddr =
        try Segmap.translate t.seg vaddr
        with Segmap.Out_of_segment a ->
          t.fault <- Some (Segment_violation a);
          raise (Fault (Cause.Page_fault, 0))
      in
      try Pagemap.translate t.pagemap space ~write gaddr
      with Pagemap.Fault (sp, ga) ->
        t.fault <- Some (Missing_page (sp, ga));
        raise (Fault (Cause.Page_fault, 0)))

let operand_value t = function
  | Operand.R r -> t.regs.(Reg.to_int r)
  | Operand.I4 n -> n

let data_bounds_check t phys_word =
  if phys_word < 0 || phys_word >= t.cfg.dmem_words then
    raise (Fault (Cause.Illegal, 1))

(* Effective address of a memory piece, in the machine's native granularity
   (word addresses on the word machine, byte addresses on the byte machine). *)
let effective_addr t = function
  | Mem.Abs a -> a
  | Mem.Disp (b, d) -> Word32.add t.regs.(Reg.to_int b) d
  | Mem.Idx (b, i) -> Word32.add t.regs.(Reg.to_int b) t.regs.(Reg.to_int i)
  | Mem.Shifted (b, i, n) ->
      Word32.add t.regs.(Reg.to_int b)
        (Word32.shift_right_logical t.regs.(Reg.to_int i) n)
  | Mem.Scaled (b, i, n) ->
      Word32.add t.regs.(Reg.to_int b)
        (Word32.shift_left t.regs.(Reg.to_int i) n)

(* Resolve a native address into the latch: physical word index, and the
   byte lane of a byte reference (-1 for a whole word). *)
let resolve t ~write ~width addr =
  let l = t.latch in
  if t.cfg.byte_addressed then begin
    let word_v = addr asr 2 and lane = addr land 3 in
    l.l_phys <- translate_word t Pagemap.Dspace ~write word_v;
    data_bounds_check t l.l_phys;
    match width with
    | Mem.W8 -> l.l_lane <- lane
    | Mem.W32 ->
        if lane <> 0 then raise (Fault (Cause.Illegal, 2));
        l.l_lane <- -1
  end
  else begin
    (match width with
    | Mem.W8 -> raise (Fault (Cause.Illegal, 3))
    | Mem.W32 -> ());
    l.l_phys <- translate_word t Pagemap.Dspace ~write addr;
    data_bounds_check t l.l_phys;
    l.l_lane <- -1
  end

(* An armed flaky-memory fault fires on the next data reference, before any
   translation or access side effect — the reference simply never happens
   this time around and the word restarts through the dispatch path. *)
let check_flaky t =
  if t.flaky_armed then begin
    t.flaky_armed <- false;
    Mips_fault.Plan.note_flaky_fired t.plan;
    t.fault <- Some Transient_ref;
    raise (Fault (Cause.Page_fault, 0))
  end

let compute_mem t m =
  let l = t.latch in
  match m with
  | Mem.Limm (c, d) ->
      l.l_mem <- Imm;
      l.l_mem_reg <- Reg.to_int d;
      l.l_mem_val <- c
  | Mem.Load (width, a, d) ->
      check_flaky t;
      resolve t ~write:false ~width (effective_addr t a);
      l.l_mem <- Load;
      l.l_mem_reg <- Reg.to_int d;
      l.l_mem_val <-
        (if l.l_lane < 0 then t.dmem.(l.l_phys)
         else Word32.get_byte t.dmem.(l.l_phys) l.l_lane)
  | Mem.Store (width, s, a) ->
      check_flaky t;
      resolve t ~write:true ~width (effective_addr t a);
      l.l_mem <- Store;
      l.l_mem_val <- t.regs.(Reg.to_int s)

let overflow_trap t = if t.sr.ovf_enable then raise (Fault (Cause.Overflow, 0))

let binop_eval t op a b =
  match op with
  | Alu.Add ->
      if Word32.add_overflows a b then overflow_trap t;
      Word32.add a b
  | Alu.Sub ->
      if Word32.sub_overflows a b then overflow_trap t;
      Word32.sub a b
  | Alu.Rsub ->
      if Word32.sub_overflows b a then overflow_trap t;
      Word32.sub b a
  | Alu.And -> Word32.logand a b
  | Alu.Or -> Word32.logor a b
  | Alu.Xor -> Word32.logxor a b
  | Alu.Sll -> Word32.shift_left a b
  | Alu.Srl -> Word32.shift_right_logical a b
  | Alu.Sra -> Word32.shift_right_arith a b
  | Alu.Mul ->
      if Word32.mul_overflows a b then overflow_trap t;
      Word32.mul a b
  | Alu.Div -> if b = 0 then raise (Fault (Cause.Overflow, 1)) else Word32.sdiv a b
  | Alu.Rem -> if b = 0 then raise (Fault (Cause.Overflow, 1)) else Word32.srem a b

let read_special t = function
  | Alu.Surprise -> Surprise.to_word t.sr
  | Alu.Segment -> Segmap.to_word t.seg
  | Alu.Byte_select -> t.byte_select
  | Alu.Epc i -> t.epcs.(i)

let latch_reg_write l d v =
  l.l_alu <- Reg_write;
  l.l_alu_reg <- Reg.to_int d;
  l.l_alu_val <- v

let compute_alu t a =
  if Surprise.equal_privilege t.sr.priv Surprise.User && Alu.is_privileged a then
    raise (Fault (Cause.Privilege, 1));
  let l = t.latch in
  match a with
  | Alu.Binop (op, x, y, d) ->
      latch_reg_write l d (binop_eval t op (operand_value t x) (operand_value t y))
  | Alu.Mov (x, d) -> latch_reg_write l d (operand_value t x)
  | Alu.Movi8 (c, d) -> latch_reg_write l d c
  | Alu.Setc (c, x, y, d) ->
      latch_reg_write l d
        (if Cond.eval c (operand_value t x) (operand_value t y) then 1 else 0)
  | Alu.Xbyte (p, w, d) ->
      let lane = operand_value t p land 3 in
      latch_reg_write l d (Word32.get_byte (operand_value t w) lane)
  | Alu.Ibyte (s, d) ->
      let lane = t.byte_select land 3 in
      let cur = t.regs.(Reg.to_int d) in
      latch_reg_write l d (Word32.set_byte cur lane (operand_value t s))
  | Alu.Rd_special (s, d) -> latch_reg_write l d (read_special t s)
  | Alu.Wr_special (s, x) ->
      l.l_alu <- Special_write;
      l.l_special <- s;
      l.l_alu_val <- operand_value t x
  | Alu.Rfe -> l.l_alu <- Rfe

let apply_special t s v =
  match s with
  | Alu.Surprise -> t.sr <- Surprise.of_word v
  | Alu.Segment -> t.seg <- Segmap.of_word v
  | Alu.Byte_select -> t.byte_select <- v land 3
  | Alu.Epc i -> t.epcs.(i) <- v

(* [link] is a register index, or -1 for a branch that does not link *)
let latch_taken l ~link ~ret target delay =
  l.l_taken <- true;
  l.l_link <- link;
  l.l_ret <- ret;
  l.l_target <- target;
  l.l_delay <- delay

let compute_branch t b =
  let l = t.latch in
  match b with
  | Branch.Cbr (c, x, y, target) ->
      if Cond.eval c (operand_value t x) (operand_value t y) then
        latch_taken l ~link:(-1) ~ret:0 target 1
  | Branch.Jump target -> latch_taken l ~link:(-1) ~ret:0 target 1
  | Branch.Jal (target, link) ->
      latch_taken l ~link:(Reg.to_int link) ~ret:t.p2 target 1
  | Branch.Jind r -> latch_taken l ~link:(-1) ~ret:0 t.regs.(Reg.to_int r) 2
  | Branch.Jalind (r, link) ->
      latch_taken l ~link:(Reg.to_int link) ~ret:(t.p2 + 1)
        t.regs.(Reg.to_int r) 2
  | Branch.Trap code -> raise (Trap_dispatch code)

(* Compute phase: every piece reads pre-instruction state, in the order
   mem / alu / branch so that faults rank identically on every engine. *)
let compute t word =
  let l = t.latch in
  l.l_mem <- No_mem;
  l.l_alu <- No_alu;
  l.l_taken <- false;
  match word with
  | Word.Nop -> ()
  | Word.A a -> compute_alu t a
  | Word.M m -> compute_mem t m
  | Word.B b -> compute_branch t b
  | Word.AM (a, m) ->
      compute_mem t m;
      compute_alu t a
  | Word.AB (a, b) ->
      compute_alu t a;
      compute_branch t b

let[@inline] commit_pending t =
  if t.pend_r >= 0 then begin
    t.regs.(t.pend_r) <- t.pend_v;
    t.pend_r <- -1
  end

let dispatch t cause detail ~epcs:(e0, e1, e2) =
  commit_pending t;
  t.epcs.(0) <- e0;
  t.epcs.(1) <- e1;
  t.epcs.(2) <- e2;
  t.sr <- Surprise.push t.sr cause detail;
  set_chain t 0 1 2;
  t.last_load_writes <- Reg.Set.empty;
  Stats.count_exception t.stats cause;
  (* an exception squashes any outstanding branch shadow *)
  if t.prof_on then t.prof.pr_shadow_pending <- 0;
  if t.trace_on then begin
    t.delay_pending <- 0;
    Mips_obs.Sink.emit t.trace
      (Mips_obs.Event.Exception_dispatch
         { pc = e0; cause = Cause.name cause; code = Cause.to_code cause; detail })
  end;
  Dispatched cause

(* One completed word's weighted cycles: on the byte machine a word that
   references data memory pays the fetch overhead.  Every engine adds this
   value, per word and in execution order. *)
let[@inline] weight cfg ~busy =
  if cfg.byte_addressed && busy then 1. +. (cfg.fetch_overhead_pct /. 100.)
  else 1.

let count_cycle t word =
  let s = t.stats in
  s.cycles <- s.cycles + 1;
  s.words <- s.words + 1;
  let busy = Word.references_memory word in
  if busy then s.mem_busy_cycles <- s.mem_busy_cycles + 1
  else s.free_cycles <- s.free_cycles + 1;
  s.weighted.(0) <- s.weighted.(0) +. weight t.cfg ~busy;
  match word with
  | Word.Nop -> s.nops <- s.nops + 1
  | Word.A _ -> s.alu_pieces <- s.alu_pieces + 1
  | Word.M _ -> s.mem_pieces <- s.mem_pieces + 1
  | Word.B _ -> s.branch_pieces <- s.branch_pieces + 1
  | Word.AM _ ->
      s.packed_words <- s.packed_words + 1;
      s.alu_pieces <- s.alu_pieces + 1;
      s.mem_pieces <- s.mem_pieces + 1
  | Word.AB _ ->
      s.packed_words <- s.packed_words + 1;
      s.alu_pieces <- s.alu_pieces + 1;
      s.branch_pieces <- s.branch_pieces + 1

let stall t n =
  t.stats.cycles <- t.stats.cycles + n;
  t.stats.stall_cycles <- t.stats.stall_cycles + n;
  t.stats.free_cycles <- t.stats.free_cycles + n;
  t.stats.weighted.(0) <- t.stats.weighted.(0) +. float_of_int n

(* Apply one decided injection to the architectural state.  Payload values
   are reduced into the machine's own ranges here so the plan can stay
   machine-agnostic. *)
let apply_injection t inj =
  (match inj with
  | Mips_fault.Plan.Flip_reg { reg; bit } ->
      let r = reg land 15 in
      t.regs.(r) <- Word32.norm (t.regs.(r) lxor (1 lsl (bit land 31)))
  | Mips_fault.Plan.Flip_data { word; bit } ->
      let w = word mod t.cfg.dmem_words in
      t.dmem.(w) <- Word32.norm (t.dmem.(w) lxor (1 lsl (bit land 31)))
  | Mips_fault.Plan.Spurious_interrupt -> t.interrupt_line <- true
  | Mips_fault.Plan.Drop_page { pick } ->
      ignore (Pagemap.drop_clean t.pagemap ~pick)
  | Mips_fault.Plan.Flaky_mem -> t.flaky_armed <- true);
  if t.trace_on then
    Mips_obs.Sink.emit t.trace
      (Mips_obs.Event.Fault_injected
         {
           cycle = (stats t).Stats.cycles;
           kind = Mips_fault.Plan.injection_kind inj;
           target = Mips_fault.Plan.injection_target inj;
         })

(* Attribute what one step just charged to [Stats] at the physical fetch
   address it resolved ([prof_fetch]), using before/after deltas.  The
   invariant this preserves: [count_cycle] is the only path adding to both
   [cycles] and [words], [stall] the only one adding to both [cycles] and
   [stall_cycles] — so per-step, cycles delta = words delta + stall delta,
   and summing the buffers reproduces the run's totals exactly.  Steps that
   charge cycles without a fetch (none today; kept for safety) land in
   [pr_other_cycles]. *)
let prof_note t ~c0 ~w0 ~st0 ~bt0 =
  let p = t.prof in
  let s = t.stats in
  let phys = t.prof_fetch in
  if phys >= 0 && phys < Array.length p.pr_counts then begin
    if s.Stats.words > w0 then begin
      p.pr_counts.(phys) <- p.pr_counts.(phys) + 1;
      if p.pr_shadow_pending > 0 then begin
        p.pr_shadow.(phys) <- p.pr_shadow.(phys) + 1;
        p.pr_shadow_pending <- p.pr_shadow_pending - 1
      end
    end;
    let st = s.Stats.stall_cycles - st0 in
    if st > 0 then p.pr_stalls.(phys) <- p.pr_stalls.(phys) + st;
    if s.Stats.branches_taken > bt0 then begin
      (* post-step chain holds the target: interlock redirects immediately,
         a 1-slot branch lands in p1, a 2-slot one in p2 *)
      let delay =
        match Word.branch t.imem.(phys) with
        | Some (Branch.Jind _ | Branch.Jalind _) -> 2
        | _ -> 1
      in
      let target =
        if t.cfg.interlock then t.p0 else if delay = 1 then t.p1 else t.p2
      in
      let key = (phys, target) in
      (match Hashtbl.find_opt p.pr_edges key with
      | Some n -> Hashtbl.replace p.pr_edges key (n + 1)
      | None -> Hashtbl.add p.pr_edges key 1);
      if not t.cfg.interlock then p.pr_shadow_pending <- delay
    end
  end
  else begin
    let dc = s.Stats.cycles - c0 in
    if dc > 0 then p.pr_other_cycles <- p.pr_other_cycles + dc
  end

(* Count the latched data reference as committed, tracing it if asked. *)
let count_mem_ref t (note : Note.t) ~load =
  Stats.count_ref t.stats ~load note;
  if t.trace_on then
    Mips_obs.Sink.emit t.trace
      (Mips_obs.Event.Mem_ref
         {
           pc = t.p0;
           addr = t.latch.l_phys;
           load;
           byte = t.latch.l_lane >= 0;
           char_data = note.char_data;
         })

(* Commit phase: the store, then the pending load, then the ALU result,
   then the load or immediate, each read back from the latch. *)
let commit t word note =
  let l = t.latch in
  (match l.l_mem with
  | Store ->
      t.dmem.(l.l_phys) <-
        (if l.l_lane < 0 then l.l_mem_val
         else Word32.set_byte t.dmem.(l.l_phys) l.l_lane l.l_mem_val);
      count_mem_ref t note ~load:false
  | Load | Imm | No_mem -> ());
  commit_pending t;
  (match l.l_alu with
  | Reg_write -> t.regs.(l.l_alu_reg) <- l.l_alu_val
  | Special_write -> apply_special t l.l_special l.l_alu_val
  | Rfe -> t.sr <- Surprise.pop t.sr
  | No_alu -> ());
  (match l.l_mem with
  | Imm -> t.regs.(l.l_mem_reg) <- l.l_mem_val
  | Load ->
      count_mem_ref t note ~load:true;
      if t.cfg.interlock then t.regs.(l.l_mem_reg) <- l.l_mem_val
      else begin
        t.pend_r <- l.l_mem_reg;
        t.pend_v <- l.l_mem_val
      end
  | Store | No_mem -> ());
  t.last_load_writes <-
    (if t.cfg.interlock then Word.load_writes word else Reg.Set.empty);
  if t.trace_on || t.cfg.interlock then begin
    t.prev_pc <- t.p0;
    t.prev_word <- word
  end

(* Next-pc phase: return from exception, the sequence, or a taken branch
   (whose interlock stall and squashed slots are charged here). *)
let next_pc t word =
  let l = t.latch in
  match l.l_alu with
  | Rfe -> set_chain t t.epcs.(0) t.epcs.(1) t.epcs.(2)
  | No_alu | Reg_write | Special_write ->
      if not l.l_taken then set_chain t t.p1 t.p2 (t.p2 + 1)
      else begin
        let target = l.l_target and delay = l.l_delay in
        if l.l_link >= 0 then t.regs.(l.l_link) <- l.l_ret;
        t.stats.branches_taken <- t.stats.branches_taken + 1;
        if t.trace_on then
          Mips_obs.Sink.emit t.trace
            (Mips_obs.Event.Branch_taken { pc = t.p0; target });
        if t.cfg.interlock then begin
          stall t delay;
          t.stats.branch_stall_cycles <- t.stats.branch_stall_cycles + delay;
          if t.trace_on then begin
            Mips_obs.Sink.emit t.trace
              (Mips_obs.Event.Stall
                 {
                   pc = t.p0;
                   word = render_word word;
                   cycles = delay;
                   reason = Mips_obs.Event.Branch_latency { slots = delay };
                 });
            (* the would-be delay slots are squashed, not executed *)
            Mips_obs.Sink.emit t.trace
              (Mips_obs.Event.Delay_slot { pc = t.p1; kind = `Squashed });
            if delay > 1 then
              Mips_obs.Sink.emit t.trace
                (Mips_obs.Event.Delay_slot { pc = t.p2; kind = `Squashed })
          end;
          set_chain t target (target + 1) (target + 2)
        end
        else begin
          if t.trace_on then t.delay_pending <- delay;
          if delay = 1 then set_chain t t.p1 target (target + 1)
          else set_chain t t.p1 t.p2 target
        end
      end

let trace_issue t w =
  Mips_obs.Sink.emit t.trace
    (Mips_obs.Event.Issue
       { pc = t.p0; word = render_word w; pieces = List.length (Word.pieces w) })

let step_core t =
  if t.inject_on then begin
    match Mips_fault.Plan.decide t.plan with
    | Some inj -> apply_injection t inj
    | None -> ()
  end;
  if t.interrupt_line && t.sr.int_enable then
    dispatch t Cause.Interrupt 0 ~epcs:(t.p0, t.p1, t.p2)
  else begin
    if t.trace_on then
      Mips_obs.Sink.emit t.trace (Mips_obs.Event.Fetch { pc = t.p0 });
    (* pre-step PC chain, in locals so the sequential-EPC tuple is only
       built on the fault-dispatch path *)
    let e0 = t.p0 and e1 = t.p1 and e2 = t.p2 in
    match
      let fetch_phys = translate_word t Pagemap.Ispace ~write:false t.p0 in
      if fetch_phys < 0 || fetch_phys >= t.cfg.imem_words then
        raise (Fault (Cause.Illegal, 0));
      let word = t.imem.(fetch_phys) in
      if t.prof_on then t.prof_fetch <- fetch_phys;
      (* interlock-mode stall detection: dependent word waits a cycle *)
      if
        t.cfg.interlock
        && not (Reg.Set.is_empty (Reg.Set.inter t.last_load_writes (Word.reads word)))
      then begin
        stall t 1;
        t.stats.load_use_stall_cycles <- t.stats.load_use_stall_cycles + 1;
        Stats.record_stall_pair t.stats ~producer_pc:t.prev_pc ~consumer_pc:t.p0;
        if t.trace_on then
          Mips_obs.Sink.emit t.trace
            (Mips_obs.Event.Stall
               {
                 pc = t.p0;
                 word = render_word word;
                 cycles = 1;
                 reason =
                   Mips_obs.Event.Load_use
                     {
                       producer_pc = t.prev_pc;
                       producer = render_word t.prev_word;
                     };
               })
      end;
      compute t word;
      fetch_phys
    with
    | exception Fault (cause, detail) -> dispatch t cause detail ~epcs:(e0, e1, e2)
    | exception Trap_dispatch code ->
        (* a trap commits nothing else in its word and resumes after itself *)
        let w =
          let phys = translate_word t Pagemap.Ispace ~write:false t.p0 in
          t.imem.(phys)
        in
        count_cycle t w;
        if t.trace_on then begin
          trace_issue t w;
          Mips_obs.Sink.emit t.trace
            (Mips_obs.Event.Monitor_call
               {
                 code;
                 name = (match Monitor.name code with Some n -> n | None -> "?");
               })
        end;
        dispatch t Cause.Trap code ~epcs:(t.p1, t.p2, t.p2 + 1)
    | fetch_phys ->
        let word = t.imem.(fetch_phys) in
        count_cycle t word;
        if t.trace_on then begin
          trace_issue t word;
          if t.delay_pending > 0 then begin
            t.delay_pending <- t.delay_pending - 1;
            Mips_obs.Sink.emit t.trace
              (Mips_obs.Event.Delay_slot
                 {
                   pc = t.p0;
                   kind = (match word with Word.Nop -> `Nop | _ -> `Filled);
                 })
          end
        end;
        commit t word t.notes.(fetch_phys);
        next_pc t word;
        Stepped
  end

(* One reference-engine cycle, profiling-aware: the quiet path is a single
   flag test (the PR-2 fault-hook pattern); with profiling armed the step
   is bracketed by a [Stats] snapshot and the delta attributed to the
   fetched pc. *)
let step t =
  if not t.prof_on then step_core t
  else begin
    let s = t.stats in
    let c0 = s.Stats.cycles and w0 = s.Stats.words in
    let st0 = s.Stats.stall_cycles and bt0 = s.Stats.branches_taken in
    t.prof_fetch <- -1;
    let ev = step_core t in
    prof_note t ~c0 ~w0 ~st0 ~bt0;
    ev
  end

(* ---------------------------------------------------------------------- *)
(* Fast engine: per-word compiled closures over predecoded entries.

   [compile_word] specializes one instruction word, for one machine
   configuration, into a [t -> unit] closure that replays exactly the
   quiet-path effects of [step]: same compute order (mem, alu, branch, all
   reading pre-instruction state), same commit order (store, pending load,
   alu, load/limm).  Everything [step] recomputes per cycle — piece
   projections, read/write sets, hazard flags — is resolved here once, via
   {!Predecode.lower}.  The closures write only the dynamic statistics
   (taken branches, stalls, and the byte machine's weighted cycles);
   [step_fast_quiet] counts the completed word and [fold] charges it.

   The closures are only ever run from [step_fast], which falls back to
   [step] for any cycle that is not [quiet] (something could observe or
   perturb the step).  Faults still escape as exceptions and reach the
   shared [dispatch]. *)

let user_priv_check t =
  if Surprise.equal_privilege t.sr.priv Surprise.User then
    raise (Fault (Cause.Privilege, 1))

(* Resolved ALU piece: destination picked apart from the value computation
   so the compute phase can park the result in a scratch slot and the
   commit phase can land it after the pending load. *)
type alu_exec =
  | AXnone
  | AXreg of int * (t -> int)  (* destination register, value *)
  | AXspecial of Alu.special * (t -> int)
  | AXrfe

(* Resolved memory piece.  The [t -> int] computes the resolved physical
   address at compute time (byte variants encode [(phys lsl 2) lor lane]);
   faults raise from inside it, exactly where [compute_mem] would. *)
type mem_exec =
  | MXnone
  | MXlimm of int * int  (* destination register, constant *)
  | MXload_w of int * (t -> int)
  | MXload_b of int * (t -> int)
  | MXstore_w of int * (t -> int)  (* source register, address *)
  | MXstore_b of int * (t -> int)

(* Resolved branch piece.  Targets of indirect branches are register reads
   and must happen at compute time (pre-commit); direct targets are
   immediate. *)
type br_exec =
  | BXnone
  | BXcbr of (t -> bool) * int
  | BXjump of int
  | BXjal of int * int  (* target, link register *)
  | BXjind of int  (* target register *)
  | BXjalind of int * int  (* target register, link register *)
  | BXtrap of int

(* An operand resolved at compile time into an (is-register, payload)
   pair, so a piece reads it inside its one closure with one predictable
   test.  [Reg.t] is 0-15 by construction, so the register read needs no
   bounds check. *)
let op_rd = function
  | Operand.R r -> (true, Reg.to_int r)
  | Operand.I4 n -> (false, n)

let[@inline] read_op t k v = if k then Array.unsafe_get t.regs v else v

let compile_binop op x y =
  let xk, xv = op_rd x and yk, yv = op_rd y in
  match op with
  | Alu.Add ->
      fun t ->
        let a = read_op t xk xv and b = read_op t yk yv in
        if Word32.add_overflows a b then overflow_trap t;
        Word32.add a b
  | Alu.Sub ->
      fun t ->
        let a = read_op t xk xv and b = read_op t yk yv in
        if Word32.sub_overflows a b then overflow_trap t;
        Word32.sub a b
  | Alu.Rsub ->
      fun t ->
        let a = read_op t xk xv and b = read_op t yk yv in
        if Word32.sub_overflows b a then overflow_trap t;
        Word32.sub b a
  | Alu.And -> fun t -> Word32.logand (read_op t xk xv) (read_op t yk yv)
  | Alu.Or -> fun t -> Word32.logor (read_op t xk xv) (read_op t yk yv)
  | Alu.Xor -> fun t -> Word32.logxor (read_op t xk xv) (read_op t yk yv)
  | Alu.Sll -> fun t -> Word32.shift_left (read_op t xk xv) (read_op t yk yv)
  | Alu.Srl ->
      fun t -> Word32.shift_right_logical (read_op t xk xv) (read_op t yk yv)
  | Alu.Sra ->
      fun t -> Word32.shift_right_arith (read_op t xk xv) (read_op t yk yv)
  | Alu.Mul ->
      fun t ->
        let a = read_op t xk xv and b = read_op t yk yv in
        if Word32.mul_overflows a b then overflow_trap t;
        Word32.mul a b
  | Alu.Div ->
      fun t ->
        let a = read_op t xk xv and b = read_op t yk yv in
        if b = 0 then raise (Fault (Cause.Overflow, 1)) else Word32.sdiv a b
  | Alu.Rem ->
      fun t ->
        let a = read_op t xk xv and b = read_op t yk yv in
        if b = 0 then raise (Fault (Cause.Overflow, 1)) else Word32.srem a b

let compile_alu a =
  (* the privilege test guards the whole piece, as in [compute_alu] *)
  let wrap f =
    if Alu.is_privileged a then (fun t ->
      user_priv_check t;
      f t)
    else f
  in
  match a with
  | Alu.Binop (op, x, y, d) -> AXreg (Reg.to_int d, wrap (compile_binop op x y))
  | Alu.Mov (x, d) ->
      let xk, xv = op_rd x in
      AXreg (Reg.to_int d, wrap (fun t -> read_op t xk xv))
  | Alu.Movi8 (c, d) -> AXreg (Reg.to_int d, wrap (fun _ -> c))
  | Alu.Setc (c, x, y, d) ->
      let xk, xv = op_rd x and yk, yv = op_rd y in
      AXreg
        ( Reg.to_int d,
          wrap (fun t ->
              if Cond.eval c (read_op t xk xv) (read_op t yk yv) then 1 else 0) )
  | Alu.Xbyte (p, w, d) ->
      let pk, pv = op_rd p and wk, wv = op_rd w in
      AXreg
        ( Reg.to_int d,
          wrap (fun t ->
              Word32.get_byte (read_op t wk wv) (read_op t pk pv land 3)) )
  | Alu.Ibyte (s, d) ->
      let sk, sv = op_rd s and d = Reg.to_int d in
      AXreg
        ( d,
          wrap (fun t ->
              Word32.set_byte (Array.unsafe_get t.regs d)
                (t.byte_select land 3) (read_op t sk sv)) )
  | Alu.Rd_special (s, d) ->
      AXreg (Reg.to_int d, wrap (fun t -> read_special t s))
  | Alu.Wr_special (s, x) ->
      let xk, xv = op_rd x in
      AXspecial (s, wrap (fun t -> read_op t xk xv))
  | Alu.Rfe -> AXrfe (* privilege checked by the engine at compute time *)

let compile_addr = function
  | Mem.Abs a -> fun _ -> a
  | Mem.Disp (b, d) ->
      let b = Reg.to_int b in
      fun t -> Word32.add t.regs.(b) d
  | Mem.Idx (b, i) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      fun t -> Word32.add t.regs.(b) t.regs.(i)
  | Mem.Shifted (b, i, n) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      fun t -> Word32.add t.regs.(b) (Word32.shift_right_logical t.regs.(i) n)
  | Mem.Scaled (b, i, n) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      fun t -> Word32.add t.regs.(b) (Word32.shift_left t.regs.(i) n)

(* A data reference's resolve rule, by machine and width.  The word
   address is [addr asr 2] on the byte machine and [addr] on the word
   machine ([rule_word]); a byte reference on the word machine raises
   Illegal 3 before any translation.  The translated word out of range
   raises Illegal 1, then a misaligned word reference on the byte machine
   Illegal 2 ([rule_place]).  A word reference resolves to the physical
   word, a byte reference to [(phys lsl 2) lor lane].  The faults rank as
   in [resolve], which the reference engine keeps as the oracle. *)
type rule = Whole | Aligned | Lane | No_lane

let rule_of (cfg : config) width =
  match (cfg.byte_addressed, width) with
  | false, Mem.W32 -> Whole
  | true, Mem.W32 -> Aligned
  | true, Mem.W8 -> Lane
  | false, Mem.W8 -> No_lane

let[@inline] rule_word rule addr =
  match rule with
  | Whole -> addr
  | Aligned | Lane -> addr asr 2
  | No_lane -> raise (Fault (Cause.Illegal, 3))

let[@inline] rule_place rule ~dmem_words addr phys =
  if phys < 0 || phys >= dmem_words then raise (Fault (Cause.Illegal, 1));
  match rule with
  | Whole | No_lane -> phys
  | Aligned ->
      if addr land 3 <> 0 then raise (Fault (Cause.Illegal, 2));
      phys
  | Lane -> (phys lsl 2) lor (addr land 3)

(* Compiled data-address resolution shared by loads and stores: the
   closure returns the physical word, or [(phys lsl 2) lor lane] when the
   flag says it is a byte reference. *)
let compile_resolve (cfg : config) ~write width a =
  let ga = compile_addr a and rule = rule_of cfg width in
  let dmem_words = cfg.dmem_words in
  ( rule = Lane,
    fun t ->
      let addr = ga t in
      rule_place rule ~dmem_words addr
        (translate_word t Pagemap.Dspace ~write (rule_word rule addr)) )

let compile_mem (cfg : config) m =
  match m with
  | None -> MXnone
  | Some (Mem.Limm (c, d)) -> MXlimm (Reg.to_int d, c)
  | Some (Mem.Load (width, a, d)) -> (
      match compile_resolve cfg ~write:false width a with
      | true, fp -> MXload_b (Reg.to_int d, fp)
      | false, fp -> MXload_w (Reg.to_int d, fp))
  | Some (Mem.Store (width, s, a)) -> (
      match compile_resolve cfg ~write:true width a with
      | true, fp -> MXstore_b (Reg.to_int s, fp)
      | false, fp -> MXstore_w (Reg.to_int s, fp))

let compile_branch = function
  | None -> BXnone
  | Some (Branch.Cbr (c, x, y, target)) ->
      let xk, xv = op_rd x and yk, yv = op_rd y in
      BXcbr ((fun t -> Cond.eval c (read_op t xk xv) (read_op t yk yv)), target)
  | Some (Branch.Jump target) -> BXjump target
  | Some (Branch.Jal (target, link)) -> BXjal (target, Reg.to_int link)
  | Some (Branch.Jind r) -> BXjind (Reg.to_int r)
  | Some (Branch.Jalind (r, link)) -> BXjalind (Reg.to_int r, Reg.to_int link)
  | Some (Branch.Trap code) -> BXtrap code

let compile_word (cfg : config) (w : int Word.t) : t -> unit =
  let e = Predecode.lower w in
  let interlock = cfg.interlock in
  (* the byte machine's weighted cycles are not integral, so their sum
     depends on the order of the adds: they stay a per-step add, in the
     reference order, instead of being folded *)
  let weigh = cfg.byte_addressed in
  let weight = weight cfg ~busy:(Word.references_memory w) in
  (* every closure below calls it once, after the word's faultable compute *)
  let[@inline] weigh_word t =
    if weigh then t.stats.weighted.(0) <- t.stats.weighted.(0) +. weight
  in
  let stall_check = interlock && e.Predecode.may_stall in
  let reads = e.Predecode.reads in
  let lw = if interlock then e.Predecode.load_writes else Reg.Set.empty in
  let mx = compile_mem cfg e.Predecode.mem in
  let ax = match e.Predecode.alu with None -> AXnone | Some a -> compile_alu a in
  let bx = compile_branch e.Predecode.branch in
  let is_rfe = match ax with AXrfe -> true | _ -> false in
  let take t target delay =
    t.stats.branches_taken <- t.stats.branches_taken + 1;
    if interlock then begin
      stall t delay;
      t.stats.branch_stall_cycles <- t.stats.branch_stall_cycles + delay;
      set_chain t target (target + 1) (target + 2)
    end
    else if delay = 1 then set_chain t t.p1 target (target + 1)
    else set_chain t t.p1 t.p2 target
  in
  let generic t =
    (* interlock-mode stall detection, as in [step] *)
    if
      stall_check
      && not (Reg.Set.is_empty (Reg.Set.inter t.last_load_writes reads))
    then begin
      stall t 1;
      t.stats.load_use_stall_cycles <- t.stats.load_use_stall_cycles + 1;
      Stats.record_stall_pair t.stats ~producer_pc:t.prev_pc ~consumer_pc:t.p0
    end;
    (* compute phase: all operands read from pre-instruction state, in the
       reference order mem / alu / branch so faults rank identically *)
    (match mx with
    | MXnone | MXlimm _ -> ()
    | MXload_w (_, fp) | MXload_b (_, fp) -> t.sc_a <- fp t
    | MXstore_w (s, fp) | MXstore_b (s, fp) ->
        t.sc_a <- fp t;
        t.sc_b <- t.regs.(s));
    (match ax with
    | AXnone -> ()
    | AXreg (_, f) | AXspecial (_, f) -> t.sc_v <- f t
    | AXrfe -> user_priv_check t);
    (* nothing faults past this point: the word completes (a trap too) *)
    weigh_word t;
    (match bx with
    | BXnone | BXjump _ | BXjal _ -> ()
    | BXcbr (f, _) -> t.sc_taken <- f t
    | BXjind r | BXjalind (r, _) -> t.sc_target <- t.regs.(r)
    | BXtrap code ->
        (* a trap commits nothing else in its word; it still completes *)
        raise (Trap_dispatch code));
    (* commit phase: store, then the pending load, then alu, then load *)
    (match mx with
    | MXstore_w _ -> t.dmem.(t.sc_a) <- t.sc_b
    | MXstore_b _ ->
        let phys = t.sc_a lsr 2 and lane = t.sc_a land 3 in
        t.dmem.(phys) <- Word32.set_byte t.dmem.(phys) lane t.sc_b
    | MXnone | MXlimm _ | MXload_w _ | MXload_b _ -> ());
    commit_pending t;
    (match ax with
    | AXnone -> ()
    | AXreg (d, _) -> t.regs.(d) <- t.sc_v
    | AXspecial (s, _) -> apply_special t s t.sc_v
    | AXrfe -> t.sr <- Surprise.pop t.sr);
    (match mx with
    | MXlimm (d, c) -> t.regs.(d) <- c
    | MXload_w (d, _) ->
        let v = t.dmem.(t.sc_a) in
        if interlock then t.regs.(d) <- v
        else begin
          t.pend_r <- d;
          t.pend_v <- v
        end
    | MXload_b (d, _) ->
        let v = Word32.get_byte t.dmem.(t.sc_a lsr 2) (t.sc_a land 3) in
        if interlock then t.regs.(d) <- v
        else begin
          t.pend_r <- d;
          t.pend_v <- v
        end
    | MXnone | MXstore_w _ | MXstore_b _ -> ());
    (* [last_load_writes] / stall attribution state only matter on the
       interlocked machine; in delayed-load mode they are always empty *)
    if interlock then begin
      t.last_load_writes <- lw;
      t.prev_pc <- t.p0;
      t.prev_word <- w
    end;
    (* next-pc phase *)
    if is_rfe then set_chain t t.epcs.(0) t.epcs.(1) t.epcs.(2)
    else
      match bx with
      | BXnone -> set_chain t t.p1 t.p2 (t.p2 + 1)
      | BXcbr (_, target) ->
          if t.sc_taken then take t target 1
          else set_chain t t.p1 t.p2 (t.p2 + 1)
      | BXjump target -> take t target 1
      | BXjal (target, link) ->
          t.regs.(link) <- t.p2;
          take t target 1
      | BXjind _ -> take t t.sc_target 2
      | BXjalind (_, link) ->
          t.regs.(link) <- t.p2 + 1;
          take t t.sc_target 2
      | BXtrap _ -> assert false (* raised during the compute phase *)
  in
  (* Specialised straight-line bodies for the common shapes on the
     delayed-load machines, word and byte addressed alike.  The
     [mx]/[ax]/[bx] matches in [generic] are constant per closure but share
     branch-predictor sites across every compiled word, so the hot shapes
     get dedicated closures with the pending-load commit and the PC advance
     inlined ([@inline]: no tuples, no out-of-line calls).  Each body adds
     the byte machine's weighted cycles right after its faultable compute,
     as [generic] does; the address closures already carry the machine's
     resolve rule.  Interlock mode and the rare shapes (traps, rfe,
     specials, unusual packings) stay on [generic]; the commit ordering in
     each body mirrors it exactly. *)
  if interlock then generic
  else
    match (mx, ax, bx) with
    | MXnone, AXnone, BXnone ->
        fun t ->
          weigh_word t;
          commit_pending t;
          set_chain t t.p1 t.p2 (t.p2 + 1)
    | MXnone, AXreg (d, f), BXnone ->
        fun t ->
          let v = f t in
          weigh_word t;
          commit_pending t;
          t.regs.(d) <- v;
          set_chain t t.p1 t.p2 (t.p2 + 1)
    | MXlimm (d, c0), AXnone, BXnone ->
        fun t ->
          weigh_word t;
          commit_pending t;
          t.regs.(d) <- c0;
          set_chain t t.p1 t.p2 (t.p2 + 1)
    | MXload_w (d, fp), AXnone, BXnone ->
        fun t ->
          let a = fp t in
          weigh_word t;
          commit_pending t;
          t.pend_r <- d;
          t.pend_v <- t.dmem.(a);
          set_chain t t.p1 t.p2 (t.p2 + 1)
    | MXload_b (d, fp), AXnone, BXnone ->
        fun t ->
          let a = fp t in
          weigh_word t;
          commit_pending t;
          t.pend_r <- d;
          t.pend_v <- Word32.get_byte t.dmem.(a lsr 2) (a land 3);
          set_chain t t.p1 t.p2 (t.p2 + 1)
    | MXstore_w (src, fp), AXnone, BXnone ->
        fun t ->
          let a = fp t in
          let v = t.regs.(src) in
          weigh_word t;
          t.dmem.(a) <- v;
          commit_pending t;
          set_chain t t.p1 t.p2 (t.p2 + 1)
    | MXstore_b (src, fp), AXnone, BXnone ->
        fun t ->
          let a = fp t in
          let v = t.regs.(src) in
          weigh_word t;
          let phys = a lsr 2 in
          t.dmem.(phys) <- Word32.set_byte t.dmem.(phys) (a land 3) v;
          commit_pending t;
          set_chain t t.p1 t.p2 (t.p2 + 1)
    | MXnone, AXnone, BXcbr (f, target) ->
        fun t ->
          weigh_word t;
          let taken = f t in
          commit_pending t;
          if taken then begin
            t.stats.branches_taken <- t.stats.branches_taken + 1;
            set_chain t t.p1 target (target + 1)
          end
          else set_chain t t.p1 t.p2 (t.p2 + 1)
    | MXnone, AXnone, BXjump target ->
        fun t ->
          weigh_word t;
          commit_pending t;
          t.stats.branches_taken <- t.stats.branches_taken + 1;
          set_chain t t.p1 target (target + 1)
    | MXnone, AXnone, BXjal (target, link) ->
        fun t ->
          weigh_word t;
          commit_pending t;
          t.regs.(link) <- t.p2;
          t.stats.branches_taken <- t.stats.branches_taken + 1;
          set_chain t t.p1 target (target + 1)
    | MXnone, AXnone, BXjind r ->
        fun t ->
          weigh_word t;
          let target = t.regs.(r) in
          commit_pending t;
          t.stats.branches_taken <- t.stats.branches_taken + 1;
          set_chain t t.p1 t.p2 target
    | MXnone, AXnone, BXjalind (r, link) ->
        fun t ->
          weigh_word t;
          let target = t.regs.(r) in
          commit_pending t;
          t.regs.(link) <- t.p2 + 1;
          t.stats.branches_taken <- t.stats.branches_taken + 1;
          set_chain t t.p1 t.p2 target
    | MXnone, AXreg (d, fa), BXcbr (fb, target) ->
        fun t ->
          let v = fa t in
          weigh_word t;
          let taken = fb t in
          commit_pending t;
          t.regs.(d) <- v;
          if taken then begin
            t.stats.branches_taken <- t.stats.branches_taken + 1;
            set_chain t t.p1 target (target + 1)
          end
          else set_chain t t.p1 t.p2 (t.p2 + 1)
    | MXnone, AXreg (d, fa), BXjump target ->
        fun t ->
          let v = fa t in
          weigh_word t;
          commit_pending t;
          t.regs.(d) <- v;
          t.stats.branches_taken <- t.stats.branches_taken + 1;
          set_chain t t.p1 target (target + 1)
    | MXlimm (dm, c0), AXreg (da, fa), BXnone ->
        fun t ->
          let v = fa t in
          weigh_word t;
          commit_pending t;
          t.regs.(da) <- v;
          t.regs.(dm) <- c0;
          set_chain t t.p1 t.p2 (t.p2 + 1)
    | MXload_w (dm, fp), AXreg (da, fa), BXnone ->
        fun t ->
          let a = fp t in
          let v = fa t in
          weigh_word t;
          commit_pending t;
          t.regs.(da) <- v;
          t.pend_r <- dm;
          t.pend_v <- t.dmem.(a);
          set_chain t t.p1 t.p2 (t.p2 + 1)
    | MXstore_w (src, fp), AXreg (da, fa), BXnone ->
        fun t ->
          let a = fp t in
          let sv = t.regs.(src) in
          let v = fa t in
          weigh_word t;
          t.dmem.(a) <- sv;
          commit_pending t;
          t.regs.(da) <- v;
          set_chain t t.p1 t.p2 (t.p2 + 1)
    | _ -> generic

(* Compile slot [p]'s word into its [xword], giving the slot one on its
   first compile. *)
let compile_slot t p =
  let code = compile_word t.cfg t.imem.(p) in
  let x = t.xcode.(p) in
  if x != stale then begin
    x.code <- code;
    x
  end
  else begin
    let x = { stale with code; slot = p } in
    t.xcode.(p) <- x;
    t.xlive <- x :: t.xlive;
    x
  end

let[@inline] slot t p =
  let x = t.xcode.(p) in
  if x.code == stale_code then compile_slot t p else x

let jit_register t tl =
  t.jit_live <- tl :: t.jit_live;
  Array.iter (fun p -> let x = slot t p in x.cover <- tl :: x.cover) tl.tl_pcs

(* The quiet path's precondition: no tracing, no fault injection, no armed
   flaky reference, interrupt line low, no profiling.  Any of them arming
   routes a cycle through the reference [step] — cycle-for-cycle, so the
   engines can interleave freely mid-run.  The jit's dispatch loop tests
   the same predicate. *)
let[@inline] quiet t =
  not (t.trace_on || t.inject_on || t.flaky_armed || t.interrupt_line || t.prof_on)

(* One fast-engine cycle on the quiet path.  A completed word (a trap
   included) bumps its slot's execution count, the one statistics write
   the closures leave to this loop. *)
let step_fast_quiet t =
  (* pre-step PC chain, kept in locals so the sequential-EPC tuple is
     only materialised on the (rare) fault-dispatch path *)
  let e0 = t.p0 and e1 = t.p1 and e2 = t.p2 in
  match
    let fetch_phys =
      (* inlined fast case of [translate_word]: kernel mode, mapping off *)
      match (t.sr.Surprise.priv, t.sr.Surprise.map_enable) with
      | Surprise.Kernel, false -> t.p0
      | _ -> translate_word t Pagemap.Ispace ~write:false t.p0
    in
    if fetch_phys < 0 || fetch_phys >= t.cfg.imem_words then
      raise (Fault (Cause.Illegal, 0));
    let x = slot t fetch_phys in
    x.code t;
    x
  with
  | x ->
      x.runs <- x.runs + 1;
      Stepped
  | exception Fault (cause, detail) ->
      dispatch t cause detail ~epcs:(e0, e1, e2)
  | exception Trap_dispatch code ->
      let x = t.xcode.(translate_word t Pagemap.Ispace ~write:false t.p0) in
      x.runs <- x.runs + 1;
      dispatch t Cause.Trap code ~epcs:(t.p1, t.p2, t.p2 + 1)

let step_fast t = if quiet t then step_fast_quiet t else step t

(* ---------------------------------------------------------------------- *)

type engine = Ref | Fast | Jit

let engine_name = function Ref -> "ref" | Fast -> "fast" | Jit -> "jit"
let engine_of_string = function
  | "ref" -> Some Ref
  | "fast" -> Some Fast
  | "jit" -> Some Jit
  | _ -> None

(* Per-step contexts (the kernel's scheduler loop, arbitrary interleaving)
   get the fast engine for [Jit]: trace dispatch only exists at whole-run
   granularity, and [step_fast] is the jit loop's own single-step fallback,
   so the state evolution is identical. *)
let stepper = function Ref -> step | Fast | Jit -> step_fast

let run_with stepf ?(fuel = 10_000_000) t handler =
  let rec loop fuel =
    if fuel <= 0 then begin
      t.stats.Stats.fuel_exhausted <- true;
      false
    end
    else
      match stepf t with
      | Stepped -> loop (fuel - 1)
      | Dispatched cause -> (
          match handler t cause with
          | `Halt -> true
          | `Resume ->
              t.sr <- Surprise.pop t.sr;
              set_chain t t.epcs.(0) t.epcs.(1) t.epcs.(2);
              loop (fuel - 1))
  in
  loop fuel

let run ?fuel t handler = run_with step ?fuel t handler

(* The jit run loop lives in [Mips_jit] (lib/jit), which depends on this
   module; it registers itself here at [install] time.  Requesting the jit
   engine without having linked it is a programming error, and failing loud
   beats silently falling back to a slower engine. *)
let jit_runner :
    (?fuel:int -> t -> (t -> Cause.t -> [ `Resume | `Halt ]) -> bool) ref =
  ref (fun ?fuel:_ _ _ ->
      failwith "Cpu.run_engine: jit engine not installed (call Mips_jit.install)")

let set_jit_runner f = jit_runner := f

let run_engine ?fuel ~engine t handler =
  match engine with
  | Jit -> !jit_runner ?fuel t handler
  | Ref | Fast -> run_with (stepper engine) ?fuel t handler
