(* Trace-JIT execution engine: hot straight-line superblocks compiled into
   single fused closures.

   The fast engine (Cpu.step_fast) pays a fixed per-word toll: the run-loop
   match, the quiet-path flag tests, the fetch translation and bounds check,
   the closure-cache load, the execution count and the three-deep PC chain
   update.  A trace hoists all of that out of the block body: per-PC
   hotness counts, kept with the trace in the entry slot's [Cpu.xword],
   detect a hot entry, the straight-line word sequence from
   there (through at most one terminating branch and its delay slots) is
   compiled into one closure, and the dispatch loop runs whole blocks per
   iteration.  Inside the body only the semantic work remains — a trace
   counts its runs, one update per execution (per exit, for a loop), and
   the statistics fold spreads them onto its words; the PC chain is written
   only at exits, the delayed-load latch travels through compile-time
   tracking instead of per-word option cells, and the two profitable
   adjacent pairs (cmp+branch, load+use) are fused into single fragments.
   Loop-back edges (a conditional branch targeting its own trace entry) are
   specialized so tight loops spin inside the closure without touching the
   dispatch loop at all.

   The reference interpreter remains the oracle: a trace must leave every
   architecturally visible artifact — registers, memory, PC chain, EPCs,
   and the full Stats record including the float weighted-cycle cell —
   bit-identical to the same words executed by Cpu.step.  Two consequences
   shape the design:

   - Traces exist for the delayed-load machines, word and byte addressed,
     running in kernel mode with mapping off.  There fetch and data
     translation are the identity, so straight-line execution is really
     straight-line and a data address resolves by the machine's one rule
     with no call.  On the word machine every word weighs exactly 1.0
     cycle, so the weighted cycles are derived from the run counts like
     every other static statistic; the byte machine's weights (1.15 for a
     word referencing memory) make the float sum order-dependent, so a
     trace adds them per word, in execution order, as it leaves.  The
     interlocked machine and every other machine state fall back to
     step_fast.
   - A fault inside a trace must dispatch exactly as if the words had run
     one by one.  Fragments record their body index in [jit_k] before any
     faultable compute; the recovery path then counts the words of the
     completed prefix, rebuilds the PC chain at the faulting word and
     rematerializes the in-flight delayed load before re-raising into the
     dispatch loop.

   A trace runs the fast engine's value closures: its ALU and branch pieces
   come from [Cpu.compile_alu] and [Cpu.compile_branch].  Only the
   pinned-state address and the one-closure direct fragments are compiled
   here, because prototypes without them measured slower (see "Compute
   closures" below).

   The dispatch loop and the compiled closures allocate nothing per
   executed instruction: recursion replaces ref cells, scalar scratch
   fields replace tuples, and the only allocations happen at compile time
   (once per hot block) or on the fault path. *)

open Mips_isa
open Mips_machine
open Cpu

let hot_threshold = 32
let max_trace_words = 128
let min_trace_words = 3

(* ------------------------------------------------------------------ *)
(* Trace scanning *)

(* A word the trace body may contain: no branch piece, no trap, and
   nothing that could change privilege/mapping mid-trace (Wr_special,
   Rfe). *)
let pieces_ok (e : Predecode.entry) =
  (not e.Predecode.is_trap)
  &&
  match e.Predecode.alu with
  | Some (Alu.Wr_special _ | Alu.Rfe) -> false
  | Some _ | None -> true

let plain_ok (e : Predecode.entry) = e.Predecode.branch = None && pieces_ok e

(* Control role of a body word.  [CJump (tgt, link)] is an inlined
   unconditional direct jump (link register, -1 for plain [Jump]);
   [CGuard tgt] is a speculated conditional branch compiled into a guard
   (predicted not-taken, side-exits to [tgt] when taken); [CGSlot] is the
   delay slot carrying a guard's side-exit check. *)
type ctl = CNone | CJump of int * int | CGuard of int | CGSlot

(* A body word as scanned: its guest pc, the chain cells [p1]/[p2] live
   while it executes ([p0] is always its own pc), and its control role.
   Away from branch shadows the chain is sequential and [sw_c1]/[sw_c2]
   are just [pc+1]/[pc+2]; a guard's slot holds the *not-taken* chain and
   the recovery path substitutes the taken one from the live [sc_taken]. *)
type sword = {
  sw : Predecode.entry;
  sw_pc : int;
  sw_c1 : int;
  sw_c2 : int;
  sw_ctl : ctl;
}

(* Raised by a guard's delay-slot check when the speculated branch was
   taken: unwinds out of the trace body into the side-exit path.  Carries
   no payload (the guard index travels in [jit_k]), so raising does not
   allocate. *)
exception Guard_exit

(* Superblock scan from [entry_pc].  Straight-line words accumulate as
   before, but an unconditional *direct* jump ([Jump]/[Jal]) whose target
   is static does not end the trace: the jump word and its delay slot are
   emitted into the body and scanning continues at the target — the trace
   crosses the control transfer at compile time, so calls and jump-stitched
   loops run as one block.  Conditional branches and indirect jumps still
   terminate (their successor is dynamic), as does a jump back to the entry
   itself, which is more profitable as the spin-loop terminator.

   Returns [(body, term, cont)]: the body words, the optional terminating
   branch with its delay slots, and — [term = Some] — the terminator's pc,
   or — [term = None] — the pc execution falls to when the trace ends
   without one (sequential context there by construction). *)
let scan t entry_pc =
  let imem = t.imem in
  let limit = t.cfg.imem_words in
  let rec go pc i acc =
    if i >= max_trace_words || pc >= limit then (List.rev acc, None, pc)
    else
      let e = Predecode.lower imem.(pc) in
      if Predecode.ends_block e then
        if e.Predecode.is_trap || not (pieces_ok e) then (List.rev acc, None, pc)
        else begin
          let delay =
            match Predecode.branch_delay e with Some d -> d | None -> 0
          in
          (* every delay slot must itself be a plain eligible word *)
          let rec slots j acc' =
            if j > delay then Some (List.rev acc')
            else
              let spc = pc + j in
              if spc >= limit then None
              else
                let se = Predecode.lower imem.(spc) in
                if plain_ok se then slots (j + 1) (spc :: acc') else None
          in
          match slots 1 [] with
          | None -> (List.rev acc, None, pc)
          | Some sl -> (
              let decision =
                match e.Predecode.branch with
                | Some (Branch.Jump tgt) -> `Jump (tgt, -1)
                | Some (Branch.Jal (tgt, link)) -> `Jump (tgt, Reg.to_int link)
                | Some (Branch.Cbr (c, _, _, tgt))
                  when Cond.equal c Cond.Always ->
                    `Jump (tgt, -1)
                | Some (Branch.Cbr (_, _, _, tgt))
                  when e.Predecode.alu = None && e.Predecode.mem = None
                       && delay = 1 && tgt >= 0 && tgt < limit && tgt > pc
                       && i + 2 < max_trace_words
                       && not t.xcode.(pc).nospec ->
                    (* forward conditional: speculate not-taken and keep
                       scanning the fall-through; backward conditionals
                       (loop edges) stay terminators so the spin-loop
                       specialization applies *)
                    `Guard tgt
                | _ -> `Term
              in
              match decision with
              | `Jump (tgt, link)
                when i + delay < max_trace_words
                     && tgt >= 0 && tgt < limit && tgt <> entry_pc ->
                  (* inline: jump word in sequential context, slots in the
                     taken shadow — [q s k] is chain cell [k] while slot
                     [s] executes (the next [delay - s] sequential pcs,
                     then the target). *)
                  let jw =
                    { sw = e; sw_pc = pc; sw_c1 = pc + 1; sw_c2 = pc + 2;
                      sw_ctl = CJump (tgt, link) }
                  in
                  let q s k =
                    if s + k <= delay then pc + s + k else tgt + (s + k - delay - 1)
                  in
                  let sws =
                    List.mapi
                      (fun idx spc ->
                        let s = idx + 1 in
                        { sw = Predecode.lower imem.(spc);
                          sw_pc = spc; sw_c1 = q s 1; sw_c2 = q s 2;
                          sw_ctl = CNone })
                      sl
                  in
                  go tgt (i + 1 + delay) (List.rev_append (jw :: sws) acc)
              | `Guard tgt ->
                  (* guard word in sequential context; its single delay
                     slot carries the side-exit check and records the
                     not-taken chain (recovery substitutes the taken one
                     from the live [sc_taken]) *)
                  let gw =
                    { sw = e; sw_pc = pc; sw_c1 = pc + 1; sw_c2 = pc + 2;
                      sw_ctl = CGuard tgt }
                  in
                  let spc = List.hd sl in
                  let slw =
                    { sw = Predecode.lower imem.(spc);
                      sw_pc = spc; sw_c1 = spc + 1; sw_c2 = spc + 2;
                      sw_ctl = CGSlot }
                  in
                  go (pc + 2) (i + 2) (slw :: gw :: acc)
              | _ ->
                  let term_slots =
                    List.map (fun spc -> Predecode.lower imem.(spc)) sl
                  in
                  (List.rev acc, Some (e, term_slots), pc))
        end
      else if plain_ok e then
        go (pc + 1) (i + 1)
          ({ sw = e; sw_pc = pc; sw_c1 = pc + 1; sw_c2 = pc + 2; sw_ctl = CNone }
          :: acc)
      else (List.rev acc, None, pc)
  in
  go entry_pc 0 []

(* ------------------------------------------------------------------ *)
(* Compute closures.

   A trace's value closures are the fast engine's: ALU pieces come from
   [Cpu.compile_alu] and branch pieces from [Cpu.compile_branch], each one
   flat closure over direct register-file reads, so the fragment
   generators below run exactly the piece semantics [Cpu.step_fast] runs.
   Two shapes stay local, because inside a trace the machine state is
   pinned (kernel mode, mapping off) and prototypes that dropped them were
   slower on the guest_jit benchmark (2-vCPU host):

   - [flat_addr]/[flat_mx], the pinned-state address: translation is the
     identity, so the machine's resolve rule is a shift and one or two
     comparisons.  Routing trace loads and stores through
     [Cpu.compile_resolve]'s closures instead made the p50 latency
     118.5 -> 131.9 ms (medians of 4 rotations, slower in 4 of 4).
   - The one-closure direct fragments [flat_alu_frag], [flat_load_frag]
     and [flat_store_frag], which fold compute, fault bookkeeping and
     commit into a single call.  Building the load and store fragments
     from the address closures (two calls per word) read 110.2 -> 122.7 ms
     over 6 rotations; dropping every direct fragment read 110.2 ->
     121.0 ms.

   The purity bit marks ALU computes that cannot raise under the pinned
   state; a word whose every piece is pure skips the [jit_k]
   recovery-bookkeeping store. *)

(* Wrapping arithmetic can only trap through the overflow enable; division
   traps on a zero divisor regardless.  Everything else is total. *)
let binop_pure = function
  | Alu.Add | Alu.Sub | Alu.Rsub | Alu.Mul | Alu.Div | Alu.Rem -> false
  | Alu.And | Alu.Or | Alu.Xor | Alu.Sll | Alu.Srl | Alu.Sra -> true

(* the word's ALU piece and its purity bit; [Rd_special] reads live machine
   state, and [Wr_special]/[Rfe] never reach a trace ([pieces_ok]) *)
let flat_ax e =
  match e.Predecode.alu with
  | None -> (AXnone, true)
  | Some a ->
      ( compile_alu a,
        match a with
        | Alu.Binop (op, _, _, _) -> binop_pure op
        | Alu.Mov _ | Alu.Movi8 _ | Alu.Setc _ | Alu.Xbyte _ | Alu.Ibyte _ -> true
        | Alu.Rd_special _ | Alu.Wr_special _ | Alu.Rfe -> false )

(* The machine's one resolve rule ([Cpu.rule_word], [Cpu.rule_place])
   under the pinned state, where translation is the identity, so the
   faults are the reference engine's, in its order.  The result is in
   range by construction, which is what lets the fragment generators use
   unsafe data-memory accesses. *)
let[@inline] resolve rule ~dmem_words a =
  rule_place rule ~dmem_words a (rule_word rule a)

(* A resolved byte reference's lane, read and written in place. *)
let[@inline] read_lane t a =
  Word32.get_byte (Array.unsafe_get t.dmem (a lsr 2)) (a land 3)

let[@inline] write_lane t a v =
  let p = a lsr 2 in
  Array.unsafe_set t.dmem p
    (Word32.set_byte (Array.unsafe_get t.dmem p) (a land 3) v)

(* flat resolved address for the pinned state, one closure per mode *)
let flat_addr ~rule ~dmem_words a =
  let[@inline] r a = resolve rule ~dmem_words a in
  match a with
  | Mem.Abs c -> fun _ -> r c
  | Mem.Disp (b, d) ->
      let b = Reg.to_int b in
      fun t -> r (Word32.add (Array.unsafe_get t.regs b) d)
  | Mem.Idx (b, i) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      fun t ->
        r (Word32.add (Array.unsafe_get t.regs b) (Array.unsafe_get t.regs i))
  | Mem.Shifted (b, i, n) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      fun t ->
        r
          (Word32.add (Array.unsafe_get t.regs b)
             (Word32.shift_right_logical (Array.unsafe_get t.regs i) n))
  | Mem.Scaled (b, i, n) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      fun t ->
        r
          (Word32.add (Array.unsafe_get t.regs b)
             (Word32.shift_left (Array.unsafe_get t.regs i) n))

(* Whole-word direct fragments.  When a word has no incoming latch to
   commit ([PNone]) and a single piece, the compute, the fault
   bookkeeping and the commit collapse into ONE closure — no inner
   operand calls, no latch stub.  [DDrop] marks words with no runtime
   work at all (nops, bare inlined jumps): they are simply not emitted,
   their statistics living purely in the trace's run count. *)
type dfrag = DFrag of (Cpu.t -> unit) | DDrop | DNo

let flat_alu_frag ~k a =
  match a with
  | Alu.Binop (op, x, y, d) ->
      let d = Reg.to_int d in
      let xk, xv = op_rd x and yk, yv = op_rd y in
      let[@inline] rda t = if xk then Array.unsafe_get t.regs xv else xv in
      let[@inline] rdb t = if yk then Array.unsafe_get t.regs yv else yv in
      DFrag
        (match op with
        | Alu.Add ->
            fun t ->
              t.jit_k <- k;
              let a = rda t and b = rdb t in
              if Word32.add_overflows a b then overflow_trap t;
              Array.unsafe_set t.regs d (Word32.add a b)
        | Alu.Sub ->
            fun t ->
              t.jit_k <- k;
              let a = rda t and b = rdb t in
              if Word32.sub_overflows a b then overflow_trap t;
              Array.unsafe_set t.regs d (Word32.sub a b)
        | Alu.Rsub ->
            fun t ->
              t.jit_k <- k;
              let a = rda t and b = rdb t in
              if Word32.sub_overflows b a then overflow_trap t;
              Array.unsafe_set t.regs d (Word32.sub b a)
        | Alu.And ->
            fun t -> Array.unsafe_set t.regs d (Word32.logand (rda t) (rdb t))
        | Alu.Or ->
            fun t -> Array.unsafe_set t.regs d (Word32.logor (rda t) (rdb t))
        | Alu.Xor ->
            fun t -> Array.unsafe_set t.regs d (Word32.logxor (rda t) (rdb t))
        | Alu.Sll ->
            fun t ->
              Array.unsafe_set t.regs d (Word32.shift_left (rda t) (rdb t))
        | Alu.Srl ->
            fun t ->
              Array.unsafe_set t.regs d
                (Word32.shift_right_logical (rda t) (rdb t))
        | Alu.Sra ->
            fun t ->
              Array.unsafe_set t.regs d
                (Word32.shift_right_arith (rda t) (rdb t))
        | Alu.Mul ->
            fun t ->
              t.jit_k <- k;
              let a = rda t and b = rdb t in
              if Word32.mul_overflows a b then overflow_trap t;
              Array.unsafe_set t.regs d (Word32.mul a b)
        | Alu.Div ->
            fun t ->
              t.jit_k <- k;
              let a = rda t and b = rdb t in
              if b = 0 then raise (Fault (Cause.Overflow, 1))
              else Array.unsafe_set t.regs d (Word32.sdiv a b)
        | Alu.Rem ->
            fun t ->
              t.jit_k <- k;
              let a = rda t and b = rdb t in
              if b = 0 then raise (Fault (Cause.Overflow, 1))
              else Array.unsafe_set t.regs d (Word32.srem a b))
  | Alu.Setc (c, x, y, d) ->
      let d = Reg.to_int d in
      let xk, xv = op_rd x and yk, yv = op_rd y in
      DFrag
        (fun t ->
          let a = if xk then Array.unsafe_get t.regs xv else xv
          and b = if yk then Array.unsafe_get t.regs yv else yv in
          Array.unsafe_set t.regs d (if Cond.eval c a b then 1 else 0))
  | Alu.Mov (Operand.R x, d) ->
      let x = Reg.to_int x and d = Reg.to_int d in
      DFrag (fun t -> Array.unsafe_set t.regs d (Array.unsafe_get t.regs x))
  | Alu.Mov (Operand.I4 n, d) ->
      let d = Reg.to_int d in
      DFrag (fun t -> Array.unsafe_set t.regs d n)
  | Alu.Movi8 (c, d) ->
      let d = Reg.to_int d in
      DFrag (fun t -> Array.unsafe_set t.regs d c)
  | Alu.Xbyte (p, w, d) ->
      let d = Reg.to_int d in
      let pk, pv = op_rd p and wk, wv = op_rd w in
      DFrag
        (fun t ->
          let p = if pk then Array.unsafe_get t.regs pv else pv
          and w = if wk then Array.unsafe_get t.regs wv else wv in
          Array.unsafe_set t.regs d (Word32.get_byte w (p land 3)))
  | Alu.Ibyte (s, d) ->
      let sk, sv = op_rd s and d = Reg.to_int d in
      DFrag
        (fun t ->
          let s = if sk then Array.unsafe_get t.regs sv else sv in
          Array.unsafe_set t.regs d
            (Word32.set_byte (Array.unsafe_get t.regs d) (t.byte_select land 3) s))
  | Alu.Rd_special _ | Alu.Wr_special _ | Alu.Rfe -> DNo

let flat_load_frag ~k ~rule ~dmem_words addr =
  let[@inline] ld t a =
    let p = resolve rule ~dmem_words a in
    t.jit_pv <-
      (match rule with
      | Lane -> read_lane t p
      | Whole | Aligned | No_lane -> Array.unsafe_get t.dmem p)
  in
  match addr with
  | Mem.Abs c ->
      DFrag
        (fun t ->
          t.jit_k <- k;
          ld t c)
  | Mem.Disp (b, d) ->
      let b = Reg.to_int b in
      DFrag
        (fun t ->
          t.jit_k <- k;
          ld t (Word32.add (Array.unsafe_get t.regs b) d))
  | Mem.Idx (b, i) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      DFrag
        (fun t ->
          t.jit_k <- k;
          ld t
            (Word32.add (Array.unsafe_get t.regs b) (Array.unsafe_get t.regs i)))
  | Mem.Shifted (b, i, n) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      DFrag
        (fun t ->
          t.jit_k <- k;
          ld t
            (Word32.add (Array.unsafe_get t.regs b)
               (Word32.shift_right_logical (Array.unsafe_get t.regs i) n)))
  | Mem.Scaled (b, i, n) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      DFrag
        (fun t ->
          t.jit_k <- k;
          ld t
            (Word32.add (Array.unsafe_get t.regs b)
               (Word32.shift_left (Array.unsafe_get t.regs i) n)))

let flat_store_frag ~k ~rule ~dmem_words src addr =
  let s = Reg.to_int src in
  let[@inline] st t a =
    let p = resolve rule ~dmem_words a in
    let v = Array.unsafe_get t.regs s in
    match rule with
    | Lane -> write_lane t p v
    | Whole | Aligned | No_lane -> Array.unsafe_set t.dmem p v
  in
  match addr with
  | Mem.Abs c ->
      DFrag
        (fun t ->
          t.jit_k <- k;
          st t c)
  | Mem.Disp (b, d) ->
      let b = Reg.to_int b in
      DFrag
        (fun t ->
          t.jit_k <- k;
          st t (Word32.add (Array.unsafe_get t.regs b) d))
  | Mem.Idx (b, i) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      DFrag
        (fun t ->
          t.jit_k <- k;
          st t
            (Word32.add (Array.unsafe_get t.regs b) (Array.unsafe_get t.regs i)))
  | Mem.Shifted (b, i, n) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      DFrag
        (fun t ->
          t.jit_k <- k;
          st t
            (Word32.add (Array.unsafe_get t.regs b)
               (Word32.shift_right_logical (Array.unsafe_get t.regs i) n)))
  | Mem.Scaled (b, i, n) ->
      let b = Reg.to_int b and i = Reg.to_int i in
      DFrag
        (fun t ->
          t.jit_k <- k;
          st t
            (Word32.add (Array.unsafe_get t.regs b)
               (Word32.shift_left (Array.unsafe_get t.regs i) n)))

(* the word's memory piece, its address resolved by the pinned rule; a
   byte reference on the byte machine is the one [_b] shape *)
let flat_mx (cfg : Cpu.config) e =
  let dmem_words = cfg.dmem_words in
  match e.Predecode.mem with
  | None -> MXnone
  | Some (Mem.Limm (c, d)) -> MXlimm (Reg.to_int d, c)
  | Some (Mem.Load (w, a, d)) ->
      let rule = rule_of cfg w in
      let fp = flat_addr ~rule ~dmem_words a in
      if rule = Lane then MXload_b (Reg.to_int d, fp)
      else MXload_w (Reg.to_int d, fp)
  | Some (Mem.Store (w, s, a)) ->
      let rule = rule_of cfg w in
      let fp = flat_addr ~rule ~dmem_words a in
      if rule = Lane then MXstore_b (Reg.to_int s, fp)
      else MXstore_w (Reg.to_int s, fp)

(* ------------------------------------------------------------------ *)
(* Compile-time tracking of the delayed-load latch.

   Entering the trace the latch state is unknown ([PDyn]: test pend_r at
   run time).  After the first word it is statically known: [PNone], or
   [PKnown d] with the in-flight value parked in the scalar [jit_pv] —
   no option cell, no per-word test, and the commit into [regs.(d)]
   disappears entirely when the very same word overwrites [d] anyway. *)

type pend = PDyn | PNone | PKnown of int

let pend_code = function PDyn -> -2 | PNone -> -1 | PKnown d -> d

(* the latch a word leaves: its own load's destination, or none *)
let pend_after = function
  | MXload_w (d, _) | MXload_b (d, _) -> PKnown d
  | MXnone | MXlimm _ | MXstore_w _ | MXstore_b _ -> PNone

let ignore_t (_ : Cpu.t) = ()

(* The fragment committing the incoming latch at this word's commit point.
   [mx]/[ax] are the word's own pieces, used for the dead-write elision:
   a pending commit into a register this word's ALU or load-immediate
   overwrites later in the same commit phase is unobservable. *)
let pend_frag pend_in mx ax =
  match pend_in with
  | PNone -> ignore_t
  | PDyn ->
      fun t ->
        let pr = t.pend_r in
        if pr >= 0 then begin
          t.regs.(pr) <- t.pend_v;
          t.pend_r <- -1
        end
  | PKnown d ->
      let dead =
        (match ax with AXreg (da, _) -> da = d | _ -> false)
        || (match mx with MXlimm (dm, _) -> dm = d | _ -> false)
      in
      if dead then ignore_t else fun t -> t.regs.(d) <- t.jit_pv

(* ------------------------------------------------------------------ *)
(* Fragment generation.  Each fragment replays one word's quiet-path
   effects minus everything hoisted to the block level: no statistics, no
   PC update, no fetch.  The order within a fragment mirrors the reference
   step exactly — compute (mem address, store value, ALU, branch decision,
   all reading pre-commit state; faults raise here), then commit (store,
   pending latch, ALU result, load capture, branch link).  [t.jit_k <- k]
   first, so the recovery path knows how far the body got. *)

let gen_plain ~k ~pend_in ~pure mx ax =
  let pf = pend_frag pend_in mx ax in
  let pend_out = pend_after mx in
  let frag =
    match (mx, ax) with
    | MXnone, AXnone -> pf (* a nop's only work is the incoming latch *)
    | MXnone, AXreg (d, f) when pure ->
        fun t ->
          let v = f t in
          pf t;
          Array.unsafe_set t.regs d v
    | MXnone, AXreg (d, f) ->
        fun t ->
          t.jit_k <- k;
          let v = f t in
          pf t;
          Array.unsafe_set t.regs d v
    | MXlimm (dm, c), AXnone ->
        fun t ->
          pf t;
          Array.unsafe_set t.regs dm c
    | MXlimm (dm, c), AXreg (da, f) when pure ->
        fun t ->
          let v = f t in
          pf t;
          Array.unsafe_set t.regs da v;
          Array.unsafe_set t.regs dm c
    | MXlimm (dm, c), AXreg (da, f) ->
        fun t ->
          t.jit_k <- k;
          let v = f t in
          pf t;
          Array.unsafe_set t.regs da v;
          Array.unsafe_set t.regs dm c
    | MXload_w (_, fp), AXnone ->
        fun t ->
          t.jit_k <- k;
          let a = fp t in
          pf t;
          t.jit_pv <- Array.unsafe_get t.dmem a
    | MXload_w (_, fp), AXreg (da, f) ->
        fun t ->
          t.jit_k <- k;
          let a = fp t in
          let v = f t in
          pf t;
          Array.unsafe_set t.regs da v;
          t.jit_pv <- Array.unsafe_get t.dmem a
    | MXstore_w (src, fp), AXnone ->
        fun t ->
          t.jit_k <- k;
          let a = fp t in
          let sv = Array.unsafe_get t.regs src in
          Array.unsafe_set t.dmem a sv;
          pf t
    | MXstore_w (src, fp), AXreg (da, f) ->
        fun t ->
          t.jit_k <- k;
          let a = fp t in
          let sv = Array.unsafe_get t.regs src in
          let v = f t in
          Array.unsafe_set t.dmem a sv;
          pf t;
          Array.unsafe_set t.regs da v
    | MXload_b (_, fp), AXnone ->
        fun t ->
          t.jit_k <- k;
          let a = fp t in
          pf t;
          t.jit_pv <- read_lane t a
    | MXload_b (_, fp), AXreg (da, f) ->
        fun t ->
          t.jit_k <- k;
          let a = fp t in
          let v = f t in
          pf t;
          Array.unsafe_set t.regs da v;
          t.jit_pv <- read_lane t a
    | MXstore_b (src, fp), AXnone ->
        fun t ->
          t.jit_k <- k;
          let a = fp t in
          write_lane t a (Array.unsafe_get t.regs src);
          pf t
    | MXstore_b (src, fp), AXreg (da, f) ->
        fun t ->
          t.jit_k <- k;
          let a = fp t in
          let sv = Array.unsafe_get t.regs src in
          let v = f t in
          write_lane t a sv;
          pf t;
          Array.unsafe_set t.regs da v
    | _ -> assert false (* special shapes excluded by [pieces_ok] *)
  in
  (frag, pend_out)

(* Terminator fragment: the branch word.  It does not redirect the chain —
   the decision and target are parked in [sc_taken]/[sc_target] for the
   exit code (and the fault-recovery path of the delay slots).  Link
   registers are written with their static values: at the branch word the
   chain is sequential from the entry, so [p2 = pc + 2]. *)
let gen_term ~pc ~k ~pend_in mx ax bx =
  let pf = pend_frag pend_in mx ax in
  match (mx, ax, bx) with
  | MXnone, AXnone, BXcbr (f, tgt) ->
      ( (fun t ->
          let tk = f t in
          pf t;
          t.sc_taken <- tk;
          t.sc_target <- tgt),
        PNone )
  | MXnone, AXreg (d, fa), BXcbr (fb, tgt) ->
      ( (fun t ->
          t.jit_k <- k;
          let v = fa t in
          let tk = fb t in
          pf t;
          t.regs.(d) <- v;
          t.sc_taken <- tk;
          t.sc_target <- tgt),
        PNone )
  | MXnone, AXnone, BXjump tgt ->
      ( (fun t ->
          pf t;
          t.sc_taken <- true;
          t.sc_target <- tgt),
        PNone )
  | _ ->
      ( (fun t ->
          t.jit_k <- k;
          (match mx with
          | MXnone | MXlimm _ -> ()
          | MXload_w (_, fp) | MXload_b (_, fp) -> t.sc_a <- fp t
          | MXstore_w (s, fp) | MXstore_b (s, fp) ->
              t.sc_a <- fp t;
              t.sc_b <- t.regs.(s));
          (match ax with
          | AXnone -> ()
          | AXreg (_, f) -> t.sc_v <- f t
          | AXspecial _ | AXrfe -> assert false);
          (match bx with
          | BXcbr (f, tgt) ->
              t.sc_taken <- f t;
              t.sc_target <- tgt
          | BXjump tgt | BXjal (tgt, _) ->
              t.sc_taken <- true;
              t.sc_target <- tgt
          | BXjind r | BXjalind (r, _) ->
              t.sc_taken <- true;
              t.sc_target <- t.regs.(r)
          | BXnone | BXtrap _ -> assert false);
          (match mx with
          | MXstore_w _ -> t.dmem.(t.sc_a) <- t.sc_b
          | MXstore_b _ -> write_lane t t.sc_a t.sc_b
          | _ -> ());
          pf t;
          (match ax with AXreg (d, _) -> t.regs.(d) <- t.sc_v | _ -> ());
          (match mx with
          | MXlimm (d, c) -> t.regs.(d) <- c
          | MXload_w (_, _) -> t.jit_pv <- t.dmem.(t.sc_a)
          | MXload_b (_, _) -> t.jit_pv <- read_lane t t.sc_a
          | _ -> ());
          (match bx with
          | BXjal (_, link) -> t.regs.(link) <- pc + 2
          | BXjalind (_, link) -> t.regs.(link) <- pc + 3
          | _ -> ())),
        pend_after mx )

(* ------------------------------------------------------------------ *)
(* Macro-op fusion peepholes.  Both fold two adjacent words into a single
   fragment, eliminating one dispatch and the register round-trip between
   producer and consumer.  The architecturally visible writes still happen
   (a fused Setc still lands its boolean), only the re-read is gone. *)

(* cmp+branch: a Setc-only word whose result the immediately following
   conditional branch tests against an immediate. *)
let cbr_test_of d (e : Predecode.entry) =
  match e.Predecode.branch with
  | Some (Branch.Cbr (c, Operand.R r, Operand.I4 imm, tgt))
    when Reg.to_int r = d ->
      Some ((fun v -> Cond.eval c v imm), tgt)
  | Some (Branch.Cbr (c, Operand.I4 imm, Operand.R r, tgt))
    when Reg.to_int r = d ->
      Some ((fun v -> Cond.eval c imm v), tgt)
  | _ -> None

let gen_cmp_branch ~pend_in d f test tgt mx ax =
  let pf = pend_frag pend_in mx ax in
  fun t ->
    let v = f t in
    pf t;
    t.regs.(d) <- v;
    t.sc_taken <- test v;
    t.sc_target <- tgt

(* load+use: a load-only word followed by an ALU-only word.  The loaded
   value flows through an OCaml local into the consumer's commit point;
   [jit_pv] is still written for the recovery path, and the consumer's
   operands are read before the commit so it still sees the architecturally
   stale register, exactly as the delayed-load machine specifies. *)
let gen_load_use ~k ~pend_in ~byte d fp da f mx ax =
  let pf = pend_frag pend_in mx ax in
  let dead = da = d in
  fun t ->
    t.jit_k <- k;
    let a = fp t in
    pf t;
    let v = if byte then read_lane t a else t.dmem.(a) in
    t.jit_pv <- v;
    t.jit_k <- k + 1;
    let v2 = f t in
    if not dead then t.regs.(d) <- v;
    t.regs.(da) <- v2

(* ------------------------------------------------------------------ *)
(* Trace compilation *)

let compile t entry_pc =
  let body, term, cont = scan t entry_pc in
  let swords = Array.of_list body in
  let nb = Array.length swords in
  let term_words =
    match term with None -> [] | Some (tw, slots) -> tw :: slots
  in
  let words = Array.of_list (List.map (fun s -> s.sw) body @ term_words) in
  let len = Array.length words in
  if len < min_trace_words then false
  else begin
    let n = match term with None -> -1 | Some _ -> nb in
    let delay =
      match term with
      | None -> 0
      | Some (tw, _) -> (
          match Predecode.branch_delay tw with Some d -> d | None -> 0)
    in
    let p_term = cont in
    (* Per-word recovery tables: the guest pc of body word [j], the chain
       cells live while it executes, and the inlined jumps completed
       before it.  Indices past [n] (the terminator's delay slots) recover
       through the [sc_taken] path instead; their entries are sequential
       placeholders. *)
    let wp = Array.make len 0
    and wc1 = Array.make len 0
    and wc2 = Array.make len 0 in
    let tb = Array.make (len + 1) 0 in
    for j = 0 to len - 1 do
      if j < nb then begin
        let s = swords.(j) in
        wp.(j) <- s.sw_pc;
        wc1.(j) <- s.sw_c1;
        wc2.(j) <- s.sw_c2;
        tb.(j + 1) <- tb.(j) + (match s.sw_ctl with CJump _ -> 1 | _ -> 0)
      end
      else begin
        let p = p_term + (j - nb) in
        wp.(j) <- p;
        wc1.(j) <- p + 1;
        wc2.(j) <- p + 2;
        tb.(j + 1) <- tb.(j)
      end
    done;
    (* The byte machine's weighted cycles ([Cpu.weight]) are added per
       word, in execution order, since their float sum depends on the
       order.  A trace adds the weights of the words it completed as it
       leaves — every whole run, then the completed prefix of a run cut by
       a fault or a side exit — in body order.  Nothing reads or writes
       the cell while a trace runs, so the sum is bit for bit the per-step
       one. *)
    let weigh = t.cfg.byte_addressed in
    let wts =
      Array.map
        (fun p -> Cpu.weight t.cfg ~busy:(Word.references_memory t.imem.(p)))
        wp
    in
    let add_weights t runs k =
      let cell = t.stats.Stats.weighted in
      let acc = ref (Array.unsafe_get cell 0) in
      for _ = 1 to runs do
        for j = 0 to len - 1 do
          acc := !acc +. Array.unsafe_get wts j
        done
      done;
      for j = 0 to k - 1 do
        acc := !acc +. Array.unsafe_get wts j
      done;
      Array.unsafe_set cell 0 !acc
    in
    (* where a completed trace resumes when it does not take the
       terminator: past the delay slots, or at the scan stop point *)
    let exit_seq =
      match term with Some _ -> p_term + 1 + delay | None -> cont
    in
    (* build fragments, threading the latch state and fusing pairs *)
    let pend_at = Array.make (len + 1) (-1) in
    let frag_list = ref [] in
    let pend = ref PDyn in
    let guard_of = Array.make len (-1) in
    let guards = ref [] in
    let gcount = ref 0 in
    let cur_gtgt = ref 0 in
    let k = ref 0 in
    while !k < len do
      pend_at.(!k) <- pend_code !pend;
      let e = words.(!k) in
      let mx = flat_mx t.cfg e in
      let ax, ax_pure = flat_ax e in
      if !k = n then begin
        let bx = compile_branch e.Predecode.branch in
        let frag, p' = gen_term ~pc:p_term ~k:!k ~pend_in:!pend mx ax bx in
        frag_list := frag :: !frag_list;
        pend := p';
        incr k
      end
      else begin
        let ctl = if !k < nb then swords.(!k).sw_ctl else CNone in
        let next_plain j = j >= nb || swords.(j).sw_ctl = CNone in
        match ctl with
        | CGuard gt ->
            (* speculated conditional: evaluate the condition and park it
               for the slot's check; predicted not-taken, so the in-line
               path does nothing else *)
            (match compile_branch e.Predecode.branch with
            | BXcbr (f, _) ->
                let pf = pend_frag !pend mx ax in
                frag_list :=
                  (fun t ->
                    let tk = f t in
                    pf t;
                    t.sc_taken <- tk)
                  :: !frag_list;
                pend := PNone;
                cur_gtgt := gt;
                incr k
            | _ -> assert false)
        | _ ->
        (* cmp+branch peephole: Setc-only word feeding the terminator *)
        let fused =
          if !k + 1 = n && mx = MXnone && ctl = CNone then
            match (e.Predecode.alu, ax) with
            | Some (Alu.Setc _), AXreg (d, f) -> (
                let te = words.(n) in
                if te.Predecode.mem = None && te.Predecode.alu = None then
                  match cbr_test_of d te with
                  | Some (test, tgt) ->
                      let frag = gen_cmp_branch ~pend_in:!pend d f test tgt mx ax in
                      pend_at.(n) <- pend_code PNone;
                      frag_list := frag :: !frag_list;
                      pend := PNone;
                      k := !k + 2;
                      true
                  | None -> false
                else false)
            | _ -> false
          else false
        in
        (* load+use peephole: load-only word feeding an ALU-only word *)
        let fused =
          fused
          ||
          if !k + 1 < len && !k + 1 <> n && ax = AXnone && ctl = CNone
             && next_plain (!k + 1)
          then
            match mx with
            | MXload_w (d, fp) | MXload_b (d, fp) -> (
                let byte = match mx with MXload_b _ -> true | _ -> false in
                let ne = words.(!k + 1) in
                let nmx = flat_mx t.cfg ne in
                let nax, _ = flat_ax ne in
                match (nmx, nax) with
                | MXnone, AXreg (da, f) ->
                    let frag =
                      gen_load_use ~k:!k ~pend_in:!pend ~byte d fp da f mx ax
                    in
                    pend_at.(!k + 1) <- pend_code (PKnown d);
                    frag_list := frag :: !frag_list;
                    pend := PNone;
                    k := !k + 2;
                    true
                | _ -> false)
            | _ -> false
          else false
        in
        if not fused then begin
          (* With no incoming latch, single-piece words compile to one
             direct closure (or to nothing at all) instead of the generic
             compose-of-pieces shape. *)
          let direct =
            if !pend <> PNone then DNo
            else
              match (mx, e.Predecode.alu) with
              | MXnone, None -> DDrop
              | MXnone, Some a -> flat_alu_frag ~k:!k a
              | MXlimm (dm, c), None ->
                  DFrag (fun t -> Array.unsafe_set t.regs dm c)
              | (MXload_w _ | MXload_b _), None -> (
                  match e.Predecode.mem with
                  | Some (Mem.Load (w, addr, _)) ->
                      flat_load_frag ~k:!k ~rule:(rule_of t.cfg w)
                        ~dmem_words:t.cfg.dmem_words addr
                  | _ -> DNo)
              | (MXstore_w _ | MXstore_b _), None -> (
                  match e.Predecode.mem with
                  | Some (Mem.Store (w, s, addr)) ->
                      flat_store_frag ~k:!k ~rule:(rule_of t.cfg w)
                        ~dmem_words:t.cfg.dmem_words s addr
                  | _ -> DNo)
              | _ -> DNo
          in
          let frag0, p' =
            match direct with
            | DFrag f -> (Some f, pend_after mx)
            | DDrop -> (None, PNone)
            | DNo ->
                let pure =
                  ax_pure
                  && match mx with MXnone | MXlimm _ -> true | _ -> false
                in
                let f, p' = gen_plain ~k:!k ~pend_in:!pend ~pure mx ax in
                (Some f, p')
          in
          (match ctl with
          | CJump (_, link) when link >= 0 ->
              (* inlined Jal: the link is the return address past the
                 delay slot — a static constant, since the jump sits in
                 sequential context (the reference writes [t.p2]).  The
                 link lands last, matching the reference commit order. *)
              let lv = wp.(!k) + 2 in
              let frag =
                match frag0 with
                | Some f ->
                    fun t ->
                      f t;
                      Array.unsafe_set t.regs link lv
                | None -> fun t -> Array.unsafe_set t.regs link lv
              in
              frag_list := frag :: !frag_list
          | CGSlot ->
              (* guard's delay slot: after its own work, divert to the
                 side exit when the guard's branch was taken.  The slot
                 has completed by then, so the exit counts words 0..k,
                 the inlined jumps among them and the taken branch
                 itself. *)
              let gid = !gcount in
              guards :=
                (tb.(!k + 1) + 1, !cur_gtgt, !k + 1, pend_code p',
                 wp.(!k - 1))
                :: !guards;
              guard_of.(!k) <- gid;
              incr gcount;
              let frag =
                match frag0 with
                | Some f ->
                    fun t ->
                      f t;
                      if t.sc_taken then begin
                        t.jit_k <- gid;
                        raise Guard_exit
                      end
                | None ->
                    fun t ->
                      if t.sc_taken then begin
                        t.jit_k <- gid;
                        raise Guard_exit
                      end
              in
              frag_list := frag :: !frag_list
          | _ -> (
              match frag0 with
              | Some f -> frag_list := f :: !frag_list
              | None -> ()));
          pend := p';
          incr k
        end
      end
    done;
    let frags = Array.of_list (List.rev !frag_list) in
    let nf = Array.length frags in
    let tally =
      { tl_entry = entry_pc; tl_pcs = wp; tl_jumps = tb.(len);
        tl_runs = 0; tl_spread = 0; tl_dead = false }
    in
    let count_prefix t k =
      for j = 0 to k - 1 do
        let x = t.xcode.(wp.(j)) in
        x.runs <- x.runs + 1
      done;
      if weigh then add_weights t 0 k
    in
    let final_pend = !pend in
    let mat_pend =
      match final_pend with
      | PKnown d ->
          fun t ->
            t.pend_r <- d;
            t.pend_v <- t.jit_pv
      | PNone | PDyn -> ignore_t
    in
    let garr = Array.of_list (List.rev !guards) in
    let gexits = Array.make (max !gcount 1) 0 in
    let sides = ref 0 in
    (* Side exit: a guard's branch was taken.  Both the guard word and its
       delay slot completed, so the chain is sequential at the target;
       count the prefix (and its taken branches), rematerialize the latch
       as of the slot, and charge the consumed words against the fuel.  A
       guard whose exits dominate this trace's executions was a bad
       prediction: its branch pc is blacklisted and the trace retired, so
       the next hot dispatch recompiles with the branch as a terminator. *)
    let side_exit t fuel =
      let g = t.jit_k in
      let taken, tgt, consumed, pendc, gpc = garr.(g) in
      count_prefix t consumed;
      t.stats.Stats.branches_taken <- t.stats.Stats.branches_taken + taken;
      t.p0 <- tgt;
      t.p1 <- tgt + 1;
      t.p2 <- tgt + 2;
      if pendc >= 0 then begin
        t.pend_r <- pendc;
        t.pend_v <- t.jit_pv
      end;
      incr sides;
      let ex = gexits.(g) + 1 in
      gexits.(g) <- ex;
      if ex >= 16 && ex * 2 >= tally.tl_runs + !sides then begin
        tally.tl_dead <- true;
        t.xcode.(gpc).nospec <- true;
        let x = t.xcode.(entry_pc) in
        x.tcode <- jit_stale;
        x.tlen <- 0;
        x.hot <- hot_threshold - 1
      end;
      fuel - consumed
    in
    (* Fault recovery: [t.jit_k] holds the body index of the faulting word.
       Count the completed prefix, rebuild the chain at the faulting word,
       rematerialize the in-flight load, and leave the total consumed word
       count in [jit_k] for the dispatch loop's fuel accounting. *)
    let recover t ~consumed_before =
      let kf = t.jit_k in
      count_prefix t kf;
      if tb.(kf) > 0 then
        t.stats.Stats.branches_taken <- t.stats.Stats.branches_taken + tb.(kf);
      if n >= 0 && kf > n then begin
        if t.sc_taken then
          t.stats.Stats.branches_taken <- t.stats.Stats.branches_taken + 1;
        let tgt = t.sc_target in
        if delay = 1 then
          if t.sc_taken then begin
            t.p0 <- p_term + 1;
            t.p1 <- tgt;
            t.p2 <- tgt + 1
          end
          else begin
            t.p0 <- p_term + 1;
            t.p1 <- p_term + 2;
            t.p2 <- p_term + 3
          end
        else if kf = n + 1 then begin
          t.p0 <- p_term + 1;
          t.p1 <- p_term + 2;
          t.p2 <- tgt
        end
        else begin
          t.p0 <- p_term + 2;
          t.p1 <- tgt;
          t.p2 <- tgt + 1
        end
      end
      else begin
        let g = guard_of.(kf) in
        if g >= 0 && t.sc_taken then begin
          (* fault in a guard's delay slot with the branch taken: the
             guard word completed so its branch counts, and the slot
             executes in the taken shadow *)
          t.stats.Stats.branches_taken <- t.stats.Stats.branches_taken + 1;
          let _, tgt, _, _, _ = garr.(g) in
          t.p0 <- wp.(kf);
          t.p1 <- tgt;
          t.p2 <- tgt + 1
        end
        else begin
          t.p0 <- wp.(kf);
          t.p1 <- wc1.(kf);
          t.p2 <- wc2.(kf)
        end
      end;
      (let p = pend_at.(kf) in
       if p >= 0 then begin
         t.pend_r <- p;
         t.pend_v <- t.jit_pv
       end);
      t.jit_k <- consumed_before + kf
    in
    (* The body driver: unrolled for short traces so the steady state
       pays only the indirect fragment calls, not the loop bookkeeping. *)
    let run_body =
      match frags with
      | [| f0 |] -> f0
      | [| f0; f1 |] ->
          fun t ->
            f0 t;
            f1 t
      | [| f0; f1; f2 |] ->
          fun t ->
            f0 t;
            f1 t;
            f2 t
      | [| f0; f1; f2; f3 |] ->
          fun t ->
            f0 t;
            f1 t;
            f2 t;
            f3 t
      | [| f0; f1; f2; f3; f4 |] ->
          fun t ->
            f0 t;
            f1 t;
            f2 t;
            f3 t;
            f4 t
      | [| f0; f1; f2; f3; f4; f5 |] ->
          fun t ->
            f0 t;
            f1 t;
            f2 t;
            f3 t;
            f4 t;
            f5 t
      | [| f0; f1; f2; f3; f4; f5; f6 |] ->
          fun t ->
            f0 t;
            f1 t;
            f2 t;
            f3 t;
            f4 t;
            f5 t;
            f6 t
      | [| f0; f1; f2; f3; f4; f5; f6; f7 |] ->
          fun t ->
            f0 t;
            f1 t;
            f2 t;
            f3 t;
            f4 t;
            f5 t;
            f6 t;
            f7 t
      | _ ->
          fun t ->
            for i = 0 to nf - 1 do
              (Array.unsafe_get frags i) t
            done
    in
    let is_loop =
      n >= 0 && delay = 1
      && (match term with
         | Some (tw, _) -> (
             match tw.Predecode.branch with
             | Some (Branch.Cbr (_, _, _, tgt) | Branch.Jump tgt) ->
                 tgt = entry_pc
             | _ -> false)
         | None -> false)
    in
    let code =
      if is_loop then
        (* Loop-back specialization: spin inside the closure while the
           terminator keeps taking back to the entry and fuel allows a
           whole iteration.  The chain is only written on the way out, and
           the completed iterations are counted once at the exit (or
           before fault recovery) — a tight loop pays for its bookkeeping
           once, not per iteration. *)
        let flush t iters taken =
          tally.tl_runs <- tally.tl_runs + iters;
          t.stats.Stats.branches_taken <- t.stats.Stats.branches_taken + taken;
          if weigh then add_weights t iters 0
        in
        let rec spin t fuel iters =
          match run_body t with
          | exception (Fault _ as ex) ->
              flush t iters iters;
              recover t ~consumed_before:(iters * len);
              raise ex
          | exception Guard_exit ->
              flush t iters iters;
              side_exit t fuel
          | () ->
          let fuel = fuel - len in
          let iters = iters + 1 in
          if t.sc_taken then begin
            mat_pend t;
            if fuel >= len then spin t fuel iters
            else begin
              flush t iters iters;
              t.p0 <- entry_pc;
              t.p1 <- entry_pc + 1;
              t.p2 <- entry_pc + 2;
              fuel
            end
          end
          else begin
            flush t iters (iters - 1);
            t.p0 <- exit_seq;
            t.p1 <- exit_seq + 1;
            t.p2 <- exit_seq + 2;
            mat_pend t;
            fuel
          end
        in
        fun t fuel -> spin t fuel 0
      else
        fun t fuel ->
          match run_body t with
          | exception (Fault _ as ex) ->
              recover t ~consumed_before:0;
              raise ex
          | exception Guard_exit -> side_exit t fuel
          | () ->
          tally.tl_runs <- tally.tl_runs + 1;
          if weigh then add_weights t 1 0;
          (if n >= 0 && t.sc_taken then begin
             t.stats.Stats.branches_taken <- t.stats.Stats.branches_taken + 1;
             let tgt = t.sc_target in
             t.p0 <- tgt;
             t.p1 <- tgt + 1;
             t.p2 <- tgt + 2
           end
           else begin
             t.p0 <- exit_seq;
             t.p1 <- exit_seq + 1;
             t.p2 <- exit_seq + 2
           end);
          mat_pend t;
          fuel - len
    in
    let x = Cpu.slot t entry_pc in
    x.tcode <- code;
    x.tlen <- len;
    jit_register t tally;
    true
  end

(* ------------------------------------------------------------------ *)
(* The dispatch loop.  Mirrors [Cpu.run_with]'s fuel semantics exactly:
   each single step costs 1 fuel (including a dispatching one), a trace
   costs its word count, and a trace that faults after [k] completed words
   costs [k] plus 1 for the dispatch.  Written with recursion and scalar
   state only — the steady-state loop allocates nothing. *)

let run ?(fuel = 10_000_000) t handler =
  let eligible = not t.cfg.interlock in
  let rec loop fuel =
    if fuel <= 0 then begin
      t.stats.Stats.fuel_exhausted <- true;
      false
    end
    else if
      eligible
      && quiet t
      && (match (t.sr.Surprise.priv, t.sr.Surprise.map_enable) with
         | Surprise.Kernel, false -> true
         | _ -> false)
      && t.p0 >= 0
      && t.p0 < t.cfg.imem_words
    then begin
      let pc = t.p0 in
      if not (t.p1 = pc + 1 && t.p2 = pc + 2) then
        (* inside a taken branch's delay shadow the chain is not
           sequential: the words after [pc] in imem are not the words
           about to execute, so no straight-line trace applies *)
        step_once fuel
      else
      let x = t.xcode.(pc) in
      if x.tcode != jit_stale then begin
        if fuel >= x.tlen then
          match x.tcode t fuel with
          | fuel' -> chain fuel'
          | exception Fault (cause, detail) ->
              let consumed = t.jit_k in
              (match dispatch t cause detail ~epcs:(t.p0, t.p1, t.p2) with
              | Dispatched c -> dispatched c (fuel - consumed)
              | Stepped -> assert false)
        else step_once fuel
      end
      else begin
        let x = Cpu.slot t pc in
        let c = x.hot + 1 in
        if c < hot_threshold then begin
          x.hot <- c;
          step_once fuel
        end
        else if compile t pc then begin
          (* enter the new trace at once, so the loop's later pcs do not
             reach the threshold in this iteration and get suffix traces *)
          x.hot <- 0;
          loop fuel
        end
        else begin
          x.hot <- min_int (* ineligible: never retry *);
          step_once fuel
        end
      end
    end
    else step_once fuel
  and chain fuel =
    (* Trace-to-trace fast path.  A trace cannot flip the mode flags or
       the privilege/mapping state ([pieces_ok] excludes Wr_special/Rfe,
       and faults leave through the dispatch path), and every trace exit
       writes a sequential chain — so after a successful trace execution
       only the cheap per-dispatch checks remain before entering the next
       compiled trace.  Anything else falls back to the full loop. *)
    if fuel <= 0 then loop fuel
    else begin
      let pc = t.p0 in
      if pc >= 0 && pc < t.cfg.imem_words && t.p1 = pc + 1 && t.p2 = pc + 2
      then begin
        let x = t.xcode.(pc) in
        if x.tcode != jit_stale then begin
          if fuel >= x.tlen then
            match x.tcode t fuel with
            | fuel' -> chain fuel'
            | exception Fault (cause, detail) ->
                let consumed = t.jit_k in
                (match dispatch t cause detail ~epcs:(t.p0, t.p1, t.p2) with
                | Dispatched c -> dispatched c (fuel - consumed)
                | Stepped -> assert false)
          else loop fuel
        end
        else loop fuel
      end
      else loop fuel
    end
  and step_once fuel =
    match Cpu.step_fast t with
    | Stepped -> loop (fuel - 1)
    | Dispatched cause -> dispatched cause fuel
  and dispatched cause fuel =
    match handler t cause with
    | `Halt -> true
    | `Resume ->
        t.sr <- Surprise.pop t.sr;
        t.p0 <- t.epcs.(0);
        t.p1 <- t.epcs.(1);
        t.p2 <- t.epcs.(2);
        loop (fuel - 1)
  in
  loop fuel

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    Cpu.set_jit_runner run
  end
