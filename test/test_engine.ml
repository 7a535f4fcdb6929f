(* Differential tests for the predecoded fast execution engine.

   The equivalence contract (see Cpu's interface): under any machine
   configuration, any program and any fault plan, the fast engine must
   leave every architecturally visible artifact — registers, data memory,
   the PC chain, EPCs, monitor output, exit status, and the complete
   Stats record including stall-pair attribution and exception tallies —
   bit-identical to the reference interpreter.  Here the seeded soak
   generator is the oracle: every fixed seed is run through both engines,
   raw and reorganized, clean and faulted, and the whole final state is
   diffed. *)

open Mips_machine
open Testutil
module Plan = Mips_fault.Plan
module Progen = Mips_soak.Progen
module Json = Mips_obs.Json

(* Everything one engine run leaves behind, flattened to comparable data.
   Stats goes through its (total) JSON rendering, which includes the
   stall-pair table and the exception tallies. *)
type snapshot = {
  regs : int list;
  dmem_hash : int;
  dmem_head : int list;  (* the generated programs' static data window *)
  pc_chain : int * int * int;
  epcs : int list;
  pending : string;
  output : string;
  exit_status : int option;
  halted : bool;
  fault : string option;
  retries : int;
  stats : string;
}

let hash_dmem cpu words =
  let h = ref 0 in
  for i = 0 to words - 1 do
    h := (!h * 31) + Cpu.read_data cpu i
  done;
  !h land max_int

let snapshot (cpu : Cpu.t) (res : Hosted.result) =
  {
    regs = List.init 16 (fun i -> Cpu.get_reg cpu (Mips_isa.Reg.of_int i));
    dmem_hash = hash_dmem cpu (Cpu.config cpu).Cpu.dmem_words;
    dmem_head = List.init Progen.data_words (Cpu.read_data cpu);
    pc_chain = Cpu.pc_chain cpu;
    epcs = List.init 3 (Cpu.epc cpu);
    pending = "";
    output = res.Hosted.output;
    exit_status = res.Hosted.exit_status;
    halted = res.Hosted.halted;
    fault =
      (match res.Hosted.fault with
      | Some (c, d) -> Some (Printf.sprintf "%s/%d" (Cause.name c) d)
      | None -> None);
    retries = res.Hosted.retries;
    stats = Json.to_string (Stats.to_json (Cpu.stats cpu));
  }

let run_one ~config ~plan ~engine program =
  let cpu = Cpu.create ~config () in
  (match plan with
  | Some cfg -> Cpu.set_fault_plan cpu (Plan.make cfg)
  | None -> ());
  let res = Hosted.run_program_on ~fuel:500_000 ~engine cpu program in
  snapshot cpu res

let explain_diff name seed a b =
  let fail fmt = Alcotest.failf ("seed %d, %s: " ^^ fmt) seed name in
  if a.output <> b.output then fail "output %S vs fast %S" a.output b.output;
  if a.exit_status <> b.exit_status then fail "exit status differs";
  if a.halted <> b.halted then fail "halted %b vs fast %b" a.halted b.halted;
  if a.fault <> b.fault then fail "fault attribution differs";
  if a.retries <> b.retries then fail "retries %d vs fast %d" a.retries b.retries;
  if a.regs <> b.regs then fail "register file differs";
  if a.pc_chain <> b.pc_chain then fail "pc chain differs";
  if a.epcs <> b.epcs then fail "EPCs differ";
  if a.dmem_head <> b.dmem_head then fail "static data window differs";
  if a.dmem_hash <> b.dmem_hash then fail "data memory differs";
  if a.stats <> b.stats then fail "stats differ:\n  ref  %s\n  fast %s" a.stats b.stats

(* 50+ fixed seeds: deterministic, so a failure names its seed *)
let seeds = List.init 56 (fun i -> (i * 37) + 1)

let variants seed =
  let plan_cfg =
    { Plan.quiet with Plan.seed = seed + 0x5011; flaky_rate = 0.01; irq_rate = 0.005 }
  in
  [ ("reorganized", Cpu.default_config, None);
    ("raw-interlocked", Cpu.interlocked_config, None);
    ("reorganized-byte", Cpu.byte_addressed_config, None);
    ("reorganized-faulted", Cpu.default_config, Some plan_cfg) ]

let test_differential () =
  List.iter
    (fun seed ->
      let asm = Progen.generate ~seed () in
      let reorganized = Mips_reorg.Pipeline.compile asm in
      let raw = Mips_reorg.Pipeline.compile_raw asm in
      List.iter
        (fun (vname, config, plan) ->
          let program =
            if config.Cpu.interlock then raw else reorganized
          in
          let r = run_one ~config ~plan ~engine:Cpu.Ref program in
          let f = run_one ~config ~plan ~engine:Cpu.Fast program in
          explain_diff vname seed r f;
          (* the jit engine under the same oracle: compiled traces on
             the word and byte machines, fallback everywhere else
             (interlocked configs, armed fault plans), same bit-exact
             contract *)
          let j = run_one ~config ~plan ~engine:Cpu.Jit program in
          explain_diff (vname ^ "-jit") seed r j)
        (variants seed))
    seeds

(* Engines must also agree when steps interleave arbitrarily: alternate
   step/step_fast within one run and the result must match an all-reference
   run (the fallback conditions make this the kernel's actual regime). *)
let test_interleaved_steps () =
  List.iter
    (fun seed ->
      let program = Mips_reorg.Pipeline.compile (Progen.generate ~seed ()) in
      let exec stepf =
        let cpu = Cpu.create () in
        Cpu.load_program cpu program;
        let exited = ref None in
        let i = ref 0 in
        while !exited = None && !i < 200_000 do
          (match stepf !i cpu with
          | Cpu.Stepped -> ()
          | Cpu.Dispatched Cause.Trap ->
              let code = (Cpu.surprise cpu).Surprise.cause_detail in
              if code = Monitor.exit_ then
                exited := Some (Cpu.get_reg cpu Mips_isa.Reg.scratch0)
              else begin
                (* monitor calls other than exit: skip output, resume *)
                Cpu.set_surprise cpu (Surprise.pop (Cpu.surprise cpu));
                Cpu.set_pc_chain cpu (Cpu.epc cpu 0) (Cpu.epc cpu 1) (Cpu.epc cpu 2)
              end
          | Cpu.Dispatched _ -> Alcotest.failf "seed %d: unexpected fault" seed);
          incr i
        done;
        ( !exited,
          List.init 16 (fun r -> Cpu.get_reg cpu (Mips_isa.Reg.of_int r)),
          Json.to_string (Stats.to_json (Cpu.stats cpu)) )
      in
      let ref_out = exec (fun _ cpu -> Cpu.step cpu) in
      let mixed =
        exec (fun i cpu -> if i land 7 < 3 then Cpu.step cpu else Cpu.step_fast cpu)
      in
      if ref_out <> mixed then
        Alcotest.failf "seed %d: interleaved stepping diverged" seed)
    [ 3; 11; 29 ]

(* Drive every engine through the same run/patch sequence on its own
   machine and compare the statistics after each phase.  A phase runs the
   program and then applies its patch, so the patch lands on execution
   counts not yet folded into [Stats]: reading the statistics afterwards
   shows whether each count was charged to the word it counted. *)
let stats_json cpu = Json.to_string (Stats.to_json (Cpu.stats cpu))

(* The architectural state a phase leaves behind: registers, PC chain,
   EPCs, the surprise register, a hash of data memory and the fault the
   run stopped on. *)
let machine_state cpu (res : Hosted.result) =
  let ints l = String.concat "," (List.map string_of_int l) in
  let p0, p1, p2 = Cpu.pc_chain cpu in
  Printf.sprintf "regs %s; pc %d,%d,%d; epcs %s; sr %d; dmem %d; fault %s"
    (ints (List.init 16 (fun i -> Cpu.get_reg cpu (Mips_isa.Reg.of_int i))))
    p0 p1 p2
    (ints (List.init 3 (Cpu.epc cpu)))
    (Surprise.to_word (Cpu.surprise cpu))
    (hash_dmem cpu (Cpu.config cpu).Cpu.dmem_words)
    (match res.Hosted.fault with
    | Some (c, d) -> Printf.sprintf "%s/%d" (Cause.name c) d
    | None -> "none")

(* The weighted cell's exact bits: on the byte machine its sum depends on
   the order of the per-word adds, and the JSON rendering need not show
   every bit. *)
let weighted_bits cpu = Int64.bits_of_float (Cpu.stats cpu).Stats.weighted.(0)

let phases_agree ?(config = Cpu.default_config) what program phases =
  let drive engine =
    let cpu = Cpu.create ~config () in
    Cpu.load_program cpu program;
    List.map
      (fun (name, patch) ->
        Cpu.set_pc cpu program.Program.entry;
        let res = Hosted.run ~engine cpu in
        if not res.Hosted.halted then
          Alcotest.failf "%s, %s: %s did not halt" what name (Cpu.engine_name engine);
        let state = machine_state cpu res in
        patch cpu;
        ( (name, Cpu.get_reg cpu (Mips_isa.Reg.r 2), state, stats_json cpu),
          weighted_bits cpu ))
      phases
  in
  let reference = drive Cpu.Ref in
  List.iter
    (fun engine ->
      List.iter2
        (fun ((name, racc, rstate, rstats), rbits) ((_, acc, state, stats), bits) ->
          let label = Printf.sprintf "%s, %s, %s" what name (Cpu.engine_name engine) in
          check_int (label ^ ": r2") racc acc;
          check_string (label ^ ": state") rstate state;
          check_string (label ^ ": stats") rstats stats;
          check (label ^ ": weighted bits") true (Int64.equal rbits bits))
        reference (drive engine))
    [ Cpu.Fast; Cpu.Jit ];
  List.map fst reference

(* Self-modifying code: write_code must invalidate the compiled slot, and
   code and note writes must charge the counts already taken to the words
   they replace. *)
let test_write_code_invalidation () =
  let open Mips_isa in
  let cpu = Cpu.create () in
  let movi c d = Word.A (Alu.Movi8 (c, Reg.r d)) in
  Cpu.write_code cpu 0 (movi 1 1);
  Cpu.write_code cpu 1 (movi 2 2);
  Cpu.write_code cpu 2 (movi 3 3);
  Cpu.set_pc cpu 0;
  ignore (Cpu.step_fast cpu);
  ignore (Cpu.step_fast cpu);
  ignore (Cpu.step_fast cpu);
  check_int "r2 first pass" 2 (Cpu.get_reg cpu (Reg.r 2));
  (* patch the already-executed (hence already-compiled) slot 1 *)
  Cpu.write_code cpu 1 (movi 9 2);
  Cpu.set_pc cpu 0;
  ignore (Cpu.step_fast cpu);
  ignore (Cpu.step_fast cpu);
  check_int "r2 after patch" 9 (Cpu.get_reg cpu (Reg.r 2));
  (* a loop hot enough for the jit, 60 iterations per run, whose forward
     branch the jit speculates not taken: it leaves by a side exit while
     i < 40, and then runs words no step of the fast engine has run *)
  let rr i = Operand.reg (Reg.r i) and i4 = Operand.imm4 in
  let add a b d = Word.A (Alu.Binop (Alu.Add, a, b, Reg.r d)) in
  let ld a d = Word.M (Mem.Load (Mem.W32, Mem.Abs a, Reg.r d)) in
  let code =
    [| movi 0 1; (* 0: i := 0 *)
       movi 0 2; (* 1: acc := 0 *)
       movi 60 3; (* 2: bound *)
       add (rr 2) (i4 1) 2; (* 3: acc += 1, patched into a load *)
       ld 0 4; (* 4: a load, re-annotated, then patched to fault *)
       add (rr 1) (i4 1) 1; (* 5: i += 1 *)
       movi 40 5; (* 6 *)
       Word.B (Branch.Cbr (Cond.Lt, rr 1, rr 5, 10)); (* 7: while i < 40 *)
       Word.Nop; (* 8: delay slot *)
       add (rr 2) (i4 2) 2; (* 9: acc += 2 *)
       Word.B (Branch.Cbr (Cond.Lt, rr 1, rr 3, 3)); (* 10 *)
       Word.Nop; (* 11: delay slot *)
       movi 0 10; (* 12: exit status *)
       Word.B (Branch.Trap Monitor.exit_) (* 13 *) |]
  in
  let program = Program.make ~data:[ (0, 5); (1, 7) ] code in
  let note ~char_data ?synthetic () =
    Note.make ?synthetic ~char_data ~byte_sized:false ()
  in
  let reference =
    phases_agree "write_code" program
      [ ("heat", ignore);
        ("steady, then an ALU word becomes a load",
         fun cpu -> Cpu.write_code cpu 3 (ld 1 2));
        ("patched, then the load is character data",
         fun cpu -> Cpu.write_note cpu 4 (note ~char_data:true ()));
        ("char, then the load is synthetic",
         fun cpu -> Cpu.write_note cpu 4 (note ~char_data:false ~synthetic:true ()));
        (* out of range from i = 40, once the loop runs as a trace again *)
        ("synthetic, then a load faults mid-trace",
         fun cpu ->
           let far = (Cpu.config cpu).Cpu.dmem_words - 40 in
           Cpu.write_code cpu 4
             (Word.M (Mem.Load (Mem.W32, Mem.Disp (Reg.r 1, far), Reg.r 4))));
        ("faulted, then the program is loaded again",
         fun cpu -> Cpu.load_program cpu program);
        ("reloaded", ignore) ]
  in
  let accs = List.map (fun (_, acc, _, _) -> acc) reference in
  if accs <> [ 102; 102; 9; 9; 9; 7; 102 ] then
    Alcotest.failf "write_code: unexpected r2 sequence %s"
      (String.concat "," (List.map string_of_int accs))

(* A hot loop that reaches what the generated programs cannot: every ALU
   operation with register and immediate operands (Progen emits no
   division), every word addressing mode on a load and a store (Progen
   emits only absolute and displacement addresses), the compare+branch
   and load+use pairs the jit fuses, a packed ALU+load word, and faults
   raised in the middle of a compiled trace (Progen never overflows).  The
   loop runs [n] times per phase, past the jit's hot threshold, so from
   the second phase on the whole run after the prologue is trace
   execution; the fault phases stop inside it. *)
let test_hot_trace_shapes () =
  let open Mips_isa in
  let rr i = Operand.reg (Reg.r i) and i4 = Operand.imm4 in
  let alu a = Word.A a in
  let binop op x y d = alu (Alu.Binop (op, x, y, Reg.r d)) in
  let fold r = binop Alu.Xor (rr 2) (rr r) 2 in (* acc ^= r *)
  let movi c d = alu (Alu.Movi8 (c, Reg.r d)) in
  let load a d = Mem.Load (Mem.W32, a, Reg.r d) in
  let ld a d = Word.M (load a d) in
  let st s a = Word.M (Mem.Store (Mem.W32, Reg.r s, a)) in
  let ops = Alu.[ Add; Sub; Rsub; And; Or; Xor; Sll; Srl; Sra; Mul; Div; Rem ] in
  let n = 80 and loop = 9 in
  let dmem_words = (Cpu.config (Cpu.create ())).Cpu.dmem_words in
  (* r0 = i - 64 (negative until the last iterations), r1 = i, r2 = acc,
     r3 = n - i, r4 = 64 (read-only array), r5 = the indexed load's base
     (data word 1), r6 = an operation's result, r8 = (i land 15) + 1
     (never zero), r11 = a loaded divisor, r12 = 256 (acc after each
     iteration, so no difference cancels out of the xor folds), r13 =
     1024 (store area), r15 = 0x7fff_fff0 (r15 + i overflows from i = 16);
     the byte insert's lane is 2.  No operation but that one addition
     overflows. *)
  let prologue =
    [ movi 0 1; movi 0 2; movi n 3; movi 64 4;
      ld (Mem.Abs 1) 5;
      Word.M (Mem.Limm (256, Reg.r 12));
      Word.M (Mem.Limm (1024, Reg.r 13));
      Word.M (Mem.Limm (0x7fff_fff0, Reg.r 15));
      alu (Alu.Wr_special (Alu.Byte_select, i4 2)) ]
  in
  let body =
    List.concat
      [ [ binop Alu.And (rr 1) (i4 15) 9; binop Alu.Add (rr 9) (i4 1) 8;
          binop Alu.Sub (rr 1) (rr 4) 0 ];
        List.concat_map (fun op -> [ binop op (rr 0) (rr 8) 6; fold 6 ]) ops;
        (* register-immediate, each behind a load it does not read: the
           load+use pairs *)
        List.concat
          (List.mapi
             (fun j op ->
               [ ld (Mem.Abs (64 + j)) 7; binop op (rr 0) (i4 3) 6; fold 6 ])
             ops);
        List.concat_map
          (fun op -> [ binop op (i4 5) (rr 8) 6; fold 6 ])
          Alu.[ Sub; Rsub; Sll; Div ];
        (* each value below is folded exactly once, a loaded one only
           after the load's delay slot *)
        [ fold 7;
          alu (Alu.Mov (rr 0, Reg.r 6)); alu (Alu.Ibyte (rr 1, Reg.r 6)); fold 6;
          alu (Alu.Setc (Cond.Lt, rr 1, i4 7, Reg.r 6)); fold 6;
          movi 200 6; fold 6;
          (* the same shapes behind a load; the byte insert overwrites the
             load's own destination, so the load's write is dead *)
          ld (Mem.Abs 80) 7; alu (Alu.Mov (i4 9, Reg.r 6)); fold 6;
          ld (Mem.Abs 81) 7; alu (Alu.Xbyte (rr 9, rr 7, Reg.r 6)); fold 6;
          ld (Mem.Abs 82) 7; alu (Alu.Ibyte (rr 0, Reg.r 7)); fold 7;
          (* one load per addressing mode; the indexed one, behind an ALU
             word and before a load, compiles to a single fragment *)
          ld (Mem.Idx (Reg.r 5, Reg.r 1)) 10;
          ld (Mem.Disp (Reg.r 4, 5)) 7;
          ld (Mem.Shifted (Reg.r 4, Reg.r 1, 1)) 11;
          fold 10; fold 7;
          ld (Mem.Scaled (Reg.r 4, Reg.r 9, 2)) 10;
          binop Alu.Div (rr 1) (rr 11) 6; fold 6; fold 10;
          (* one store per addressing mode *)
          st 2 (Mem.Abs 2000);
          st 6 (Mem.Disp (Reg.r 13, 3));
          st 7 (Mem.Shifted (Reg.r 13, Reg.r 1, 2));
          st 10 (Mem.Scaled (Reg.r 13, Reg.r 9, 2));
          Word.AM
            ( Alu.Binop (Alu.Add, rr 1, i4 2, Reg.r 6),
              load (Mem.Disp (Reg.r 4, 9)) 7 );
          fold 6; fold 7;
          binop Alu.Add (rr 15) (rr 1) 10; fold 10;
          st 2 (Mem.Idx (Reg.r 12, Reg.r 1));
          binop Alu.Add (rr 1) (i4 1) 1;
          binop Alu.Sub (rr 3) (i4 1) 3;
          (* r14 = 1 > n - i, feeding the loop branch: the cmp+branch pair *)
          alu (Alu.Setc (Cond.Gt, i4 1, rr 3, Reg.r 14));
          Word.B (Branch.Cbr (Cond.Eq, rr 14, i4 0, loop));
          Word.Nop ] ]
  in
  let code =
    Array.of_list
      (prologue @ body @ [ movi 0 10; Word.B (Branch.Trap Monitor.exit_) ])
  in
  let program =
    Program.make
      ~data:((1, 64) :: List.init 136 (fun k -> (64 + k, (k mod 13) + 1)))
      code
  in
  let reference =
    phases_agree "hot trace shapes" program
      [ ("heat", ignore);
        ("steady, then overflow traps are enabled",
         fun cpu ->
           Cpu.set_surprise cpu
             { (Cpu.surprise cpu) with Surprise.ovf_enable = true });
        ("overflow mid-trace, then a zero divisor at i = 40",
         fun cpu ->
           Cpu.set_surprise cpu Surprise.reset;
           Cpu.write_data cpu (64 + 20) 0);
        ("division by zero mid-trace, then the indexed load runs out of \
          range at i = 30",
         fun cpu ->
           Cpu.write_data cpu (64 + 20) ((20 mod 13) + 1);
           Cpu.write_data cpu 1 (dmem_words - 30));
        ("out-of-range load mid-trace, then restored",
         fun cpu -> Cpu.write_data cpu 1 64);
        ("restored", ignore) ]
  in
  let faults =
    List.map
      (fun (_, _, state, _) ->
        let i = String.rindex state ' ' in
        String.sub state (i + 1) (String.length state - i - 1))
      reference
  in
  check_string "faults"
    "none,none,Overflow/0,Overflow/1,Illegal/1,none"
    (String.concat "," faults);
  match List.map (fun (_, acc, _, _) -> acc) reference with
  | [ a; b; _; _; _; f ] ->
      check_int "acc steady = heat" a b;
      check_int "acc restored = heat" a f
  | _ -> assert false

(* The same for the byte machine, whose addresses are byte addresses and
   whose words referencing memory weigh 1.15 cycles, added per word in
   execution order.  The loop reaches byte loads and stores at every lane
   and addressing mode, word loads and stores at byte addresses, the byte
   extract and insert behind a byte load (the load+use pair), a packed
   ALU+byte-load word, a guard side exit into a trace that is not a loop,
   and a word load whose address turns misaligned
   (Illegal 2), then out of range and misaligned at once (Illegal 1 ranks
   first), at i = 30 of a run that by then executes as a trace. *)
let test_hot_trace_shapes_byte () =
  let open Mips_isa in
  let rr i = Operand.reg (Reg.r i) and i4 = Operand.imm4 in
  let alu a = Word.A a in
  let binop op x y d = alu (Alu.Binop (op, x, y, Reg.r d)) in
  let fold r = binop Alu.Xor (rr 2) (rr r) 2 in (* acc ^= r *)
  let movi c d = alu (Alu.Movi8 (c, Reg.r d)) in
  let limm c d = Word.M (Mem.Limm (c, Reg.r d)) in
  let ld w a d = Word.M (Mem.Load (w, a, Reg.r d)) in
  let st w s a = Word.M (Mem.Store (w, Reg.r s, a)) in
  let ld8 = ld Mem.W8 and ld32 = ld Mem.W32 in
  let st8 = st Mem.W8 and st32 = st Mem.W32 in
  let n = 80 and loop = 8 in
  let dmem_words = Cpu.byte_addressed_config.Cpu.dmem_words in
  (* r1 = i, r2 = acc, r3 = n - i, r4 = 256 (the byte address of the
     read-only array at data word 64), r5 = the offset in data word 1 (a
     word multiple normally), r9 = i land 3 (a lane), r12 = 30, r13 = 4096
     (the store area, data word 1024); the byte insert's lane is 2.  Each
     loaded value is folded after the load's delay slot, and each store is
     read back through its own address, so every phase's accumulator
     depends only on the phase. *)
  let prologue =
    [ movi 0 1; movi 0 2; movi n 3; limm 256 4;
      ld32 (Mem.Abs 4) 5;
      movi 30 12; limm 4096 13;
      alu (Alu.Wr_special (Alu.Byte_select, i4 2)) ]
  in
  let lanes = [ 0; 1; 2; 3 ] in
  let body =
    List.concat
      [ (* a forward branch the jit speculates not taken: one iteration in
           four leaves the loop's trace by a side exit and goes on in a
           trace entered at the branch target, which is not a loop *)
        [ binop Alu.And (rr 1) (i4 3) 9;
          Word.B (Branch.Cbr (Cond.Eq, rr 9, i4 3, loop + 4));
          Word.Nop;
          fold 9 ];
        (* byte loads at every lane, absolute and displaced *)
        List.concat_map
          (fun l ->
            [ ld8 (Mem.Abs (256 + (4 * l) + l)) 7;
              ld8 (Mem.Disp (Reg.r 4, 20 + l)) 10;
              fold 7; fold 10 ])
          lanes;
        (* the other modes, whose lane follows i *)
        [ ld8 (Mem.Idx (Reg.r 4, Reg.r 9)) 7;
          ld8 (Mem.Shifted (Reg.r 4, Reg.r 1, 1)) 10;
          fold 7; fold 10;
          ld8 (Mem.Scaled (Reg.r 4, Reg.r 1, 0)) 7;
          binop Alu.Add (rr 1) (i4 1) 8; fold 7 ];
        (* byte stores at every lane, each read back *)
        List.concat_map
          (fun l ->
            [ st8 2 (Mem.Abs (4096 + l));
              st8 1 (Mem.Disp (Reg.r 13, 8 + l));
              ld8 (Mem.Abs (4096 + l)) 7;
              ld8 (Mem.Disp (Reg.r 13, 8 + l)) 10;
              fold 7; fold 10 ])
          lanes;
        [ st8 8 (Mem.Idx (Reg.r 13, Reg.r 9));
          st8 2 (Mem.Shifted (Reg.r 13, Reg.r 1, 3));
          st8 1 (Mem.Scaled (Reg.r 13, Reg.r 1, 0));
          ld8 (Mem.Idx (Reg.r 13, Reg.r 9)) 7;
          ld8 (Mem.Shifted (Reg.r 13, Reg.r 1, 3)) 10;
          fold 7; fold 10;
          ld8 (Mem.Scaled (Reg.r 13, Reg.r 1, 0)) 7;
          movi 77 6; fold 7;
          (* extract and insert behind a byte load: the insert overwrites
             the load's own destination, so the load's write is dead *)
          ld8 (Mem.Disp (Reg.r 4, 5)) 7;
          alu (Alu.Xbyte (rr 9, rr 7, Reg.r 6)); fold 6; fold 7;
          ld8 (Mem.Disp (Reg.r 4, 6)) 7;
          alu (Alu.Ibyte (rr 1, Reg.r 7)); fold 7;
          Word.AM
            ( Alu.Binop (Alu.Add, rr 1, i4 2, Reg.r 6),
              Mem.Load (Mem.W8, Mem.Disp (Reg.r 4, 7), Reg.r 7) );
          fold 6; fold 7;
          (* word references at byte addresses *)
          ld32 (Mem.Disp (Reg.r 4, 8)) 10;
          ld32 (Mem.Scaled (Reg.r 4, Reg.r 9, 2)) 7;
          fold 10; fold 7;
          st32 2 (Mem.Disp (Reg.r 13, 16));
          st32 1 (Mem.Scaled (Reg.r 13, Reg.r 9, 2));
          ld32 (Mem.Disp (Reg.r 13, 16)) 10;
          ld32 (Mem.Scaled (Reg.r 13, Reg.r 9, 2)) 7;
          fold 10; fold 7;
          (* r0 = the offset from i = 30 on, else 0 *)
          alu (Alu.Setc (Cond.Ge, rr 1, rr 12, Reg.r 0));
          binop Alu.Mul (rr 0) (rr 5) 0;
          ld32 (Mem.Idx (Reg.r 4, Reg.r 0)) 10;
          ld8 (Mem.Idx (Reg.r 4, Reg.r 0)) 7;
          fold 10; fold 7;
          binop Alu.Add (rr 1) (i4 1) 1;
          binop Alu.Sub (rr 3) (i4 1) 3;
          alu (Alu.Setc (Cond.Gt, i4 1, rr 3, Reg.r 14));
          Word.B (Branch.Cbr (Cond.Eq, rr 14, i4 0, loop));
          Word.Nop ] ]
  in
  let code =
    Array.of_list
      (prologue @ body @ [ movi 0 10; Word.B (Branch.Trap Monitor.exit_) ])
  in
  (* distinct bytes in every lane of the read-only array *)
  let byte_word k =
    (0x10 + k) lor ((0x40 + k) lsl 8) lor ((0x70 + k) lsl 16) lor ((0x20 + k) lsl 24)
  in
  let program =
    Program.make ~data:((1, 4) :: List.init 40 (fun k -> (64 + k, byte_word k))) code
  in
  let reference =
    phases_agree ~config:Cpu.byte_addressed_config "byte hot trace shapes" program
      [ ("heat", ignore);
        ("steady, then the offset is misaligned at i = 30",
         fun cpu -> Cpu.write_data cpu 1 2);
        ("misaligned word load mid-trace, then the offset is out of range \
          and misaligned",
         fun cpu -> Cpu.write_data cpu 1 ((4 * dmem_words) + 2));
        ("out-of-range word load mid-trace, then restored",
         fun cpu -> Cpu.write_data cpu 1 4);
        ("restored", ignore) ]
  in
  let faults =
    List.map
      (fun (_, _, state, _) ->
        let i = String.rindex state ' ' in
        String.sub state (i + 1) (String.length state - i - 1))
      reference
  in
  check_string "faults" "none,none,Illegal/2,Illegal/1,none" (String.concat "," faults);
  match List.map (fun (_, acc, _, _) -> acc) reference with
  | [ a; b; _; _; e ] ->
      check_int "acc steady = heat" a b;
      check_int "acc restored = heat" a e
  | _ -> assert false

(* The kernel under the fast engine: quantum interrupts, demand paging and
   monitor traps all force reference-path cycles mid-run; scheduling and
   per-process outcomes must not change. *)
let kernel_report engine seeds =
  let k = Mips_os.Kernel.create ~quantum:300 ~engine () in
  List.iter
    (fun seed ->
      let program = Mips_reorg.Pipeline.compile (Progen.generate ~seed ()) in
      Mips_os.Kernel.spawn k ~name:(Progen.name ~seed) program)
    seeds;
  let r = Mips_os.Kernel.run ~fuel:2_000_000 k in
  ( Json.to_string (Mips_os.Kernel.report_json r),
    Json.to_string (Stats.to_json (Cpu.stats (Mips_os.Kernel.cpu k))) )

let test_kernel_differential () =
  let seeds = [ 5; 17; 23 ] in
  let ref_report, ref_stats = kernel_report Cpu.Ref seeds in
  let fast_report, fast_stats = kernel_report Cpu.Fast seeds in
  check_string "kernel report identical" ref_report fast_report;
  check_string "kernel machine stats identical" ref_stats fast_stats;
  let jit_report, jit_stats = kernel_report Cpu.Jit seeds in
  check_string "kernel report identical (jit)" ref_report jit_report;
  check_string "kernel machine stats identical (jit)" ref_stats jit_stats

(* --- trace-JIT specific tests ---------------------------------------------- *)

(* A hot loop compiled into a trace, then patched — once in the middle of
   the compiled body, once at its entry — and finally loaded again.  The
   write must invalidate the trace ([Cpu.write_code] consults the coverage
   map), so the machine behaves as if the trace never existed.  The oracle
   is a reference machine driven through the identical heat/patch/rerun
   sequence, beside the fast engine; the expected accumulator values are
   also asserted directly. *)
let test_jit_smc_hot_block () =
  let open Mips_isa in
  let movi8 c d = Word.A (Alu.Movi8 (c, Reg.r d)) in
  let rr i = Operand.reg (Reg.r i) in
  let i4 = Operand.imm4 in
  let add a b d = Word.A (Alu.Binop (Alu.Add, a, b, Reg.r d)) in
  let code =
    [| movi8 0 1; (* 0: i := 0 *)
       movi8 0 2; (* 1: acc := 0 *)
       movi8 200 3; (* 2: bound *)
       add (rr 2) (i4 1) 2; (* 3: loop entry: acc += 1 *)
       add (rr 2) (i4 2) 2; (* 4: acc += 2  (mid-trace patch point) *)
       add (rr 1) (i4 1) 1; (* 5: i += 1 *)
       Word.B (Branch.Cbr (Cond.Lt, rr 1, rr 3, 3)); (* 6 *)
       Word.Nop; (* 7: delay slot *)
       movi8 0 10; (* 8: exit status *)
       Word.B (Branch.Trap Monitor.exit_) (* 9 *) |]
  in
  let program = Program.make code in
  let reference =
    phases_agree "smc" program
      [ ("heat", ignore);
        (* patch inside the compiled body, not at its entry *)
        ("steady, then a mid-trace patch",
         fun cpu -> Cpu.write_code cpu 4 (add (rr 2) (i4 5) 2));
        (* patch the trace entry itself *)
        ("mid-trace patched, then an entry patch",
         fun cpu -> Cpu.write_code cpu 3 (movi8 9 2));
        ("entry patched, then the program is loaded again",
         fun cpu -> Cpu.load_program cpu program);
        ("reloaded", ignore) ]
  in
  match List.map (fun (_, acc, _, _) -> acc) reference with
  | [ a; b; c; d; e ] ->
      check_int "acc after heat" 600 a;
      check_int "acc steady-state" 600 b;
      check_int "acc after mid-trace patch" 1200 c;
      check_int "acc after entry patch" 14 d;
      check_int "acc after reload" 600 e
  | _ -> assert false

(* Two hot loops, the first at 0 and the second at 100, each compiled into
   a trace, and then a second image of the second loop loaded over it.
   [load_program] writes each loaded word as [write_code] does: the
   trace over the reloaded words goes, and the first loop's trace, whose
   words were not reloaded, keeps its closure.  Both runs are compared
   with the reference engine driven through the same sequence. *)
let test_reload_keeps_disjoint_traces () =
  let open Mips_isa in
  let movi8 c d = Word.A (Alu.Movi8 (c, Reg.r d)) in
  let rr i = Operand.reg (Reg.r i) and i4 = Operand.imm4 in
  let add a b d = Word.A (Alu.Binop (Alu.Add, a, b, Reg.r d)) in
  (* the second loop as loaded at 100: acc += step, 100 times *)
  let second step =
    [| movi8 0 1; (* 100: i := 0 *)
       movi8 100 3; (* 101: bound *)
       add (rr 2) (i4 step) 2; (* 102: loop entry *)
       add (rr 1) (i4 1) 1; (* 103: i += 1 *)
       Word.B (Branch.Cbr (Cond.Lt, rr 1, rr 3, 102)); (* 104 *)
       Word.Nop; (* 105: delay slot *)
       movi8 0 10; (* 106: exit status *)
       Word.B (Branch.Trap Monitor.exit_) (* 107 *) |]
  in
  let first =
    [| movi8 0 2; (* 0: acc := 0 *)
       movi8 0 1; (* 1: i := 0 *)
       movi8 200 3; (* 2: bound *)
       add (rr 2) (i4 1) 2; (* 3: loop entry: acc += 1 *)
       add (rr 1) (i4 1) 1; (* 4: i += 1 *)
       Word.B (Branch.Cbr (Cond.Lt, rr 1, rr 3, 3)); (* 5 *)
       Word.Nop; (* 6: delay slot *)
       Word.B (Branch.Jump 100); (* 7 *)
       Word.Nop (* 8: delay slot *) |]
  in
  let code = Array.make 108 Word.Nop in
  Array.blit first 0 code 0 (Array.length first);
  Array.blit (second 2) 0 code 100 8;
  let kept = ref 0 and dropped = ref 0 in
  let reload cpu =
    let traced =
      List.filter_map
        (fun p ->
          let f = cpu.Cpu.xcode.(p).Cpu.tcode in
          if f != Cpu.jit_stale then Some (p, f) else None)
        (List.init 108 Fun.id)
    in
    Cpu.load_program ~at:100 cpu (Program.make (second 3));
    List.iter
      (fun (p, f) ->
        let now = cpu.Cpu.xcode.(p).Cpu.tcode in
        if p < 100 then begin
          if now != f then Alcotest.failf "reload: the trace at %d was dropped" p;
          incr kept
        end
        else begin
          if now != Cpu.jit_stale then
            Alcotest.failf "reload: the trace at %d over reloaded words survived" p;
          incr dropped
        end)
      traced
  in
  let reference =
    phases_agree "reload" (Program.make code)
      [ ("heat, then the second loop is reloaded", reload);
        ("reloaded", ignore) ]
  in
  check "the first loop's trace was kept" true (!kept > 0);
  check "the second loop's trace was dropped" true (!dropped > 0);
  match List.map (fun (_, acc, _, _) -> acc) reference with
  | [ a; b ] ->
      check_int "acc before the reload" 400 a;
      check_int "acc after the reload" 500 b
  | _ -> assert false

(* The byte machine is traced, not single-stepped: queens on the jit
   compiles traces, and most of its words are charged through whole trace
   runs.  Counted from the live tallies before the statistics are read (a
   fold drops retired traces' tallies, so this can only undercount). *)
let test_jit_traces_byte_queens () =
  let e = Mips_corpus.Corpus.find "queens" in
  let program =
    Mips_codegen.Compile.compile ~config:Mips_ir.Config.byte_machine
      e.Mips_corpus.Corpus.source
  in
  let cpu = Cpu.create ~config:Cpu.byte_addressed_config () in
  let res =
    Hosted.run_program_on ~input:e.Mips_corpus.Corpus.input ~engine:Cpu.Jit cpu
      program
  in
  check "queens halted" true res.Hosted.halted;
  let tallies = cpu.Cpu.jit_live in
  let traced =
    List.fold_left
      (fun acc tl -> acc + (tl.Cpu.tl_runs * Array.length tl.Cpu.tl_pcs))
      0 tallies
  in
  let words = (Cpu.stats cpu).Stats.words in
  if tallies = [] then Alcotest.fail "no trace was compiled";
  if 2 * traced <= words then
    Alcotest.failf "only %d of %d words ran in whole traces" traced words

(* Checkpoint/resume under the fast and jit engines: slice a run at every
   [every] steps, reading the statistics at each boundary (each read folds
   the pending counts), and the boundary readings and the completed run
   must equal a sliced reference run's and an uninterrupted one's.  Then
   restore the first boundary's snapshot on a fresh machine (empty code
   caches), resume, and the completed run must be bit-identical to the
   uninterrupted reference run.  The programs loop hot enough for the jit
   and run tens of thousands of words, so both slice widths cross many
   boundaries. *)
let test_jit_checkpoint_resume () =
  let module Snapshot = Mips_resilience.Snapshot in
  List.iter
    (fun name ->
      let e = Mips_corpus.Corpus.find name in
      let input = e.Mips_corpus.Corpus.input in
      let program = Mips_codegen.Compile.compile e.Mips_corpus.Corpus.source in
      let uninterrupted =
        let cpu = Cpu.create () in
        let res =
          Hosted.run_program_on ~fuel:200_000 ~input ~engine:Cpu.Ref cpu program
        in
        (snapshot cpu res, Snapshot.machine_to_string cpu)
      in
      let sliced ~every engine =
        let saved = ref None and readings = ref [] in
        let cpu = Cpu.create () in
        Cpu.load_program cpu program;
        let res =
          Hosted.run ~fuel:200_000 ~input ~engine
            ~checkpoint:
              ( every,
                fun h ->
                  readings := stats_json cpu :: !readings;
                  if !saved = None then
                    saved := Some (h, Snapshot.machine_to_string cpu) )
            cpu
        in
        ((snapshot cpu res, Snapshot.machine_to_string cpu), List.rev !readings, !saved)
      in
      List.iter
        (fun every ->
          let _, ref_readings, _ = sliced ~every Cpu.Ref in
          List.iter
            (fun engine ->
              let what =
                Printf.sprintf "%s, %s every %d" name (Cpu.engine_name engine) every
              in
              let final, readings, saved = sliced ~every engine in
              if readings <> ref_readings then
                Alcotest.failf "%s: boundary statistics differ from ref" what;
              if final <> uninterrupted then
                Alcotest.failf "%s: sliced run diverged from reference" what;
              match saved with
              | None -> Alcotest.failf "%s: no boundary crossed" what
              | Some (h, machine) -> (
                  let cpu' = Cpu.create () in
                  Cpu.load_program cpu' program;
                  match Snapshot.restore_machine cpu' machine with
                  | Error e -> Alcotest.fail (Snapshot.error_to_string e)
                  | Ok () ->
                      let res =
                        Hosted.run ~fuel:h.Hosted.h_fuel_left ~input ~resume:h
                          ~engine cpu'
                      in
                      let got = (snapshot cpu' res, Snapshot.machine_to_string cpu') in
                      if got <> uninterrupted then
                        Alcotest.failf "%s: resume diverged from reference" what))
            [ Cpu.Fast; Cpu.Jit ])
        [ 5_000; 97 ])
    [ "sieve"; "strops" ]

(* Steady-state allocation: on a warm machine, one run's minor-heap words
   divided by the instruction words it executed.  The fast engine's
   closures are built and, for the jit, every block past [hot_threshold]
   is compiled, so what is left is the fixed per-run cost of [Hosted.run]
   amortized over the program — far below the bound, which still catches
   a single allocated word per step.  Ref parks its compute phase in the
   machine's latch and is held to the same bound: a minor collection stops
   every Domain, and mipsd runs ref on its worker Domains. *)
let max_minor_words_per_word = 0.05

let test_steady_state_allocation () =
  List.iter
    (fun name ->
      let e = Mips_corpus.Corpus.find name in
      let p = Mips_codegen.Compile.compile e.Mips_corpus.Corpus.source in
      List.iter
        (fun engine ->
          let cpu = Cpu.create () in
          Cpu.load_program cpu p;
          let run () =
            Cpu.set_pc cpu p.Program.entry;
            List.iter (fun (a, v) -> Cpu.write_data cpu a v) p.Program.data;
            let res = Hosted.run ~input:e.Mips_corpus.Corpus.input ~engine cpu in
            if not res.Hosted.halted then Alcotest.failf "%s did not halt" name
          in
          let warm =
            match engine with
            | Cpu.Jit -> Mips_jit.hot_threshold + 2
            | Cpu.Ref | Cpu.Fast -> 2
          in
          for _ = 1 to warm do run () done;
          let w0 = (Cpu.stats cpu).Stats.words in
          let m0 = Gc.minor_words () in
          run ();
          let m1 = Gc.minor_words () in
          let words = (Cpu.stats cpu).Stats.words - w0 in
          let per_word = (m1 -. m0) /. float_of_int words in
          if not (words > 0 && per_word < max_minor_words_per_word) then
            Alcotest.failf "%s on %s: %.4f minor words per simulated word"
              name (Cpu.engine_name engine) per_word)
        [ Cpu.Ref; Cpu.Fast; Cpu.Jit ])
    [ "queens"; "hanoi" ]

(* Every engine stores through [Cpu.store_word], which never writes the
   page every data slot starts as; this case runs after the battery. *)
let test_zero_page_clear () =
  if Array.exists (( <> ) 0) Cpu.zero_page then
    Alcotest.fail "a store wrote the shared zero page"

let suite =
  [ ( "engine:differential",
      [ tc_slow "56 seeds x 4 variants, all engines" test_differential;
        tc "interleaved step/step_fast" test_interleaved_steps;
        tc "write_code invalidates compiled slot" test_write_code_invalidation;
        tc "hot trace: every ALU op, address mode and mid-trace fault"
          test_hot_trace_shapes;
        tc "byte hot trace: every lane, address mode and mid-trace fault"
          test_hot_trace_shapes_byte;
        tc "jit: byte-machine queens runs as traces" test_jit_traces_byte_queens;
        tc "kernel scheduling identical" test_kernel_differential;
        tc "jit: SMC patch of hot compiled block" test_jit_smc_hot_block;
        tc "jit: checkpoint/resume bit-identical" test_jit_checkpoint_resume;
        tc "jit: load_program keeps traces over words it does not reload"
          test_reload_keeps_disjoint_traces;
        tc "ref/fast/jit steady state allocates < 0.05 words/word"
          test_steady_state_allocation;
        tc "the shared zero page reads zeros after the battery"
          test_zero_page_clear ] ) ]
