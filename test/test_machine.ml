(* Tests for the architectural simulator: delayed loads and branches,
   exceptions, paging, interlock mode, and the byte-addressed variant. *)

open Mips_isa
open Mips_machine

open Testutil
let rr i = Operand.reg (Reg.r i)
let i4 = Operand.imm4
let movi8 c d = Word.A (Alu.Movi8 (c, Reg.r d))
let mov src d = Word.A (Alu.Mov (src, Reg.r d))
let add a b d = Word.A (Alu.Binop (Alu.Add, a, b, Reg.r d))
let ld a d = Word.M (Mem.Load (Mem.W32, a, Reg.r d))
let st s a = Word.M (Mem.Store (Mem.W32, Reg.r s, a))
let jmp t = Word.B (Branch.Jump t)
let trap c = Word.B (Branch.Trap c)
let halt = [ movi8 0 10; trap Monitor.exit_ ]

let prog ?data words = Program.make ?data (Array.of_list words)

let fresh ?config ?data words =
  let cpu = Cpu.create ?config () in
  Cpu.load_program cpu (prog ?data words);
  cpu

let run_halt ?config ?data words =
  let cpu = fresh ?config ?data words in
  let res = Hosted.run cpu in
  check "halted cleanly" true (res.Hosted.halted && res.Hosted.fault = None);
  cpu

(* --- basic execution ---------------------------------------------------- *)

let test_alu_basics () =
  let cpu = run_halt ([ movi8 7 1; add (rr 1) (i4 5) 2; mov (rr 2) 3 ] @ halt) in
  check_int "r1" 7 (Cpu.get_reg cpu (Reg.r 1));
  check_int "r2" 12 (Cpu.get_reg cpu (Reg.r 2));
  check_int "r3" 12 (Cpu.get_reg cpu (Reg.r 3))

let test_rsub_negative_constant () =
  (* rsub #1, r1 -> r2 computes r1 - 1: the paper's reverse-operator trick. *)
  let cpu =
    run_halt ([ movi8 10 1; Word.A (Alu.Binop (Alu.Rsub, i4 1, rr 1, Reg.r 2)) ] @ halt)
  in
  check_int "r2 = r1 - 1" 9 (Cpu.get_reg cpu (Reg.r 2))

let test_setc () =
  let cpu =
    run_halt
      ([ movi8 5 1;
         Word.A (Alu.Setc (Cond.Eq, rr 1, i4 5, Reg.r 2));
         Word.A (Alu.Setc (Cond.Lt, rr 1, i4 3, Reg.r 3)) ]
      @ halt)
  in
  check_int "eq true" 1 (Cpu.get_reg cpu (Reg.r 2));
  check_int "lt false" 0 (Cpu.get_reg cpu (Reg.r 3))

let test_limm_immediate_commit () =
  (* A long immediate is not a memory load: no load delay. *)
  let cpu =
    run_halt ([ Word.M (Mem.Limm (123456, Reg.r 1)); mov (rr 1) 2 ] @ halt)
  in
  check_int "limm visible immediately" 123456 (Cpu.get_reg cpu (Reg.r 2))

(* --- load delay --------------------------------------------------------- *)

let load_delay_words =
  [ ld (Mem.Abs 5) 1;  (* r1 <- mem[5] = 42 *)
    mov (rr 1) 2;  (* delay slot: reads the STALE r1 (0) *)
    mov (rr 1) 3 ]  (* reads 42 *)
  @ halt

let test_load_delay_stale () =
  let cpu = run_halt ~data:[ (5, 42) ] load_delay_words in
  check_int "delay slot saw stale value" 0 (Cpu.get_reg cpu (Reg.r 2));
  check_int "next word saw loaded value" 42 (Cpu.get_reg cpu (Reg.r 3))

let test_load_delay_interlocked () =
  let cpu =
    run_halt ~config:Cpu.interlocked_config ~data:[ (5, 42) ] load_delay_words
  in
  check_int "interlock hides the delay" 42 (Cpu.get_reg cpu (Reg.r 2));
  check "stall charged" true ((Cpu.stats cpu).Stats.stall_cycles >= 1)

let test_back_to_back_loads_same_reg () =
  let cpu =
    run_halt
      ~data:[ (5, 11); (6, 22) ]
      ([ ld (Mem.Abs 5) 1; ld (Mem.Abs 6) 1; mov (rr 1) 2; mov (rr 1) 3 ] @ halt)
  in
  check_int "first load visible after one slot" 11 (Cpu.get_reg cpu (Reg.r 2));
  check_int "second load visible after" 22 (Cpu.get_reg cpu (Reg.r 3))

(* --- branch delay ------------------------------------------------------- *)

let test_branch_delay_slot_executes () =
  let cpu =
    run_halt
      [ movi8 1 1;
        jmp 4;  (* to the halt sequence *)
        movi8 2 2;  (* delay slot: executes *)
        movi8 3 3;  (* skipped *)
        movi8 0 10;
        trap Monitor.exit_ ]
  in
  check_int "delay slot ran" 2 (Cpu.get_reg cpu (Reg.r 2));
  check_int "post-slot word skipped" 0 (Cpu.get_reg cpu (Reg.r 3))

let test_branch_delay_interlocked () =
  let cpu =
    let words =
      [ movi8 1 1; jmp 4; movi8 2 2; movi8 3 3; movi8 0 10; trap Monitor.exit_ ]
    in
    run_halt ~config:Cpu.interlocked_config words
  in
  check_int "delay slot squashed" 0 (Cpu.get_reg cpu (Reg.r 2));
  check_int "one stall" 1 (Cpu.stats cpu).Stats.stall_cycles

let test_indirect_jump_two_slots () =
  let cpu =
    run_halt
      [ movi8 6 1;
        Word.B (Branch.Jind (Reg.r 1));
        movi8 2 2;  (* slot 1: executes *)
        movi8 3 3;  (* slot 2: executes *)
        movi8 4 4;  (* skipped *)
        movi8 5 5;  (* skipped *)
        movi8 0 10;
        trap Monitor.exit_ ]
  in
  check_int "slot1" 2 (Cpu.get_reg cpu (Reg.r 2));
  check_int "slot2" 3 (Cpu.get_reg cpu (Reg.r 3));
  check_int "skipped a" 0 (Cpu.get_reg cpu (Reg.r 4));
  check_int "skipped b" 0 (Cpu.get_reg cpu (Reg.r 5))

let test_cbr_taken_and_not () =
  let cpu =
    run_halt
      [ movi8 5 1;
        Word.B (Branch.Cbr (Cond.Eq, rr 1, i4 5, 4));  (* taken *)
        movi8 1 2;  (* delay slot *)
        movi8 9 3;  (* skipped *)
        Word.B (Branch.Cbr (Cond.Lt, rr 1, i4 2, 0));  (* not taken *)
        movi8 7 4;  (* delay slot (executes either way) *)
        movi8 0 10;
        trap Monitor.exit_ ]
  in
  check_int "taken delay slot" 1 (Cpu.get_reg cpu (Reg.r 2));
  check_int "skipped" 0 (Cpu.get_reg cpu (Reg.r 3));
  check_int "fallthrough" 7 (Cpu.get_reg cpu (Reg.r 4))

let test_jal_link_value () =
  let cpu =
    run_halt
      [ Word.B (Branch.Jal (3, Reg.link));  (* at 0: link = 2 *)
        Word.Nop;  (* delay slot at 1 *)
        jmp 5;  (* return lands at 2 *)
        mov (Operand.reg Reg.link) 1;  (* callee at 3: r1 <- 2 *)
        Word.B (Branch.Jind Reg.link);
        Word.Nop;
        Word.Nop;
        movi8 0 10;
        trap Monitor.exit_ ]
  in
  check_int "link register" 2 (Cpu.get_reg cpu (Reg.r 1))

(* Return via jind lr: two slots execute after the jind, then control is at
   the link address.  The jmp at 2 (with its own delay slot) reaches halt. *)

(* --- packed-word semantics ---------------------------------------------- *)

let test_packed_parallel_read () =
  (* AM word: the ALU piece uses r1's OLD value while the load replaces it. *)
  let w = Word.AM (Alu.Binop (Alu.Add, rr 1, i4 1, Reg.r 2), Mem.Load (Mem.W32, Mem.Disp (Reg.r 3, 5), Reg.r 1)) in
  let cpu = run_halt ~data:[ (5, 99) ] ([ movi8 10 1; w; Word.Nop; mov (rr 1) 4 ] @ halt) in
  check_int "alu saw old r1" 11 (Cpu.get_reg cpu (Reg.r 2));
  check_int "load landed" 99 (Cpu.get_reg cpu (Reg.r 4))

let test_packed_ab_branch_compares_old () =
  (* AB word: the compare reads r1's pre-word value even though the ALU piece
     overwrites it. *)
  let w =
    Word.AB
      ( Alu.Movi8 (0, Reg.r 1),
        Branch.Cbr (Cond.Eq, rr 1, i4 5, 4) )
  in
  let cpu =
    run_halt
      [ movi8 5 1; w; Word.Nop; movi8 9 3; movi8 0 10; trap Monitor.exit_ ]
  in
  check_int "branch taken on old value; r3 skipped" 0 (Cpu.get_reg cpu (Reg.r 3));
  check_int "alu write committed" 0 (Cpu.get_reg cpu (Reg.r 1))

(* --- byte support ------------------------------------------------------- *)

let test_xbyte_ibyte () =
  let cpu =
    run_halt
      ~data:[ (8, 0x44332211) ]
      ([ ld (Mem.Abs 8) 1;
         Word.Nop;
         mov (i4 2) 2;  (* byte pointer: lane 2 *)
         Word.A (Alu.Xbyte (rr 2, rr 1, Reg.r 3));  (* r3 <- 0x33 *)
         Word.A (Alu.Wr_special (Alu.Byte_select, i4 1));
         movi8 0xAB 4;
         Word.A (Alu.Ibyte (rr 4, Reg.r 1));  (* lane 1 of r1 <- 0xAB *)
         st 1 (Mem.Abs 9) ]
      @ halt)
  in
  check_int "extracted byte" 0x33 (Cpu.get_reg cpu (Reg.r 3));
  check_int "inserted byte" 0x4433AB11 (Cpu.read_data cpu 9)

let test_w8_illegal_on_word_machine () =
  let cpu = fresh [ Word.M (Mem.Load (Mem.W8, Mem.Abs 0, Reg.r 1)) ] in
  let res = Hosted.run cpu in
  check "aborted" true (res.Hosted.fault <> None);
  (match res.Hosted.fault with
  | Some (Cause.Illegal, _) -> ()
  | _ -> Alcotest.fail "expected Illegal");
  check_int "counted" 1 (Stats.exception_count (Cpu.stats cpu) Cause.Illegal)

let test_byte_machine_native_bytes () =
  (* On the byte-addressed machine, addresses are byte addresses. *)
  let cpu =
    run_halt ~config:Cpu.byte_addressed_config
      ~data:[ (2, 0x00C0FFEE) ]  (* word index 2 = byte address 8 *)
      ([ Word.M (Mem.Load (Mem.W8, Mem.Abs 9, Reg.r 1));  (* byte 1: 0xFF *)
         Word.Nop;
         movi8 0x5A 2;
         Word.M (Mem.Store (Mem.W8, Reg.r 2, Mem.Abs 10));
         Word.M (Mem.Load (Mem.W32, Mem.Abs 8, Reg.r 3));
         Word.Nop;
         mov (rr 3) 4 ]
      @ halt)
  in
  check_int "byte load" 0xFF (Cpu.get_reg cpu (Reg.r 1));
  check_int "byte store merged" 0x005AFFEE (Cpu.get_reg cpu (Reg.r 4))

let test_byte_machine_weighted_cycles () =
  let cpu =
    run_halt ~config:Cpu.byte_addressed_config
      ([ Word.M (Mem.Load (Mem.W32, Mem.Abs 0, Reg.r 1)); Word.Nop ] @ halt)
  in
  let s = Cpu.stats cpu in
  check "weighted > cycles" true (Stats.weighted_cycles s > float_of_int s.Stats.cycles -. 0.001 +. 0.1)

let test_misaligned_word_on_byte_machine () =
  let cpu =
    fresh ~config:Cpu.byte_addressed_config
      [ Word.M (Mem.Load (Mem.W32, Mem.Abs 2, Reg.r 1)) ]
  in
  let res = Hosted.run cpu in
  match res.Hosted.fault with
  | Some (Cause.Illegal, _) -> ()
  | _ -> Alcotest.fail "expected alignment fault"

(* --- exceptions --------------------------------------------------------- *)

let test_trap_resumes_after () =
  let cpu =
    run_halt
      [ movi8 65 10;  (* 'A' *)
        trap Monitor.putchar;
        movi8 1 1;  (* must execute after resume *)
        movi8 0 10;
        trap Monitor.exit_ ]
  in
  check_int "resumed after trap" 1 (Cpu.get_reg cpu (Reg.r 1))

let test_hosted_output () =
  let words =
    [ movi8 72 10; trap Monitor.putchar;  (* H *)
      movi8 105 10; trap Monitor.putchar;  (* i *)
      movi8 33 10; trap Monitor.putint;  (* 33 *)
      movi8 7 10; trap Monitor.exit_ ]
  in
  let res = Hosted.run_program (prog words) in
  Alcotest.(check string) "output" "Hi33" res.Hosted.output;
  Alcotest.(check (option int)) "status" (Some 7) res.Hosted.exit_status

let test_getchar () =
  let words =
    [ trap Monitor.getchar;
      mov (Operand.reg Reg.result) 10;
      trap Monitor.putchar;
      trap Monitor.getchar;
      mov (Operand.reg Reg.result) 1;  (* EOF -> 255 *)
      movi8 0 10;
      trap Monitor.exit_ ]
  in
  let res = Hosted.run_program ~input:"x" (prog words) in
  Alcotest.(check string) "echo" "x" res.Hosted.output

let test_putstr_out_of_range_faults () =
  (* a putstr whose words lie outside data memory faults like an
     out-of-range data reference; nothing of that call is written *)
  let words =
    [ movi8 72 10; trap Monitor.putchar;
      Word.M (Mem.Limm (0x7FFFFF, Reg.scratch0)); movi8 4 11;
      trap Monitor.putstr; movi8 0 10; trap Monitor.exit_ ]
  in
  let res = Hosted.run_program (prog words) in
  Alcotest.(check string) "output before the fault only" "H" res.Hosted.output;
  check "faults Illegal 1" true (res.Hosted.fault = Some (Cause.Illegal, 1));
  Alcotest.(check (option int)) "no exit" None res.Hosted.exit_status

let test_overflow_trap_enabled () =
  let cpu = Cpu.create () in
  Cpu.load_program cpu
    (prog
       [ Word.M (Mem.Limm (0x7FFFFFFF, Reg.r 1));
         add (rr 1) (i4 1) 2;
         movi8 0 10;
         trap Monitor.exit_ ]);
  Cpu.set_surprise cpu { (Cpu.surprise cpu) with Surprise.ovf_enable = true };
  let res = Hosted.run cpu in
  (match res.Hosted.fault with
  | Some (Cause.Overflow, _) -> ()
  | _ -> Alcotest.fail "expected overflow abort");
  check_int "r2 write inhibited" 0 (Cpu.get_reg cpu (Reg.r 2))

let test_overflow_silent_when_disabled () =
  let cpu =
    run_halt
      [ Word.M (Mem.Limm (0x7FFFFFFF, Reg.r 1));
        add (rr 1) (i4 1) 2;
        movi8 0 10;
        trap Monitor.exit_ ]
  in
  check_int "wrapped" (-0x80000000) (Cpu.get_reg cpu (Reg.r 2))

let test_privilege_fault () =
  let cpu = Cpu.create () in
  Cpu.load_program cpu
    (prog [ Word.A (Alu.Wr_special (Alu.Surprise, i4 0)); Word.Nop ]);
  (* drop to user mode, keep mapping off: memory refs fault too, but the
     first fault must be the privileged instruction *)
  Cpu.set_surprise cpu Surprise.user_initial;
  (match Cpu.step cpu with
  | Cpu.Dispatched Cause.Privilege -> ()
  | _ -> Alcotest.fail "expected privilege dispatch");
  check "back in kernel" true
    (Surprise.equal_privilege (Cpu.surprise cpu).Surprise.priv Surprise.Kernel)

let test_dispatch_saves_epcs_and_cause () =
  let cpu = Cpu.create () in
  Cpu.load_program cpu (prog [ Word.Nop; Word.Nop; trap 99; Word.Nop; Word.Nop ]);
  ignore (Cpu.step cpu);
  ignore (Cpu.step cpu);
  (match Cpu.step cpu with
  | Cpu.Dispatched Cause.Trap -> ()
  | _ -> Alcotest.fail "expected trap dispatch");
  check_int "cause detail" 99 (Cpu.surprise cpu).Surprise.cause_detail;
  check_int "epc0 resumes after trap" 3 (Cpu.epc cpu 0);
  check_int "pc is 0" 0 (Cpu.pc cpu);
  check "kernel mode" true
    (Surprise.equal_privilege (Cpu.surprise cpu).Surprise.priv Surprise.Kernel);
  check "interrupts masked" true (not (Cpu.surprise cpu).Surprise.int_enable)

let test_interrupt_line () =
  let cpu = Cpu.create () in
  Cpu.load_program cpu (prog ([ movi8 1 1; movi8 2 2 ] @ halt));
  Cpu.set_surprise cpu { (Cpu.surprise cpu) with Surprise.int_enable = true };
  ignore (Cpu.step cpu);
  Cpu.set_interrupt cpu true;
  (match Cpu.step cpu with
  | Cpu.Dispatched Cause.Interrupt -> ()
  | _ -> Alcotest.fail "expected interrupt dispatch");
  check_int "epc0 = interrupted pc" 1 (Cpu.epc cpu 0);
  (* the interrupted instruction did not execute *)
  check_int "r2 untouched" 0 (Cpu.get_reg cpu (Reg.r 2));
  (* return from exception and finish *)
  Cpu.set_interrupt cpu false;
  Cpu.set_surprise cpu (Surprise.pop (Cpu.surprise cpu));
  Cpu.set_pc_chain cpu (Cpu.epc cpu 0) (Cpu.epc cpu 1) (Cpu.epc cpu 2);
  let res = Hosted.run cpu in
  check "finished" true res.Hosted.halted;
  check_int "r2 executed on resume" 2 (Cpu.get_reg cpu (Reg.r 2))

let test_fault_in_delay_slot_restarts () =
  (* a fault in a branch's delay slot: the three-deep chain must capture
     (slot, target, target+1) so the branch decision survives the exception *)
  let cpu = Cpu.create () in
  Cpu.load_program cpu
    (prog
       ([ Word.M (Mem.Limm (0x7FFFFFFF, Reg.r 1));
          jmp 4;
          add (rr 1) (i4 1) 2;  (* delay slot: overflows *)
          movi8 9 9 ]           (* fall-through word the branch skips *)
        @ halt));
  Cpu.set_surprise cpu { (Cpu.surprise cpu) with Surprise.ovf_enable = true };
  ignore (Cpu.step cpu);
  ignore (Cpu.step cpu);
  (match Cpu.step cpu with
  | Cpu.Dispatched Cause.Overflow -> ()
  | _ -> Alcotest.fail "expected an overflow in the delay slot");
  check_int "epc0 = delay slot" 2 (Cpu.epc cpu 0);
  check_int "epc1 = branch target" 4 (Cpu.epc cpu 1);
  check_int "epc2 = target + 1" 5 (Cpu.epc cpu 2);
  check_int "dispatch through physical 0" 0 (Cpu.pc cpu);
  check "write inhibited" true (Cpu.get_reg cpu (Reg.r 2) = 0);
  (* handler: repair the operand and return through the saved chain *)
  Cpu.set_reg cpu (Reg.r 1) 5;
  Cpu.set_surprise cpu (Surprise.pop (Cpu.surprise cpu));
  Cpu.set_pc_chain cpu (Cpu.epc cpu 0) (Cpu.epc cpu 1) (Cpu.epc cpu 2);
  let res = Hosted.run cpu in
  check "finished" true (res.Hosted.halted && res.Hosted.fault = None);
  check_int "slot re-executed exactly once" 6 (Cpu.get_reg cpu (Reg.r 2));
  check_int "skipped word stays skipped" 0 (Cpu.get_reg cpu (Reg.r 9))

let test_double_fault_overwrites_chain () =
  (* a second fault during handler entry reuses the EPC chain and the
     surprise register — the first exception's state survives only if the
     kernel saved it, and restoring that saved state round-trips exactly *)
  let cpu = Cpu.create () in
  Cpu.load_program cpu
    (prog
       ([ Word.A (Alu.Binop (Alu.Div, rr 1, rr 0, Reg.r 3));
          (* handler entry: r0 = 0, so this faults unconditionally *)
          Word.Nop;
          Word.Nop;
          trap 42 ]
        @ halt));
  Cpu.set_pc cpu 3;
  (match Cpu.step cpu with
  | Cpu.Dispatched Cause.Trap -> ()
  | _ -> Alcotest.fail "expected trap dispatch");
  let sr1 = Cpu.surprise cpu in
  let saved_sr = Surprise.to_word sr1 in
  let saved_epcs = (Cpu.epc cpu 0, Cpu.epc cpu 1, Cpu.epc cpu 2) in
  check_int "epc0 past the trap" 4 (Cpu.epc cpu 0);
  check_int "trap code in cause detail" 42 sr1.Surprise.cause_detail;
  (* the handler's first instruction faults before anything was saved *)
  (match Cpu.step cpu with
  | Cpu.Dispatched Cause.Overflow -> ()
  | _ -> Alcotest.fail "expected the handler-entry fault");
  check_int "epc0 overwritten" 0 (Cpu.epc cpu 0);
  check_int "epc1 overwritten" 1 (Cpu.epc cpu 1);
  check_int "epc2 overwritten" 2 (Cpu.epc cpu 2);
  check_int "dispatched through 0 again" 0 (Cpu.pc cpu);
  let sr2 = Cpu.surprise cpu in
  check "cause is the second fault" true (sr2.Surprise.cause = Cause.Overflow);
  check "pushed from kernel mode" true
    (Surprise.equal_privilege sr2.Surprise.prev_priv Surprise.Kernel);
  (* a kernel that saved the first exception's state can still unwind it *)
  Cpu.set_surprise cpu (Surprise.of_word saved_sr);
  check "surprise word round-trips exactly" true
    (Surprise.equal (Cpu.surprise cpu) sr1);
  (let e0, e1, e2 = saved_epcs in
   Cpu.set_pc_chain cpu e0 e1 e2);
  let res = Hosted.run cpu in
  check "resumed past the first trap" true
    (res.Hosted.halted && res.Hosted.fault = None);
  check "clean exit" true (res.Hosted.exit_status = Some 0)

(* --- paging ------------------------------------------------------------- *)

let map_identity cpu ~pages =
  for vp = 0 to pages - 1 do
    Pagemap.map (Cpu.pagemap cpu) Pagemap.Ispace ~vpage:vp ~frame:vp ~writable:false;
    Pagemap.map (Cpu.pagemap cpu) Pagemap.Dspace ~vpage:vp ~frame:vp ~writable:true
  done

let test_page_fault_and_restart () =
  let target = Pagemap.page_words + 7 in
  let cpu = Cpu.create () in
  Cpu.load_program cpu
    (prog
       ([ Word.M (Mem.Limm (target, Reg.r 1));
          Word.AM
            ( Alu.Binop (Alu.Add, i4 1, i4 2, Reg.r 4),
              Mem.Load (Mem.W32, Mem.Disp (Reg.r 1, 0), Reg.r 2) );
          Word.Nop;
          mov (rr 2) 3 ]
       @ halt));
  Cpu.write_data cpu target 77;
  (* user-style setup: mapping on, but data page 1 missing *)
  map_identity cpu ~pages:1;
  Cpu.set_surprise cpu { Surprise.user_initial with Surprise.map_enable = true };
  let faults = ref 0 in
  let handler c cause =
    match cause with
    | Cause.Trap -> `Halt
    | Cause.Page_fault ->
        incr faults;
        (* the faulting word's ALU piece must not have committed *)
        check_int "alu write inhibited" 0 (Cpu.get_reg c (Reg.r 4));
        (match Cpu.faulted_addr c with
        | Some (Pagemap.Dspace, ga) ->
            Pagemap.map (Cpu.pagemap c) Pagemap.Dspace
              ~vpage:(ga / Pagemap.page_words)
              ~frame:(ga / Pagemap.page_words)
              ~writable:true
        | _ -> Alcotest.fail "expected a data-space fault address");
        `Resume
    | _ -> Alcotest.fail "unexpected cause"
  in
  check "ran to halt" true (Cpu.run_engine ~engine:Cpu.Ref cpu handler > 0);
  check_int "one fault" 1 !faults;
  check_int "loaded after restart" 77 (Cpu.get_reg cpu (Reg.r 3));
  check_int "alu committed on restart" 3 (Cpu.get_reg cpu (Reg.r 4))

let test_ispace_page_fault () =
  let cpu = Cpu.create () in
  Cpu.load_program cpu (prog (halt @ halt));
  map_identity cpu ~pages:0;
  Cpu.set_surprise cpu { Surprise.user_initial with Surprise.map_enable = true };
  (match Cpu.step cpu with
  | Cpu.Dispatched Cause.Page_fault -> ()
  | _ -> Alcotest.fail "expected ifetch fault");
  match Cpu.faulted_addr cpu with
  | Some (Pagemap.Ispace, 0) -> ()
  | _ -> Alcotest.fail "expected ispace address 0"

(* --- segmentation ------------------------------------------------------- *)

let test_segmap_two_halves () =
  let seg = Segmap.make ~pid:3 ~mask_bits:8 in
  let size = Segmap.segment_words seg in
  check_int "segment words" (1 lsl 16) size;
  check_int "low half maps to pid base" (3 * size) (Segmap.translate seg 0);
  check_int "top of low half" ((3 * size) + (size / 2) - 1)
    (Segmap.translate seg ((size / 2) - 1));
  let top = (1 lsl 24) - 1 in
  check_int "top half maps to segment end" ((3 * size) + size - 1)
    (Segmap.translate seg top);
  check "middle invalid" true (not (Segmap.valid seg (size / 2)));
  check "just below top valid" true (Segmap.valid seg (top - (size / 2) + 1))

let prop_segmap_disjoint_pids =
  QCheck2.Test.make ~name:"segmap: distinct pids get disjoint global ranges"
    ~count:500
    QCheck2.Gen.(triple (int_range 0 255) (int_range 0 255) (int_range 0 ((1 lsl 16) - 1)))
    (fun (pid1, pid2, addr) ->
      let seg1 = Segmap.make ~pid:pid1 ~mask_bits:8 in
      let seg2 = Segmap.make ~pid:pid2 ~mask_bits:8 in
      let a = addr mod (Segmap.segment_words seg1 / 2) in
      pid1 = pid2 || Segmap.translate seg1 a <> Segmap.translate seg2 a)

let prop_surprise_roundtrip =
  let open QCheck2.Gen in
  let sr_gen =
    let priv = map (fun b -> if b then Surprise.Kernel else Surprise.User) bool in
    let cause = oneofl Cause.[ Reset; Interrupt; Overflow; Page_fault; Privilege; Trap; Illegal ] in
    map
      (fun ((p, pp', i, pi), (o, m, pm, c, d)) ->
        {
          Surprise.priv = p;
          prev_priv = pp';
          int_enable = i;
          prev_int_enable = pi;
          ovf_enable = o;
          map_enable = m;
          prev_map_enable = pm;
          cause = c;
          cause_detail = d;
        })
      (pair (quad priv priv bool bool) (tup5 bool bool bool cause (int_range 0 4095)))
  in
  QCheck2.Test.make ~name:"surprise: word roundtrip" ~count:500 sr_gen (fun sr ->
      Surprise.equal sr (Surprise.of_word (Surprise.to_word sr)))

(* The page map against the hash-table map it replaced ([Pagemap_oracle]):
   random sequences of maps, unmaps, lookups, translations (misses, writes
   to read-only pages and negative addresses included), clean-page drops,
   clears (a fresh oracle) and enumerations give the same answers,
   referenced and dirty bits and entry order included.  Pages cluster in
   a small range so operations meet; a few lie at the top of the global
   space, and a few beyond it, which [map] refuses. *)
type pm_op =
  | Pm_map of Pagemap.space * int * int * bool
  | Pm_unmap of Pagemap.space * int
  | Pm_find of Pagemap.space * int
  | Pm_translate of Pagemap.space * bool * int
  | Pm_drop of int
  | Pm_clear
  | Pm_entries

let show_pm_op = function
  | Pm_map (sp, v, f, w) ->
      Printf.sprintf "map %s %d %d %b" (Pagemap.show_space sp) v f w
  | Pm_unmap (sp, v) -> Printf.sprintf "unmap %s %d" (Pagemap.show_space sp) v
  | Pm_find (sp, v) -> Printf.sprintf "find %s %d" (Pagemap.show_space sp) v
  | Pm_translate (sp, w, g) ->
      Printf.sprintf "translate %s %b %d" (Pagemap.show_space sp) w g
  | Pm_drop p -> Printf.sprintf "drop_clean %d" p
  | Pm_clear -> "clear"
  | Pm_entries -> "entries"

let pm_op_gen =
  let open QCheck2.Gen in
  let space = oneofl Pagemap.[ Ispace; Dspace ] in
  let top = (1 lsl Segmap.vspace_bits) / Pagemap.page_words in
  let vpage =
    frequency
      [ (12, int_range 0 40);
        (2, int_range (top - 3) (top - 1));
        (1, int_range top (top + 3));
        (1, int_range 0 (top - 1)) ]
  in
  let gaddr =
    frequency
      [ ( 10,
          map2
            (fun v o -> (v * Pagemap.page_words) + o)
            vpage (int_range 0 (Pagemap.page_words - 1)) );
        (1, int_range (-3000) (-1)) ]
  in
  frequency
    [ (6, map4 (fun sp v f w -> Pm_map (sp, v, f, w)) space vpage (int_range 0 63) bool);
      (2, map2 (fun sp v -> Pm_unmap (sp, v)) space vpage);
      (2, map2 (fun sp v -> Pm_find (sp, v)) space vpage);
      (10, map3 (fun sp w g -> Pm_translate (sp, w, g)) space bool gaddr);
      (2, map (fun p -> Pm_drop p) (int_range 0 1000));
      (1, pure Pm_clear);
      (1, pure Pm_entries) ]

let prop_pagemap_matches_oracle =
  let module O = Pagemap_oracle in
  let fields (e : Pagemap.entry) =
    (e.Pagemap.frame, e.writable, e.referenced, e.dirty)
  and ofields (e : O.entry) = (e.O.frame, e.writable, e.referenced, e.dirty) in
  QCheck2.Test.make ~name:"pagemap: equals the hash-table oracle" ~count:400
    ~print:(fun ops -> String.concat "; " (List.map show_pm_op ops))
    QCheck2.Gen.(list_size (int_range 1 120) pm_op_gen)
    (fun ops ->
      let t = Pagemap.create () and o = ref (O.create ()) in
      List.for_all
        (fun op ->
          match op with
          | Pm_map (sp, vpage, frame, writable) -> (
              match Pagemap.map t sp ~vpage ~frame ~writable with
              | () ->
                  O.map !o sp ~vpage ~frame ~writable;
                  true
              | exception Invalid_argument _ ->
                  vpage < 0
                  || vpage >= (1 lsl Segmap.vspace_bits) / Pagemap.page_words)
          | Pm_unmap (sp, vpage) ->
              Pagemap.unmap t sp ~vpage;
              O.unmap !o sp ~vpage;
              true
          | Pm_find (sp, vpage) ->
              Option.map fields (Pagemap.find t sp ~vpage)
              = Option.map ofields (O.find !o sp ~vpage)
          | Pm_translate (sp, write, gaddr) ->
              let got =
                match Pagemap.translate t sp ~write gaddr with
                | p -> Ok p
                | exception Pagemap.Fault (s, g) -> Error (s, g)
              and want =
                match O.translate !o sp ~write gaddr with
                | p -> Ok p
                | exception O.Fault (s, g) -> Error (s, g)
              in
              got = want
          | Pm_drop pick -> Pagemap.drop_clean t ~pick = O.drop_clean !o ~pick
          | Pm_clear ->
              Pagemap.clear t;
              o := O.create ();
              true
          | Pm_entries ->
              List.map (fun (sp, v, e) -> (sp, v, fields e)) (Pagemap.entries t)
              = List.map (fun (sp, v, e) -> (sp, v, ofields e)) (O.entries !o))
        (ops @ [ Pm_entries ]))

(* Data memory against a flat array ([Dmem_oracle]): random sequences of
   direct writes, stores executed by the reference and fast engines (byte
   lanes on the byte machine), reads, [clear_data], [reset] and checkpoint
   round trips leave the same contents, every nonzero word reads as
   written, and a checkpoint is the one a machine given the oracle's words
   one address at a time writes.  Zeros are stored often, addresses
   cluster at page edges, and reads and writes reach past [dmem_words],
   which on two of the configs is not a page multiple. *)
type dm_op =
  | Dm_write of int * int
  | Dm_store of Cpu.engine * Mem.width * int * int
      (** engine, width, native address, value *)
  | Dm_read of int
  | Dm_clear
  | Dm_reset
  | Dm_roundtrip

let show_dm_op = function
  | Dm_write (a, v) -> Printf.sprintf "write %d %d" a v
  | Dm_store (e, w, a, v) ->
      Printf.sprintf "store %s %s %d %d" (Cpu.engine_name e)
        (match w with Mem.W8 -> "byte" | Mem.W32 -> "word")
        a v
  | Dm_read a -> Printf.sprintf "read %d" a
  | Dm_clear -> "clear_data"
  | Dm_reset -> "reset"
  | Dm_roundtrip -> "checkpoint round trip"

let dm_configs =
  let odd = (3 * Pagemap.page_words) + 100 in
  [ { Cpu.default_config with Cpu.dmem_words = odd };
    { Cpu.byte_addressed_config with Cpu.dmem_words = odd };
    { Cpu.default_config with Cpu.dmem_words = 4 * Pagemap.page_words } ]

let dm_op_gen (config : Cpu.config) =
  let open QCheck2.Gen in
  let n = config.Cpu.dmem_words in
  let edge =
    map2
      (fun page off -> min (n - 1) ((page * Pagemap.page_words) + off))
      (int_range 0 ((n - 1) / Pagemap.page_words))
      (oneofl [ 0; 1; Pagemap.page_words - 2; Pagemap.page_words - 1 ])
  in
  let addr = frequency [ (3, edge); (2, int_range 0 (n - 1)) ] in
  let past =
    oneofl [ n; n + 1; (n - 1) lor (Pagemap.page_words - 1); n + Pagemap.page_words;
             -1; -Pagemap.page_words ]
  in
  let value =
    frequency
      [ (3, pure 0); (3, int_range 1 255);
        (2, int_range (-0x8000_0000) 0x7FFF_FFFF); (1, int_range 0 (1 lsl 40)) ]
  in
  let store =
    let engine = oneofl Cpu.[ Ref; Fast ] in
    if config.Cpu.byte_addressed then
      map4
        (fun e byte a (lane, v) ->
          if byte then Dm_store (e, Mem.W8, (4 * a) + lane, v)
          else Dm_store (e, Mem.W32, 4 * a, v))
        engine bool addr (pair (int_range 0 3) value)
    else map3 (fun e a v -> Dm_store (e, Mem.W32, a, v)) engine addr value
  in
  frequency
    [ (6, map2 (fun a v -> Dm_write (a, v)) addr value);
      (6, store);
      (3, map (fun a -> Dm_read a) addr);
      (1, map2 (fun a v -> Dm_write (a, v)) past value);
      (1, map (fun a -> Dm_read a) past);
      (1, pure Dm_clear);
      (1, pure Dm_reset);
      (1, pure Dm_roundtrip) ]

(* One store word at slot 0, run by one step of [engine]. *)
let dm_store cpu engine width addr v =
  Cpu.write_code cpu 0 (Word.M (Mem.Store (width, Reg.r 1, Mem.Disp (Reg.r 2, 0))));
  Cpu.set_reg cpu (Reg.r 1) v;
  Cpu.set_reg cpu (Reg.r 2) addr;
  Cpu.set_pc cpu 0;
  match if engine = Cpu.Ref then Cpu.step cpu else Cpu.step_fast cpu with
  | Cpu.Stepped -> true
  | Cpu.Dispatched _ -> false

(* Every word equal, and every nonzero word in a written page. *)
let dm_agrees cpu (o : Dmem_oracle.t) =
  let ok = ref true in
  Array.iteri
    (fun a v ->
      if Cpu.read_data cpu a <> v || (v <> 0 && not (Cpu.data_written cpu a)) then
        ok := false)
    o;
  !ok

let dm_outcome f = match f () with v -> Ok v | exception e -> Error e

let prop_dmem_matches_oracle =
  let module O = Dmem_oracle in
  let module Snapshot = Mips_resilience.Snapshot in
  let gen =
    QCheck2.Gen.(
      int_range 0 (List.length dm_configs - 1) >>= fun c ->
      let config = List.nth dm_configs c in
      map (fun ops -> (config, ops)) (list_size (int_range 1 80) (dm_op_gen config)))
  in
  QCheck2.Test.make ~name:"data memory: equals the flat-array oracle" ~count:300
    ~print:(fun ((config : Cpu.config), ops) ->
      Printf.sprintf "%s, %d words: %s"
        (if config.Cpu.byte_addressed then "byte" else "word")
        config.Cpu.dmem_words
        (String.concat "; " (List.map show_dm_op ops)))
    gen
    (fun (config, ops) ->
      let n = config.Cpu.dmem_words in
      let cpu = ref (Cpu.create ~config ()) and o = O.create ~words:n in
      List.for_all
        (fun op ->
          match op with
          | Dm_write (a, v) ->
              dm_outcome (fun () -> Cpu.write_data !cpu a v)
              = dm_outcome (fun () -> O.write o a v)
          | Dm_store (engine, width, addr, v) ->
              (match (config.Cpu.byte_addressed, width) with
              | true, Mem.W8 -> O.write_lane o (addr asr 2) (addr land 3) v
              | true, Mem.W32 -> O.write o (addr asr 2) v
              | false, _ -> O.write o addr v);
              dm_store !cpu engine width addr v
          | Dm_read a ->
              dm_outcome (fun () -> Cpu.read_data !cpu a)
              = dm_outcome (fun () -> O.read o a)
          | Dm_clear ->
              Cpu.clear_data !cpu;
              O.clear o;
              true
          | Dm_reset ->
              Cpu.reset !cpu;
              O.clear o;
              true
          | Dm_roundtrip ->
              let s = Snapshot.machine_to_string !cpu in
              (* a machine holding other data, which the restore replaces *)
              let c = Cpu.create ~config () in
              Cpu.write_data c 7 9;
              Cpu.write_data c (n - 1) 5;
              let restored = Snapshot.restore_machine c s = Ok () in
              (* the same state, its memory written at every address *)
              let full = Cpu.create ~config () in
              ignore (Snapshot.restore_machine full s);
              Cpu.clear_data full;
              Array.iteri (fun a v -> Cpu.write_data full a v) o;
              let ok =
                restored
                && Snapshot.machine_to_string c = s
                && Snapshot.machine_to_string full = s
                && dm_agrees !cpu o && dm_agrees c o
              in
              cpu := c;
              ok)
        (ops @ [ Dm_roundtrip ]))

let test_segmap_word_roundtrip () =
  let seg = Segmap.make ~pid:5 ~mask_bits:4 in
  check "roundtrip" true (Segmap.equal seg (Segmap.of_word (Segmap.to_word seg)))

(* --- statistics --------------------------------------------------------- *)

let test_free_cycles () =
  let cpu =
    run_halt ~data:[ (0, 1) ]
      [ ld (Mem.Abs 0) 1; Word.Nop; Word.Nop; Word.Nop; movi8 0 10; trap Monitor.exit_ ]
  in
  let s = Cpu.stats cpu in
  check_int "one busy slot" 1 s.Stats.mem_busy_cycles;
  check "mostly free" true (Stats.free_cycle_fraction s > 0.5)

let test_ref_pattern_counting () =
  let note = Note.make ~char_data:true ~byte_sized:false () in
  let cpu = Cpu.create () in
  let p =
    Program.make
      ~notes:[| note; Note.plain; Note.plain; Note.plain |]
      [| ld (Mem.Abs 0) 1; st 1 (Mem.Abs 1); movi8 0 10; trap Monitor.exit_ |]
  in
  Cpu.load_program cpu p;
  let res = Hosted.run cpu in
  check "ok" true res.Hosted.halted;
  let s = Cpu.stats cpu in
  check_int "char word load" 1 s.Stats.word_char_refs.Stats.loads;
  check_int "plain word store" 1 s.Stats.word_refs.Stats.stores;
  check_int "loads" 1 (Stats.total_loads s);
  check_int "stores" 1 (Stats.total_stores s)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests
let tc n f = Alcotest.test_case n `Quick f

let suite =
  [ ( "machine:exec",
      [ tc "alu basics" test_alu_basics;
        tc "rsub negative constants" test_rsub_negative_constant;
        tc "set conditionally" test_setc;
        tc "limm commits immediately" test_limm_immediate_commit ] );
    ( "machine:load-delay",
      [ tc "stale value in delay slot" test_load_delay_stale;
        tc "interlock mode hides delay" test_load_delay_interlocked;
        tc "back-to-back loads" test_back_to_back_loads_same_reg ] );
    ( "machine:branch-delay",
      [ tc "delay slot executes" test_branch_delay_slot_executes;
        tc "interlock squashes slot" test_branch_delay_interlocked;
        tc "indirect jump: two slots" test_indirect_jump_two_slots;
        tc "cbr taken / not taken" test_cbr_taken_and_not;
        tc "jal link value" test_jal_link_value ] );
    ( "machine:packing",
      [ tc "AM parallel read" test_packed_parallel_read;
        tc "AB compares pre-state" test_packed_ab_branch_compares_old ] );
    ( "machine:bytes",
      [ tc "xbyte/ibyte" test_xbyte_ibyte;
        tc "W8 illegal on word machine" test_w8_illegal_on_word_machine;
        tc "byte machine native bytes" test_byte_machine_native_bytes;
        tc "byte machine overhead" test_byte_machine_weighted_cycles;
        tc "alignment fault" test_misaligned_word_on_byte_machine ] );
    ( "machine:exceptions",
      [ tc "trap resumes after" test_trap_resumes_after;
        tc "hosted output" test_hosted_output;
        tc "getchar" test_getchar;
        tc "putstr out of range faults" test_putstr_out_of_range_faults;
        tc "overflow trap" test_overflow_trap_enabled;
        tc "overflow silent when disabled" test_overflow_silent_when_disabled;
        tc "privilege fault" test_privilege_fault;
        tc "dispatch saves state" test_dispatch_saves_epcs_and_cause;
        tc "interrupt line" test_interrupt_line;
        tc "fault in a delay slot restarts" test_fault_in_delay_slot_restarts;
        tc "double fault overwrites the chain" test_double_fault_overwrites_chain ] );
    ( "machine:paging",
      [ tc "page fault and restart" test_page_fault_and_restart;
        tc "ifetch fault" test_ispace_page_fault ]
      @ qsuite [ prop_pagemap_matches_oracle; prop_dmem_matches_oracle ] );
    ( "machine:segmentation",
      [ tc "two halves" test_segmap_two_halves;
        tc "segmap word roundtrip" test_segmap_word_roundtrip ]
      @ qsuite [ prop_segmap_disjoint_pids; prop_surprise_roundtrip ] );
    ( "machine:stats",
      [ tc "free cycles" test_free_cycles; tc "ref patterns" test_ref_pattern_counting ] ) ]
