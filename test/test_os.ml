(* Tests for the OS layer: demand paging, scheduling, context switches,
   protection. *)

open Mips_isa
open Mips_machine
open Mips_os

open Testutil
let check_str = Alcotest.(check string)

(* compile for the OS: the stack lives in the high half of the process
   address space *)
let os_config =
  { Mips_ir.Config.default with Mips_ir.Config.stack_top = Kernel.user_stack_top }

let compile_user src = Mips_codegen.Compile.compile ~config:os_config src

let hosted_output name =
  let e = Mips_corpus.Corpus.find name in
  let res =
    Mips_codegen.Compile.run ~fuel:120_000_000 ~input:e.Mips_corpus.Corpus.input
      e.Mips_corpus.Corpus.source
  in
  res.Hosted.output

let spawn_corpus k name =
  let e = Mips_corpus.Corpus.find name in
  Kernel.spawn k ~input:e.Mips_corpus.Corpus.input ~name
    (compile_user e.Mips_corpus.Corpus.source)

let find_proc (r : Kernel.report) name =
  List.find (fun (p : Kernel.proc_report) -> String.equal p.Kernel.pname name)
    r.Kernel.procs

let test_two_processes () =
  let k = Kernel.create ~quantum:500 () in
  spawn_corpus k "fib";
  spawn_corpus k "sieve";
  let r = Kernel.run k in
  let fib = find_proc r "fib" and sieve = find_proc r "sieve" in
  check_str "fib output" (hosted_output "fib") fib.Kernel.output;
  check_str "sieve output" (hosted_output "sieve") sieve.Kernel.output;
  Alcotest.(check (option int)) "fib exit" (Some 0) fib.Kernel.exit_status;
  check "interleaved" true (r.Kernel.switches > 2);
  check "timer fired" true (r.Kernel.interrupts > 0);
  check "pages faulted in" true (r.Kernel.page_faults > 0);
  check_int "switches never touch the map" 0 r.Kernel.map_changes_during_switches

let test_eviction_pressure () =
  (* sieve's flags array spans multiple pages; starve the data pool *)
  let k = Kernel.create ~data_frames:2 ~code_frames:2 ~quantum:1000 () in
  spawn_corpus k "sieve";
  spawn_corpus k "strops";
  let r = Kernel.run k in
  check_str "sieve survives thrashing" (hosted_output "sieve")
    (find_proc r "sieve").Kernel.output;
  check_str "strops survives thrashing" (hosted_output "strops")
    (find_proc r "strops").Kernel.output;
  check "evictions happened" true (r.Kernel.evictions > 0)

let test_segment_violation_kills () =
  (* hand-built program that dereferences an address between the two valid
     segment regions *)
  let asm =
    Mips_reorg.Asm.make ~entry:"main"
      [ Mips_reorg.Asm.label "main";
        Mips_reorg.Asm.ins (Piece.Mem (Mem.Limm (40000, Reg.r 1)));
        Mips_reorg.Asm.ins
          (Piece.Mem (Mem.Load (Mem.W32, Mem.Disp (Reg.r 1, 0), Reg.r 2)));
        Mips_reorg.Asm.ins (Piece.Alu (Alu.Mov (Operand.imm4 0, Reg.scratch0)));
        Mips_reorg.Asm.ins (Piece.Branch (Branch.Trap Monitor.exit_)) ]
  in
  let k = Kernel.create () in
  Kernel.spawn k ~name:"wild" (Mips_reorg.Pipeline.compile asm);
  let r = Kernel.run k in
  let p = find_proc r "wild" in
  (match p.Kernel.killed with
  | Some (Kernel.Arch_fault (Cause.Page_fault, _)) -> ()
  | _ -> Alcotest.fail "expected the wild process to be killed");
  Alcotest.(check (option int)) "no exit status" None p.Kernel.exit_status

let test_yield_round_robin () =
  let src which =
    Printf.sprintf
      "program p%d; var i : integer; begin for i := 1 to 3 do begin write(%d); \
       yield end; writeln end."
      which which
  in
  (* yield is not part of the source language; approximate with tiny quantum
     instead *)
  ignore src;
  let k = Kernel.create ~quantum:60 () in
  spawn_corpus k "hanoi";
  spawn_corpus k "ackermann";
  let r = Kernel.run k in
  check_str "hanoi" (hosted_output "hanoi") (find_proc r "hanoi").Kernel.output;
  check_str "ackermann" (hosted_output "ackermann")
    (find_proc r "ackermann").Kernel.output;
  check "many switches with tiny quantum" true (r.Kernel.switches > 50)

let test_kernel_cost_accounting () =
  let k = Kernel.create ~quantum:200 () in
  spawn_corpus k "fib";
  let r = Kernel.run k in
  check_int "switch cost model" 40 r.Kernel.switch_cycle_cost;
  check "kernel cycles accounted" true
    (r.Kernel.kernel_cycles
    >= (r.Kernel.switches * r.Kernel.switch_cycle_cost));
  check "total includes kernel" true (r.Kernel.total_cycles > r.Kernel.kernel_cycles)

(* --- the monitor-call ABI ---------------------------------------------------- *)

(* One program making every monitor call: two characters of input and one
   end-of-input getchar, a putstr whose seven characters span two data
   words, a yield, then [last] (exit 3 or an unknown trap code). *)
let abi_program last =
  let movi8 c d = Word.A (Alu.Movi8 (c, Reg.r d)) in
  let trap c = Word.B (Branch.Trap c) in
  let echo put =
    [ trap Monitor.getchar; Word.A (Alu.Mov (Operand.reg Reg.result, Reg.scratch0));
      trap put ]
  in
  let text = "across!" in
  let word k =
    let w = ref 0 in
    for i = 0 to 3 do
      let j = (4 * k) + i in
      if j < String.length text then w := Word32.set_byte !w i (Char.code text.[j])
    done;
    (k, !w)
  in
  Program.make ~data:[ word 0; word 1 ] ~data_words:2
    (Array.of_list
       ([ movi8 72 10; trap Monitor.putchar;
          Word.M (Mem.Limm (-4096, Reg.scratch0)); trap Monitor.putint ]
       @ echo Monitor.putchar @ echo Monitor.putchar @ echo Monitor.putint
       @ [ trap Monitor.yield; movi8 0 10; movi8 7 11; trap Monitor.putstr;
           movi8 3 10; trap last ]))

let test_monitor_abi_hosted_equals_kernel () =
  List.iter
    (fun engine ->
      List.iter
        (fun (last, status, fault) ->
          let h = Hosted.run_program ~input:"ab" ~engine (abi_program last) in
          let k = Kernel.create ~engine () in
          Kernel.spawn k ~input:"ab" ~name:"abi" (abi_program last);
          let p = find_proc (Kernel.run k) "abi" in
          let what = Printf.sprintf "%s, trap %d" (Cpu.engine_name engine) last in
          check_str (what ^ ": hosted output") "H-4096ab255across!" h.Hosted.output;
          check_str (what ^ ": kernel output") h.Hosted.output p.Kernel.output;
          Alcotest.(check (option int)) (what ^ ": hosted status") status
            h.Hosted.exit_status;
          Alcotest.(check (option int)) (what ^ ": kernel status") status
            p.Kernel.exit_status;
          check (what ^ ": hosted fault") true (h.Hosted.fault = fault);
          check (what ^ ": kernel kill") true
            (p.Kernel.killed
            = Option.map (fun (c, d) -> Kernel.Arch_fault (c, d)) fault))
        [ (Monitor.exit_, Some 3, None); (99, None, Some (Cause.Trap, 99)) ])
    [ Cpu.Ref; Cpu.Fast; Cpu.Jit ]

let tc n f = Alcotest.test_case n `Quick f

let suite =
  [ ( "os:kernel",
      [ tc "two processes, demand paged" test_two_processes;
        tc "eviction under pressure" test_eviction_pressure;
        tc "segment violation kills" test_segment_violation_kills;
        tc "tiny quantum round robin" test_yield_round_robin;
        tc "kernel cost accounting" test_kernel_cost_accounting;
        tc "monitor ABI: hosted equals kernel"
          test_monitor_abi_hosted_equals_kernel ] ) ]
