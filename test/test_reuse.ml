(* Machine reuse: [Cpu.reset] and the per-Domain pool behind
   [Cpu.with_machine].

   The contract is that a reset machine is indistinguishable from a fresh
   one: every architectural, pipeline, statistics and observer field equal,
   every compiled-code slot stale, and any later run bit-identical.  The
   pool must never lend one machine twice at once, and must never let a
   later borrow reach back into results an earlier one handed out. *)

open Mips_machine
open Testutil
module Plan = Mips_fault.Plan
module Progen = Mips_soak.Progen
module Snapshot = Mips_resilience.Snapshot
module Json = Mips_obs.Json

(* --- reset is create ------------------------------------------------------- *)

(* One machine configuration with the programs it runs: reorganized code
   on the word and byte machines (corpus programs compiled for each, the
   generated ones shared as in the engine differential), raw program order
   on the interlocked one. *)
type case = {
  label : string;
  config : Cpu.config;
  programs : (string * Program.t * string) list;  (* name, image, input *)
}

let progen_seeds = [ 3; 29; 61; 97 ]
let corpus_names = [ "calendar"; "strops"; "queens" ]

let cases () =
  let progen ~raw =
    List.map
      (fun seed ->
        let asm = Progen.generate ~seed () in
        ( Progen.name ~seed,
          (if raw then Mips_reorg.Pipeline.compile_raw asm
           else Mips_reorg.Pipeline.compile asm),
          "" ))
      progen_seeds
  in
  let corpus ~ir ~raw =
    List.map
      (fun name ->
        let e = Mips_corpus.Corpus.find name in
        let src = e.Mips_corpus.Corpus.source in
        ( name,
          (if raw then
             Mips_reorg.Pipeline.compile_raw (Mips_artifact.asm ~config:ir src)
           else Mips_artifact.compiled ~config:ir src),
          e.Mips_corpus.Corpus.input ))
      corpus_names
  in
  let word = Mips_ir.Config.default and byte = Mips_ir.Config.byte_machine in
  [ { label = "default"; config = Cpu.default_config;
      programs = progen ~raw:false @ corpus ~ir:word ~raw:false };
    { label = "byte"; config = Mips_codegen.Compile.machine_config byte;
      programs = progen ~raw:false @ corpus ~ir:byte ~raw:false };
    { label = "interlocked"; config = Cpu.interlocked_config;
      programs = progen ~raw:true @ corpus ~ir:word ~raw:true } ]

(* Leave every resettable field away from its initial value: a clean run
   (fills the fast engine's closures and, on jit, its trace cache), then a
   second run of the loaded image, without reloading it, under a live trace
   sink, a fault plan and profiling, then a pending load, a latched fault,
   an armed flaky reference, the interrupt line, mapped execution and
   page-map entries on top. *)
let dirty ~config ~engine ~seed (_, program, input) =
  let cpu = Cpu.create ~config () in
  ignore (Hosted.run_program_on ~fuel:200_000 ~input ~engine cpu program);
  Cpu.set_pc cpu program.Program.entry;
  let events = ref 0 in
  Cpu.set_trace cpu (Mips_obs.Sink.of_fun (fun _ -> incr events));
  Cpu.set_fault_plan cpu
    (Plan.make
       { Plan.quiet with Plan.seed; flaky_rate = 0.01; irq_rate = 0.005;
         flip_data_rate = 0.001 });
  Cpu.set_profiling cpu true;
  ignore (Hosted.run ~fuel:20_000 ~input ~engine cpu);
  if !events = 0 then Alcotest.fail "dirtying run emitted no trace event";
  (* each accessor alone writes a page nothing else has *)
  Cpu.write_data cpu (config.Cpu.dmem_words - 5) 7;
  Cpu.write_code cpu (config.Cpu.imem_words - 9) Mips_isa.Word.Nop;
  Cpu.write_code cpu (config.Cpu.imem_words - 3000) (Cpu.read_code cpu 1);
  Cpu.write_note cpu (config.Cpu.imem_words - 5000)
    (Mips_isa.Note.make ~char_data:true ~byte_sized:false ());
  let pm = Cpu.pagemap cpu in
  Pagemap.map pm Pagemap.Dspace ~vpage:3 ~frame:7 ~writable:true;
  Pagemap.map pm Pagemap.Ispace ~vpage:0 ~frame:1 ~writable:false;
  cpu.Cpu.byte_select <- 2;
  cpu.pend_r <- 5;
  cpu.pend_v <- 42;
  cpu.last_load_writes <- Mips_isa.Reg.(Set.of_list [ r 1; r 3 ]);
  cpu.fault <- Some Cpu.Transient_ref;
  cpu.flaky_armed <- true;
  cpu.prev_pc <- 1;
  cpu.prev_word <- Cpu.read_code cpu 1;
  cpu.delay_pending <- 1;
  Cpu.set_interrupt cpu true;
  Cpu.set_segmap cpu (Segmap.make ~pid:3 ~mask_bits:4);
  Cpu.set_surprise cpu
    { (Cpu.surprise cpu) with Surprise.map_enable = true; priv = Surprise.User };
  Cpu.set_epc cpu 1 77;
  cpu

let assert_pristine what (got : Cpu.t) (fresh : Cpu.t) =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  if got.Cpu.xlive <> [] || got.Cpu.jit_live <> [] then
    fail "execution counts survived";
  if Snapshot.machine_to_string got <> Snapshot.machine_to_string fresh then
    fail "machine state differs from a fresh machine";
  if got.Cpu.imem <> fresh.Cpu.imem then fail "instruction memory not cleared";
  if not (Array.for_all (fun page -> page == Cpu.zero_page) got.Cpu.dmem) then
    fail "a data page of its own survived";
  if Array.exists (fun v -> v <> 0) Cpu.zero_page then fail "the zero page was written";
  if got.Cpu.notes <> fresh.Cpu.notes then fail "notes not cleared";
  if Cpu.profile got <> None then fail "profiling still armed";
  if Cpu.fault_plan got != Cpu.fault_plan fresh then fail "fault plan attached";
  if Cpu.trace got != Cpu.trace fresh then fail "trace sink attached";
  if not (Array.for_all2 ( == ) got.Cpu.xcode fresh.Cpu.xcode) then
    fail "a compiled slot survived";
  (* every slot now shares the sentinel record, so this also shows that no
     run wrote into it *)
  Array.iter
    (fun (x : Cpu.xword) ->
      if x.Cpu.tcode != Cpu.jit_stale || x.tlen <> 0 then
        fail "a jit trace survived";
      if x.hot <> 0 then fail "a jit hotness count survived";
      if x.cover <> [] then fail "a jit cover list survived";
      if x.nospec then fail "a jit speculation blacklisting survived";
      if x.runs <> 0 then fail "an execution count survived")
    got.Cpu.xcode

(* the report's kernel workload, compiled once *)
let report_kernel_programs =
  lazy
    (let os_config =
       { Mips_ir.Config.default with
         Mips_ir.Config.stack_top = Mips_os.Kernel.user_stack_top }
     in
     List.map
       (fun name ->
         let e = Mips_corpus.Corpus.find name in
         ( name,
           e.Mips_corpus.Corpus.input,
           Mips_artifact.compiled ~config:os_config e.Mips_corpus.Corpus.source ))
       [ "fib"; "sieve"; "strops" ])

let run_snapshot ~engine cpu (_, program, input) =
  let res = Hosted.run_program_on ~fuel:500_000 ~input ~engine cpu program in
  ( res.Hosted.output,
    res.Hosted.exit_status,
    Json.to_string (Stats.to_json (Cpu.stats cpu)),
    Snapshot.machine_to_string cpu )

let test_reset_is_create () =
  (* the dirtying must actually leave compiled code behind somewhere, or
     the stale-slot assertions prove nothing *)
  let fast_code = ref 0 and jit_traces = ref 0 in
  List.iter
    (fun { label; config; programs } ->
      let progs = Array.of_list programs in
      Array.iteri
        (fun i first ->
          let second = progs.((i + 1) mod Array.length progs) in
          List.iter
            (fun engine ->
              let (name, _, _) = first and (name2, _, _) = second in
              let what =
                Printf.sprintf "%s/%s: %s then %s" label
                  (Cpu.engine_name engine) name name2
              in
              let cpu = dirty ~config ~engine ~seed:(i + 1) first in
              let fresh = Cpu.create ~config () in
              let stale = fresh.Cpu.xcode.(0) in
              if Array.exists (fun f -> f != stale) cpu.Cpu.xcode then
                incr fast_code;
              if Array.exists (fun x -> x.Cpu.tcode != Cpu.jit_stale) cpu.Cpu.xcode
              then incr jit_traces;
              Cpu.reset cpu;
              assert_pristine what cpu fresh;
              let got = run_snapshot ~engine cpu second in
              let want = run_snapshot ~engine fresh second in
              let (o, x, s, m) = got and (o', x', s', m') = want in
              if o <> o' then Alcotest.failf "%s: output differs" what;
              if x <> x' then Alcotest.failf "%s: exit status differs" what;
              if s <> s' then
                Alcotest.failf "%s: stats differ\n  reset %s\n  fresh %s" what
                  s s';
              if m <> m' then Alcotest.failf "%s: final machine differs" what)
            [ Cpu.Ref; Cpu.Fast; Cpu.Jit ])
        progs)
    (cases ());
  check "some dirty machine held fast-engine closures" true (!fast_code > 0);
  check "some dirty machine held jit traces" true (!jit_traces > 0)

(* --- written pages ---------------------------------------------------------- *)

(* [reset], the checkpoint writer and the checkpoint reader visit only the
   data pages a run made its own and the code pages it marked written, so
   every word that differs from a fresh machine's must lie in one: nonzero
   data, a non-[Nop] code word, a non-plain note and a compiled slot.  A
   store that bypassed [Cpu.store_word] would leave its word in the shared
   zero page, in no page of the machine's own. *)
let assert_marked what ~(fresh : Cpu.t) (cpu : Cpu.t) =
  let stale = fresh.Cpu.xcode.(0) in
  let code_marked a =
    Bytes.get cpu.Cpu.ipages (a lsr Pagemap.page_bits) <> '\000'
  in
  let unmarked kind a =
    Alcotest.failf "%s: %s word %d lies in an unmarked page" what kind a
  in
  for a = 0 to (Cpu.config cpu).Cpu.dmem_words - 1 do
    if Cpu.read_data cpu a <> 0 && not (Cpu.data_written cpu a) then
      Alcotest.failf "%s: data word %d lies in the zero page" what a
  done;
  let check_code kind initial =
    Array.iteri (fun a x ->
        if not (initial x || code_marked a) then unmarked kind a)
  in
  check_code "code" (fun w -> w = Mips_isa.Word.Nop) cpu.Cpu.imem;
  check_code "note" (fun n -> n = Mips_isa.Note.plain) cpu.Cpu.notes;
  check_code "compiled slot" (fun x -> x == stale) cpu.Cpu.xcode

let fault_plans =
  [ None;
    Some
      { Plan.quiet with Plan.seed = 7; flip_data_rate = 0.002; flaky_rate = 0.01 };
    Some
      { Plan.quiet with
        Plan.seed = 11;
        flip_data_rate = 0.001;
        flip_reg_rate = 0.001;
        irq_rate = 0.005;
        page_drop_rate = 0.002 } ]

let prop_written_pages_marked =
  let gen =
    QCheck2.Gen.(
      triple (int_range 0 10_000)
        (oneofl Cpu.[ Ref; Fast; Jit ])
        (int_range 0 (List.length fault_plans - 1)))
  in
  QCheck2.Test.make ~name:"every written word lies in a marked page" ~count:24
    ~print:(fun (seed, engine, plan) ->
      Printf.sprintf "seed %d, %s, plan %d" seed (Cpu.engine_name engine) plan)
    gen
    (fun (seed, engine, plan) ->
      let what =
        Printf.sprintf "%s on %s" (Progen.name ~seed) (Cpu.engine_name engine)
      in
      let program = Mips_reorg.Pipeline.compile (Progen.generate ~seed ()) in
      let fresh = Cpu.create () in
      Cpu.with_machine (fun cpu ->
          Option.iter
            (fun c -> Cpu.set_fault_plan cpu (Plan.make c))
            (List.nth fault_plans plan);
          ignore (Hosted.run_program_on ~fuel:100_000 ~engine cpu program);
          (* a second, unloaded run: compiled slots and traces of a warm
             machine *)
          Cpu.set_pc cpu program.Program.entry;
          ignore (Hosted.run ~fuel:50_000 ~engine cpu);
          assert_marked what ~fresh cpu;
          Cpu.reset cpu;
          assert_pristine what cpu fresh);
      true)

(* Every store shape of every engine, each the only writer of its pages:
   loops whose arrays span many pages, so a store site that failed to mark
   its page leaves written words in unmarked pages.  Loops go hot, so the
   jit runs them as traces after its first iterations. *)
let page_stores_source =
  {|
program pagestores;
const n = 12000;
var a, b, c, d : array [0..12000] of integer;
    s, t : packed array [0..24000] of char;
    i, k : integer;
begin
  for i := 0 to n do a[i] := i;
  i := 0;
  while i <= n do begin b[i] := a[i] + 1; i := i + 1 end;
  for i := 0 to n do begin k := a[i] * 3; c[n - i] := k end;
  for i := 0 to n do if a[i] mod 2 = 0 then d[i] := i else d[i] := 0 - i;
  for i := 0 to 2 * n do s[i] := 'x';
  for i := 0 to 2 * n do if i mod 3 = 0 then t[i] := s[i] else t[i] := 'y';
  writeln(b[n] + c[0] + d[n])
end.
|}

(* A store packed with an ALU piece, which the compiler does not emit in
   a loop of its own: [r2] walks 20,000 words (or bytes) up from word
   4096, storing itself at each, the ALU piece stepping it. *)
let packed_store_loop ~width ~first =
  let open Mips_isa in
  let r = Reg.r and rr i = Operand.reg (Reg.r i) in
  Program.make
    [| Word.M (Mem.Limm (first, r 2));
       Word.M (Mem.Limm (first + 20_000, r 3));
       Word.AM
         ( Alu.Binop (Alu.Add, rr 2, Operand.imm4 1, r 2),
           Mem.Store (width, r 2, Mem.Disp (r 2, 0)) );
       Word.B (Branch.Cbr (Cond.Lt, rr 2, rr 3, 2));
       Word.Nop;
       Word.A (Alu.Movi8 (0, Reg.scratch0));
       Word.B (Branch.Trap Monitor.exit_) |]

(* A jump past the image: the fast engine compiles a slot for every
   never-written word it runs, up to the fetch fault at the top of
   instruction memory. *)
let nops_past_image =
  Program.make [| Mips_isa.Word.B (Mips_isa.Branch.Jump 8192); Mips_isa.Word.Nop |]

let test_stores_mark_pages () =
  let compiled ir = Mips_codegen.Compile.compile ~config:ir page_stores_source in
  let word = Mips_ir.Config.default and byte = Mips_ir.Config.byte_machine in
  let byte_config = Mips_codegen.Compile.machine_config byte in
  let cases =
    [ ("compiled word", Cpu.default_config, compiled word);
      ("compiled byte", byte_config, compiled byte);
      ( "packed word",
        Cpu.default_config,
        packed_store_loop ~width:Mips_isa.Mem.W32 ~first:4096 );
      ( "packed word, interlocked",
        Cpu.interlocked_config,
        packed_store_loop ~width:Mips_isa.Mem.W32 ~first:4096 );
      ( "packed byte",
        byte_config,
        packed_store_loop ~width:Mips_isa.Mem.W8 ~first:(4 * 4096) );
      ("nops past the image", Cpu.default_config, nops_past_image) ]
  in
  List.iter
    (fun (cname, config, program) ->
      let fresh = Cpu.create ~config () in
      List.iter
        (fun engine ->
          let what = Printf.sprintf "%s on %s" cname (Cpu.engine_name engine) in
          let cpu = Cpu.create ~config () in
          let res = Hosted.run_program_on ~fuel:5_000_000 ~engine cpu program in
          let ended =
            if program == nops_past_image then
              res.Hosted.fault = Some (Cause.Illegal, 0)
            else res.Hosted.exit_status = Some 0
          in
          if not ended then Alcotest.failf "%s: did not end as expected" what;
          assert_marked what ~fresh cpu;
          Cpu.reset cpu;
          assert_pristine what cpu fresh)
        Cpu.[ Ref; Fast; Jit ])
    cases

(* The checkpoint's data runs, scanned over written pages only, are the
   bytes a scan of all of memory gives, and restore onto a machine holding
   other data reproduces memory exactly.  Writes cluster at page edges, so
   runs start, end and continue across them, and some write zero. *)
let prop_checkpoint_scan_is_full_scan =
  let open QCheck2.Gen in
  let dmem_words = Cpu.default_config.Cpu.dmem_words in
  let pages = dmem_words / Pagemap.page_words in
  let addr =
    map2
      (fun page off -> (page * Pagemap.page_words) + off)
      (int_range 0 (pages - 1))
      (frequency
         [ (3, oneofl [ 0; 1; Pagemap.page_words - 2; Pagemap.page_words - 1 ]);
           (1, int_range 0 (Pagemap.page_words - 1)) ])
  in
  let write = pair addr (frequency [ (4, int_range 1 1000); (1, pure 0) ]) in
  let runs =
    (* a few long runs that cross page boundaries *)
    map (List.concat_map (fun ((a, v), len) ->
             List.init len (fun k -> ((a + k) mod dmem_words, v))))
      (list_size (int_range 0 3) (pair write (int_range 1 2500)))
  in
  QCheck2.Test.make ~name:"checkpoint data scan equals a full scan" ~count:30
    (pair (list_size (int_range 0 40) write) runs)
    (fun (writes, runs) ->
      let a = Cpu.create () and b = Cpu.create () in
      List.iter (fun (addr, v) -> Cpu.write_data a addr v) (writes @ runs);
      let sparse = Snapshot.machine_to_string a in
      (* give every page a page of its own, changing no word *)
      for page = 0 to pages - 1 do
        let w = page * Pagemap.page_words in
        let v = Cpu.read_data a w in
        Cpu.write_data a w 1;
        Cpu.write_data a w v
      done;
      let full = Snapshot.machine_to_string a in
      Cpu.write_data b 12345 9;
      Cpu.write_data b (dmem_words - 1) 9;
      sparse = full
      && Array.for_all (fun page -> page != Cpu.zero_page) a.Cpu.dmem
      && Snapshot.restore_machine b sparse = Ok ()
      && b.Cpu.dmem = a.Cpu.dmem)

(* Kernel runs write data through page-ins, evictions and the backing
   store, and code through frame refills, on a machine of their own and on
   a borrowed one. *)
let test_kernel_pages_marked () =
  let spawn k =
    List.iter
      (fun (name, input, program) -> Mips_os.Kernel.spawn k ~input ~name program)
      (Lazy.force report_kernel_programs)
  in
  let fresh = Cpu.create () in
  List.iter
    (fun engine ->
      let what = "kernel on " ^ Cpu.engine_name engine in
      let k =
        Mips_os.Kernel.create ~data_frames:2 ~code_frames:2 ~quantum:500
          ~engine ()
      in
      spawn k;
      let r = Mips_os.Kernel.run k in
      if r.Mips_os.Kernel.evictions = 0 then
        Alcotest.failf "%s: no page was evicted" what;
      assert_marked what ~fresh (Mips_os.Kernel.cpu k);
      Cpu.with_machine (fun cpu ->
          let k =
            Mips_os.Kernel.create ~data_frames:2 ~code_frames:2 ~quantum:500
              ~engine ~cpu ()
          in
          spawn k;
          let r' = Mips_os.Kernel.run k in
          check_string (what ^ ": borrowed machine's report")
            (Json.to_string (Mips_os.Kernel.report_json r))
            (Json.to_string (Mips_os.Kernel.report_json r'));
          assert_marked (what ^ ", borrowed") ~fresh cpu;
          Cpu.reset cpu;
          assert_pristine (what ^ ", borrowed") cpu fresh))
    Cpu.[ Ref; Fast; Jit ]

(* --- borrowing -------------------------------------------------------------- *)

let test_nested_borrow_distinct () =
  Cpu.with_machine (fun outer ->
      Cpu.with_machine (fun inner ->
          check "nested borrow gets another machine" true (outer != inner));
      (* the outer machine stays lent until its own borrow returns *)
      Cpu.with_machine (fun again ->
          check "still distinct after the inner returns" true (outer != again)));
  let a = Cpu.with_machine Fun.id and b = Cpu.with_machine Fun.id in
  check "sequential borrows reuse the Domain's machine" true (a == b);
  let byte = Cpu.with_machine ~config:Cpu.byte_addressed_config Fun.id in
  check "another config gets its own machine" true (a != byte);
  check "with that config" true (Cpu.config byte = Cpu.byte_addressed_config)

(* Two systhreads of one Domain share its DLS: each holds its borrow until
   both have one, so the pool must hand out two machines. *)
let test_concurrent_threads_distinct () =
  let m = Mutex.create () and c = Condition.create () in
  let holding = ref 0 and got = ref [] in
  let borrower () =
    Cpu.with_machine (fun cpu ->
        Mutex.lock m;
        got := cpu :: !got;
        incr holding;
        Condition.broadcast c;
        while !holding < 2 do Condition.wait c m done;
        Mutex.unlock m)
  in
  let threads = [ Thread.create borrower (); Thread.create borrower () ] in
  List.iter Thread.join threads;
  match !got with
  | [ a; b ] -> check "concurrent borrows get distinct machines" true (a != b)
  | l -> Alcotest.failf "%d borrows recorded" (List.length l)

let test_stats_survive_next_borrow () =
  let run name =
    let e = Mips_corpus.Corpus.find name in
    let p = Mips_artifact.compiled e.Mips_corpus.Corpus.source in
    Cpu.with_machine (fun cpu ->
        ignore
          (Hosted.run_program_on ~input:e.Mips_corpus.Corpus.input
             ~engine:Cpu.Fast cpu p);
        Cpu.stats cpu)
  in
  let fib = run "fib" in
  let before = Json.to_string (Stats.to_json fib) in
  let queens = run "queens" in
  check "next borrow gets a new statistics record" true (fib != queens);
  check_string "earlier statistics unchanged" before
    (Json.to_string (Stats.to_json fib))

let test_cold_report_no_corruption () =
  Mips_artifact.clear ();
  let before = (Mips_artifact.counters ()).Mips_artifact.corrupt in
  ignore (Mips_analysis.Report.json_all ~jobs:1 ());
  ignore (Mips_analysis.Report.json_all ~jobs:1 ());
  check_int "no cached simulation was disturbed by a later borrow" before
    (Mips_artifact.counters ()).Mips_artifact.corrupt

(* --- the guardrail ---------------------------------------------------------- *)

(* A run on a warm Domain must not allocate a machine.  [Cpu.create] puts
   ~197K words on the major heap (imem, notes, xcode and the data page
   table); a borrowed machine is reset in place and its data pages come
   from the last run's spares, so what is left is the run's own small
   records. *)
let max_major_words_per_borrowed_run = 1_000.

let test_borrowed_run_allocates_no_machine () =
  let e = Mips_corpus.Corpus.find "calendar" in
  let p = Mips_artifact.compiled e.Mips_corpus.Corpus.source in
  List.iter
    (fun engine ->
      let run () =
        Cpu.with_machine (fun cpu ->
            let res =
              Hosted.run_program_on ~input:e.Mips_corpus.Corpus.input ~engine
                cpu p
            in
            if not res.Hosted.halted then Alcotest.fail "calendar did not halt")
      in
      run ();
      run ();
      let m0 = (Gc.quick_stat ()).Gc.major_words in
      run ();
      let m1 = (Gc.quick_stat ()).Gc.major_words in
      if m1 -. m0 >= max_major_words_per_borrowed_run then
        Alcotest.failf "calendar on %s: %.0f major words in one borrowed run"
          (Cpu.engine_name engine) (m1 -. m0))
    [ Cpu.Ref; Cpu.Fast ]

(* The jit keeps its per-pc state in the slot records the fast engine
   compiles for the words that run, so a first jit run on a fresh machine
   allocates no table sized to instruction memory.  The minor heap is
   emptied first, so what was allocated before the run is not promoted
   into its count. *)
let max_major_words_first_jit_run = 1_000.

(* The report's kernel run (Section 3.2) on a warm Domain's borrowed
   machine, with the programs compiled beforehand; [measure] brackets the
   kernel's creation and its run, and the two readings are summed.  The
   process images [spawn] copies are the kernel's own, and left out; the
   minor heap is emptied before each bracket, so nothing allocated outside
   one is promoted into it. *)
let report_kernel_run ~measure cpu =
  Gc.minor ();
  let m0 = measure () in
  let k = Mips_os.Kernel.create ~quantum:400 ~engine:Cpu.Fast ~cpu () in
  let m1 = measure () in
  List.iter
    (fun (name, input, program) -> Mips_os.Kernel.spawn k ~input ~name program)
    (Lazy.force report_kernel_programs);
  Gc.minor ();
  let m2 = measure () in
  ignore (Mips_os.Kernel.run k);
  m1 -. m0 +. (measure () -. m2)

(* The machine and the page map's tables are the pool's, so what is left
   is the kernel's and the run's small records, under the hosted run's
   bound. *)
let test_borrowed_kernel_run_allocates_no_machine () =
  let major () = (Gc.quick_stat ()).Gc.major_words in
  let run () = Cpu.with_machine (report_kernel_run ~measure:major) in
  ignore (run ());
  let words = run () in
  if words >= max_major_words_per_borrowed_run then
    Alcotest.failf "the report's kernel run: %.0f major words on a borrowed machine"
      words

(* A hit in the page map is one array read and allocates nothing, and
   neither does a machine slice, a context switch's process pick and PC
   chain, a repeated exception's count, or a page fill's code, note and
   zero data writes.  Measured on the fast engine (OCaml 5.1.1): 0.258
   minor words per user cycle (0.343 before page fills stopped
   allocating, 0.502 before the switch path did, 7.494 with the
   hash-table map); the bound is the measured count + 10%. *)
let max_kernel_minor_words_per_cycle = 0.284

let test_kernel_run_minor_words () =
  ignore (Cpu.with_machine (report_kernel_run ~measure:Gc.minor_words));
  Cpu.with_machine (fun cpu ->
      let words = report_kernel_run ~measure:Gc.minor_words cpu in
      let cycles = (Cpu.stats cpu).Stats.cycles in
      let per_cycle = words /. float_of_int cycles in
      if per_cycle > max_kernel_minor_words_per_cycle then
        Alcotest.failf
          "the report's kernel run: %.3f minor words per user cycle (%.0f words, \
           %d cycles), bound %.3f"
          per_cycle words cycles max_kernel_minor_words_per_cycle)

let test_first_jit_run_allocates_no_tables () =
  let e = Mips_corpus.Corpus.find "queens" in
  let p = Mips_artifact.compiled e.Mips_corpus.Corpus.source in
  let cpu = Cpu.create () in
  Gc.minor ();
  let m0 = (Gc.quick_stat ()).Gc.major_words in
  let res =
    Hosted.run_program_on ~input:e.Mips_corpus.Corpus.input ~engine:Cpu.Jit cpu p
  in
  let m1 = (Gc.quick_stat ()).Gc.major_words in
  if not res.Hosted.halted then Alcotest.fail "queens did not halt";
  if not (Array.exists (fun x -> x.Cpu.tcode != Cpu.jit_stale) cpu.Cpu.xcode) then
    Alcotest.fail "queens compiled no trace";
  if m1 -. m0 >= max_major_words_first_jit_run then
    Alcotest.failf "queens on jit: %.0f major words in a fresh machine's first run"
      (m1 -. m0)

(* --- footprint ---------------------------------------------------------------- *)

(* A machine costs its code arrays and the data pages it writes: the data
   page table starts with every slot on the shared zero page.  Measured
   (OCaml 5.1.1): 196,673 words, 458,968 with a flat data array.  The
   Domain's counters also count what another systhread allocates when it
   runs inside the bracket, so the test reads the smallest of five. *)
let max_create_words = 210_000.

let test_create_words () =
  let create_words () =
    let a0 = Gc.allocated_bytes () in
    let cpu = Cpu.create () in
    let words = (Gc.allocated_bytes () -. a0) /. 8. in
    ignore (Sys.opaque_identity cpu);
    words
  in
  let words = List.fold_left Float.min infinity (List.init 5 (fun _ -> create_words ())) in
  if words > max_create_words then
    Alcotest.failf "Cpu.create allocated %.0f words, bound %.0f" words
      max_create_words

(* The data pages of a machine's own are the ones a run wrote: a fresh
   fib run on each engine owns its data page and its stack page, each
   holding a nonzero word. *)
let test_fib_owns_written_pages () =
  let e = Mips_corpus.Corpus.find "fib" in
  let p = Mips_artifact.compiled e.Mips_corpus.Corpus.source in
  List.iter
    (fun engine ->
      let cpu = Cpu.create () in
      let res =
        Hosted.run_program_on ~input:e.Mips_corpus.Corpus.input ~engine cpu p
      in
      if not res.Hosted.halted then Alcotest.fail "fib did not halt";
      let pages f =
        List.filter f (List.init (Array.length cpu.Cpu.dmem) Fun.id)
      in
      let own = pages (fun pg -> cpu.Cpu.dmem.(pg) != Cpu.zero_page) in
      let nonzero = pages (fun pg -> Array.exists (( <> ) 0) cpu.Cpu.dmem.(pg)) in
      let show l = String.concat "," (List.map string_of_int l) in
      let what = Cpu.engine_name engine in
      check_string (what ^ ": own pages are the written ones") (show nonzero)
        (show own);
      check_int (what ^ ": data pages owned") 2 (List.length own))
    Cpu.[ Ref; Fast; Jit ]

(* Every engine's stores on every Domain of a report leave the shared
   zero page as it was. *)
let test_zero_page_after_report () =
  ignore (Mips_analysis.Report.json_all ~jobs:2 ());
  if Array.exists (( <> ) 0) Cpu.zero_page then
    Alcotest.fail "a store wrote the shared zero page"

let suite =
  [ ( "machine:reuse",
      [ tc_slow "reset equals create, then runs bit-identically"
          test_reset_is_create;
        tc "nested borrow gets a distinct machine" test_nested_borrow_distinct;
        tc "concurrent systhread borrows are distinct"
          test_concurrent_threads_distinct;
        tc "statistics survive the next borrow" test_stats_survive_next_borrow;
        tc_slow "cold report leaves the artifact cache uncorrupted"
          test_cold_report_no_corruption;
        tc "borrowed run allocates < 1000 major words"
          test_borrowed_run_allocates_no_machine;
        tc "a first jit run on a fresh machine allocates < 1000 major words"
          test_first_jit_run_allocates_no_tables;
        tc "borrowed kernel run allocates < 1000 major words"
          test_borrowed_kernel_run_allocates_no_machine;
        tc "kernel run minor words per user cycle" test_kernel_run_minor_words;
        tc_slow "kernel runs leave every written word in a marked page"
          test_kernel_pages_marked;
        tc "every engine's stores mark their pages" test_stores_mark_pages;
        tc "Cpu.create allocates at most 210,000 words" test_create_words;
        tc "a fresh fib run owns only the data pages it wrote"
          test_fib_owns_written_pages;
        tc_slow "the shared zero page reads zeros after a report"
          test_zero_page_after_report ]
      @ qsuite [ prop_written_pages_marked; prop_checkpoint_scan_is_full_scan ] ) ]
