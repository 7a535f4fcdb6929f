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
   ~459K words on the major heap (imem, notes, xcode, dmem); a borrowed
   machine is reset in place, so what is left is the run's own small
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
          test_first_jit_run_allocates_no_tables ] ) ]
