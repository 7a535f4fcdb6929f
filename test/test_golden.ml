(* Golden (expect) tests for the CLI JSON surfaces.

   Two snapshots guard against silent drift:

   - the full byte-for-byte text of `mipsc run NAME --stats-json -` for two
     corpus programs (any change to the statistics schema, the counters, or
     the JSON rendering fails here), and
   - a schema skeleton of `mipsc report --json` (object keys with value
     types; lists by their first element) so the report can keep evolving
     numerically while structural drift still fails the build,
   - the full text and JSON of the default report, recorded while the
     report still simulated on the reference engine, so ref stays the
     oracle for every table whatever engine the report runs on, and
   - a digest of every program image the reorganizer produces for the
     corpus, so a change to scheduling, packing or delay filling that moves
     a single word fails here, and one of every image's symbol table (names,
     addresses and stored order),
   - a digest of every reference-engine run of the reference corpus on the
     word, byte and interlocked machines (output, exit status and the full
     statistics record) and of three complete JSONL event traces, so the
     reference interpreter's accounting and every trace emission site stay
     pinned whatever its implementation,
   - a digest of kernel runs (report, machine statistics, scheduler and
     machine snapshots, and traces) on every engine, whole and sliced, so
     the kernel's scheduling and accounting stay pinned whatever drives it,
   - a digest of every checkpoint of checkpointed hosted runs on every
     engine, one of them fault-injected, so the checkpoint bytes stay
     pinned whatever the machine tracks about the memory a run wrote.

   Regenerate intentionally with:
     GOLDEN_UPDATE=1 GOLDEN_DIR=$PWD/test/golden \
       dune exec test/test_main.exe -- test golden *)

open Testutil
module Json = Mips_obs.Json

let golden_dir =
  match Sys.getenv_opt "GOLDEN_DIR" with Some d -> d | None -> "golden"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check_golden file actual =
  let path = Filename.concat golden_dir file in
  if Sys.getenv_opt "GOLDEN_UPDATE" = Some "1" then
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc actual)
  else if not (Sys.file_exists path) then
    Alcotest.failf "golden file %s missing (set GOLDEN_UPDATE=1 to create it)"
      path
  else check_string file (read_file path) actual

(* exactly the bytes `mipsc run NAME --stats-json -` writes *)
let stats_json_text name =
  let e = Mips_corpus.Corpus.find name in
  let _, cpu =
    Mips_codegen.Compile.run_with_machine ~fuel:500_000_000
      ~input:e.Mips_corpus.Corpus.input e.Mips_corpus.Corpus.source
  in
  Json.to_string (Mips_machine.Stats.to_json (Mips_machine.Cpu.stats cpu))
  ^ "\n"

let test_stats_golden name () =
  check_golden ("stats_" ^ name ^ ".json") (stats_json_text name)

(* both engines must reproduce the committed snapshot, not just each other *)
let test_stats_engine_agree name () =
  let e = Mips_corpus.Corpus.find name in
  let _, cpu =
    Mips_codegen.Compile.run_with_machine ~fuel:500_000_000
      ~input:e.Mips_corpus.Corpus.input ~engine:Mips_machine.Cpu.Fast
      e.Mips_corpus.Corpus.source
  in
  let fast =
    Json.to_string (Mips_machine.Stats.to_json (Mips_machine.Cpu.stats cpu))
    ^ "\n"
  in
  check_golden ("stats_" ^ name ^ ".json") fast

let rec schema = function
  | Json.Null -> "null"
  | Json.Bool _ -> "bool"
  | Json.Int _ -> "int"
  | Json.Float _ -> "float"
  | Json.Str _ -> "str"
  | Json.List [] -> "[]"
  | Json.List (x :: _) -> "[" ^ schema x ^ "]"
  | Json.Obj kvs ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ schema v) kvs)
      ^ "}"

(* pretty-printed so the golden file diffs readably *)
let rec schema_lines indent = function
  | Json.Obj kvs ->
      List.concat_map
        (fun (k, v) ->
          match v with
          | Json.Obj _ ->
              (indent ^ k ^ ":") :: schema_lines (indent ^ "  ") v
          | Json.List (Json.Obj _ :: _ as l) ->
              (indent ^ k ^ ": list of") :: schema_lines (indent ^ "  ") (List.hd l)
          | other -> [ indent ^ k ^ ": " ^ schema other ])
        kvs
  | other -> [ indent ^ schema other ]

let test_report_schema () =
  let json = Mips_analysis.Report.json_all ~include_heavy:false () in
  let text = String.concat "\n" (schema_lines "" json) ^ "\n" in
  check_golden "report_schema.txt" text;
  (* the version field downstream consumers key on: present, first, and
     matching the library constant *)
  (match json with
  | Json.Obj (("schema_version", Json.Int v) :: _) ->
      Alcotest.(check int)
        "schema_version value" Mips_analysis.Report.report_schema_version v
  | _ -> Alcotest.fail "schema_version must be the first report key")

(* exactly the bytes `mipsc report --json` and `mipsc report` write *)
let test_report_golden () =
  let json = Mips_analysis.Report.json_all ~include_heavy:false () in
  check_golden "report.json" (Format.asprintf "%a@." Json.pp json);
  check_golden "report.txt"
    (Format.asprintf "%t" (fun ppf -> Mips_analysis.Report.print_all ppf))

(* Every simulation the report schedules, run on the reference engine and
   on the default one: the same output, halting, fault and statistics,
   including the char/byte reference classes Tables 7/8 read. *)
let test_report_sims_match_ref () =
  let module A = Mips_artifact in
  let module H = Mips_machine.Hosted in
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun (e : Mips_corpus.Corpus.entry) ->
          if not (Mips_analysis.Refpatterns.heavy e) then begin
            let name = cname ^ ":" ^ e.Mips_corpus.Corpus.name in
            let oracle = A.entry_sim ~config ~engine:Mips_machine.Cpu.Ref e in
            let sim = A.entry_sim ~config e in
            let stats (s : A.sim) =
              Json.to_string (Mips_machine.Stats.to_json s.A.stats)
            in
            check_string (name ^ " output") oracle.A.result.H.output
              sim.A.result.H.output;
            check (name ^ " halted") oracle.A.result.H.halted
              sim.A.result.H.halted;
            check (name ^ " fault") true
              (oracle.A.result.H.fault = sim.A.result.H.fault);
            check_string (name ^ " stats") (stats oracle) (stats sim)
          end)
        Mips_corpus.Corpus.all)
    Mips_ir.Config.[ ("word", default); ("byte", byte_machine) ]

(* One line per (program, config, level): the MD5 of the image without its
   symbol table, and the delay-slot statistics.  Symbols are left out so
   that renaming synthetic labels does not count as a code change. *)
let image_digest (p : Mips_machine.Program.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (p.code, p.notes, p.entry, p.data, p.data_words)
          [ Marshal.No_sharing ]))

(* The MD5 of the image's symbol table, in stored order: what
   [Program.lookup] and [Program.pp_listing] read. *)
let symbols_digest (p : Mips_machine.Program.t) =
  Digest.to_hex
    (Digest.string (Marshal.to_string p.symbols [ Marshal.No_sharing ]))

(* One line per (program, config, level), and one for [compile_raw]: the
   name, config, level and [describe image stats]. *)
let compile_lines describe =
  let module Pipeline = Mips_reorg.Pipeline in
  let module Corpus = Mips_corpus.Corpus in
  let configs =
    Mips_ir.Config.[ ("word", default); ("byte", byte_machine) ]
  in
  let levels =
    Pipeline.
      [ (Naive, "naive"); (Reorganized, "reorganized"); (Packed, "packed");
        (Delay_filled, "delay_filled") ]
  in
  let lines =
    List.concat_map
      (fun (e : Corpus.entry) ->
        List.concat_map
          (fun (cname, config) ->
            let asm = Mips_codegen.Compile.to_asm ~config e.source in
            let line level p st =
              Printf.sprintf "%s %s %s %s" e.name cname level (describe p st)
            in
            List.map
              (fun (level, lname) ->
                let p, st = Pipeline.compile_with_stats ~level asm in
                line lname p st)
              levels
            @ [ line "raw" (Pipeline.compile_raw asm) None ])
          configs)
      Corpus.all (* the Table 11 trio included *)
  in
  String.concat "\n" lines ^ "\n"

let compile_digest_text () =
  let stats = function
    | None -> "-"
    | Some (s : Mips_reorg.Delay.stats) ->
        Printf.sprintf "s1=%d s2=%d s3=%d unfilled=%d" s.scheme1 s.scheme2
          s.scheme3 s.unfilled
  in
  compile_lines (fun p st -> image_digest p ^ " " ^ stats st)

let test_compile_digest () =
  check_golden "compile_digest.txt" (compile_digest_text ())

let test_compile_symbols () =
  check_golden "compile_symbols.txt"
    (compile_lines (fun p _ -> symbols_digest p))

(* One line per reference-engine run: the MD5 of its output, exit status
   and [Stats.to_json] (stall pairs, exception tallies and the byte
   machine's float [weighted] sum included).  The corpus runs cover the
   reference corpus (the Table 11 trio is the report's heavy set) on the
   word and byte machines at [Delay_filled], and as [compile_raw] code on
   the interlocked machine; the trace lines hash the whole JSONL event
   stream of one run each. *)
let ref_stats_digest_text () =
  let module Pipeline = Mips_reorg.Pipeline in
  let module Corpus = Mips_corpus.Corpus in
  let module Cpu = Mips_machine.Cpu in
  let module H = Mips_machine.Hosted in
  let run ?trace ~config (e : Corpus.entry) program =
    let cpu = Cpu.create ~config () in
    Option.iter (Cpu.set_trace cpu) trace;
    let res =
      H.run_program_on ~fuel:500_000_000 ~input:e.input ~engine:Cpu.Ref cpu
        program
    in
    (res, Cpu.stats cpu)
  in
  let word = Mips_ir.Config.default and byte = Mips_ir.Config.byte_machine in
  let delay_filled cfg (e : Corpus.entry) =
    ( Mips_codegen.Compile.machine_config cfg,
      Mips_codegen.Compile.compile ~config:cfg ~level:Pipeline.Delay_filled
        e.source )
  in
  let raw (e : Corpus.entry) =
    ( Cpu.interlocked_config,
      Pipeline.compile_raw (Mips_codegen.Compile.to_asm ~config:word e.source) )
  in
  let variants =
    [ ("word", delay_filled word); ("byte", delay_filled byte); ("raw", raw) ]
  in
  let stats_lines =
    List.concat_map
      (fun (e : Corpus.entry) ->
        List.map
          (fun (vname, build) ->
            let config, program = build e in
            let res, stats = run ~config e program in
            let exit_status =
              match res.H.exit_status with
              | Some s -> string_of_int s
              | None -> "-"
            in
            Printf.sprintf "%s %s %s" e.name vname
              (Digest.to_hex
                 (Digest.string
                    (String.concat "\n"
                       [ res.H.output; exit_status;
                         Json.to_string (Mips_machine.Stats.to_json stats) ]))))
          variants)
      Corpus.reference
  in
  let trace_lines =
    List.map
      (fun (name, vname) ->
        let e = Corpus.find name in
        let config, program = (List.assoc vname variants) e in
        let buf = Buffer.create (1 lsl 20) in
        let sink = Mips_obs.Sink.jsonl_buffer buf in
        ignore (run ~trace:sink ~config e program);
        Mips_obs.Sink.flush sink;
        Printf.sprintf "trace %s %s %s" name vname
          (Digest.to_hex (Digest.string (Buffer.contents buf))))
      [ ("fib", "word"); ("fib", "raw"); ("strops", "byte") ]
  in
  String.concat "\n" (stats_lines @ trace_lines) ^ "\n"

let test_ref_stats_digest () =
  check_golden "ref_stats_digest.txt" (ref_stats_digest_text ())

(* One line per kernel run: the MD5 of its report, the machine's statistics,
   the scheduler and machine snapshots and, where traced, the whole JSONL
   event stream.  Each scenario runs on every engine, once as a whole [run]
   and once as [run_for] slices of 97, so a change to how the kernel drives
   the machine (slice bounds, quantum and watchdog timing, the order of
   bookkeeping around a dispatch) fails here even when the engines still
   agree with each other. *)
let kernel_digest_text () =
  let module Cpu = Mips_machine.Cpu in
  let module Kernel = Mips_os.Kernel in
  let module Plan = Mips_fault.Plan in
  let module Progen = Mips_soak.Progen in
  let module Snapshot = Mips_resilience.Snapshot in
  let os_config =
    { Mips_ir.Config.default with
      Mips_ir.Config.stack_top = Kernel.user_stack_top }
  in
  let report_workload k =
    List.iter
      (fun name ->
        let e = Mips_corpus.Corpus.find name in
        Kernel.spawn k ~input:e.Mips_corpus.Corpus.input ~name
          (Mips_codegen.Compile.compile ~config:os_config
             e.Mips_corpus.Corpus.source))
      [ "fib"; "sieve"; "strops" ]
  in
  let progen seeds k =
    List.iter
      (fun seed ->
        Kernel.spawn k ~name:(Progen.name ~seed)
          (Mips_reorg.Pipeline.compile (Progen.generate ~segments:40 ~seed ())))
      seeds
  in
  let every_fault =
    { Plan.quiet with
      Plan.seed = 41;
      flip_reg_rate = 0.004;
      flip_data_rate = 0.004;
      irq_rate = 0.004;
      page_drop_rate = 0.004;
      flaky_rate = 0.01 }
  in
  let flaky = { Plan.quiet with Plan.seed = 43; flaky_rate = 0.3; page_drop_rate = 0.05 } in
  (* name, kernel parameters, processes, fuel, traced *)
  let q400 engine trace = Kernel.create ~quantum:400 ~engine ~trace () in
  let quantum q engine trace = Kernel.create ~quantum:q ~engine ~trace () in
  let scenarios =
    [ ("report-q400", q400, report_workload, 50_000_000, false);
      ("report-q400-traced", q400, report_workload, 50_000_000, true);
      ("report-q400-fuel-cut", q400, report_workload, 100_003, false);
      ("q0", quantum 0, progen [ 5; 17 ], 60_000, false);
      ("q1", quantum 1, progen [ 5; 17 ], 60_000, false);
      ("q2", quantum 2, progen [ 5; 17 ], 60_000, false);
      ("q7", quantum 7, progen [ 5; 17; 23 ], 400_000, false);
      ( "frames-2+2",
        (fun engine trace ->
          Kernel.create ~data_frames:2 ~code_frames:2 ~quantum:1000 ~engine
            ~trace ()),
        report_workload, 50_000_000, false );
      ( "watchdog-20000",
        (fun engine trace ->
          Kernel.create ~quantum:400 ~watchdog:20_000 ~engine ~trace ()),
        report_workload, 50_000_000, false );
      ( "watchdog-eq-quantum",
        (fun engine trace ->
          Kernel.create ~quantum:400 ~watchdog:400 ~engine ~trace ()),
        report_workload, 50_000_000, false );
      ( "progen-every-fault",
        (fun engine trace ->
          Kernel.create ~data_frames:8 ~code_frames:8 ~quantum:500
            ~watchdog:200_000 ~fault_plan:(Plan.make every_fault) ~engine
            ~trace ()),
        progen [ 3; 7; 11; 13 ], 2_000_000, false );
      ( "flaky-retries-2-double-2",
        (fun engine trace ->
          Kernel.create ~quantum:300 ~max_retries:2 ~double_fault_limit:2
            ~fault_plan:(Plan.make flaky) ~engine ~trace ()),
        progen [ 5; 17; 23 ], 2_000_000, false );
      ( "backing-limit-1",
        (fun engine trace ->
          Kernel.create ~data_frames:2 ~code_frames:4 ~quantum:500
            ~backing_limit:1 ~engine ~trace ()),
        report_workload, 50_000_000, false ) ]
  in
  let run_one (name, make, spawn, fuel, traced) engine sliced =
    let buf = Buffer.create (if traced then 1 lsl 20 else 16) in
    let sink =
      if traced then Mips_obs.Sink.jsonl_buffer buf else Mips_obs.Sink.null
    in
    let k = make engine sink in
    spawn k;
    let report =
      if sliced then begin
        let rec go left =
          if left > 0 && Kernel.run_for k ~steps:(min 97 left) = `More then
            go (left - 97)
        in
        go fuel;
        Kernel.report k
      end
      else Kernel.run ~fuel k
    in
    Mips_obs.Sink.flush sink;
    let cpu = Kernel.cpu k in
    Printf.sprintf "%s %s %s %s" name (Cpu.engine_name engine)
      (if sliced then "run_for-97" else "run")
      (Digest.to_hex
         (Digest.string
            (String.concat "\n"
               [ Json.to_string (Kernel.report_json report);
                 Json.to_string (Mips_machine.Stats.to_json (Cpu.stats cpu));
                 Snapshot.sched_to_string k;
                 Snapshot.machine_to_string cpu; Buffer.contents buf ])))
  in
  let lines =
    List.concat_map
      (fun sc ->
        List.concat_map
          (fun engine -> [ run_one sc engine false; run_one sc engine true ])
          Cpu.[ Ref; Fast; Jit ])
      scenarios
  in
  String.concat "\n" lines ^ "\n"

let test_kernel_digest () =
  check_golden "kernel_digest.txt" (kernel_digest_text ())

(* One line per checkpoint of a checkpointed hosted run: the MD5 of the
   bytes [Snapshot.hosted_checkpoint] writes there (registers, page map,
   data memory as runs of nonzero words, statistics, fault plan and the
   hosted loop's state).  hanoi and queens run on the word and byte
   machines on every engine, and queens once more on the byte machine
   under a fault plan whose data-bit flips land all over data memory,
   mostly in pages the program never writes.  The engines must agree
   line for line. *)
let checkpoint_digest_text () =
  let module Cpu = Mips_machine.Cpu in
  let module H = Mips_machine.Hosted in
  let module Plan = Mips_fault.Plan in
  let module Snapshot = Mips_resilience.Snapshot in
  let flips =
    { Plan.quiet with
      Plan.seed = 3;
      flip_data_rate = 0.001;
      flaky_rate = 0.01;
      irq_rate = 0.005 }
  in
  let runs =
    [ ("hanoi", "word", Mips_ir.Config.default, 70_000, None);
      ("hanoi", "byte", Mips_ir.Config.byte_machine, 70_000, None);
      ("queens", "word", Mips_ir.Config.default, 600_000, None);
      ("queens", "byte", Mips_ir.Config.byte_machine, 600_000, None);
      ("queens", "byte-faults", Mips_ir.Config.byte_machine, 100_000,
       Some flips) ]
  in
  let lines =
    List.concat_map
      (fun (name, cname, ir, every, plan) ->
        let e = Mips_corpus.Corpus.find name in
        let program = Mips_codegen.Compile.compile ~config:ir e.source in
        List.concat_map
          (fun engine ->
            let cpu =
              Cpu.create ~config:(Mips_codegen.Compile.machine_config ir) ()
            in
            Option.iter (fun c -> Cpu.set_fault_plan cpu (Plan.make c)) plan;
            Cpu.load_program cpu program;
            let saved = ref [] in
            let save h =
              let bytes = Snapshot.hosted_checkpoint ~kind:"run" ~meta:name cpu h in
              saved := Digest.to_hex (Digest.string bytes) :: !saved
            in
            let res =
              H.run ~fuel:50_000_000 ~input:e.input ~engine
                ~checkpoint:(every, save) cpu
            in
            if !saved = [] then
              Alcotest.failf "%s %s: no checkpoint was written" name cname;
            List.mapi
              (fun i d ->
                Printf.sprintf "%s %s %s %d %s" name cname
                  (Cpu.engine_name engine) i d)
              (List.rev !saved)
            @ [ Printf.sprintf "%s %s %s end %s" name cname
                  (Cpu.engine_name engine)
                  (Digest.to_hex
                     (Digest.string
                        (res.H.output ^ "\n"
                        ^ Snapshot.machine_to_string cpu))) ])
          Cpu.[ Ref; Fast; Jit ])
      runs
  in
  String.concat "\n" lines ^ "\n"

let test_checkpoint_digest () =
  check_golden "checkpoint_digest.txt" (checkpoint_digest_text ())

let suite =
  [ ( "golden:compile",
      [ tc_slow "reorganizer output digest" test_compile_digest;
        tc_slow "ref engine stats and trace digest" test_ref_stats_digest;
        tc_slow "kernel runs on every engine and slicing" test_kernel_digest;
        tc_slow "hosted checkpoints on every engine" test_checkpoint_digest;
        tc_slow "reorganizer symbol tables" test_compile_symbols ] );
    ( "golden:cli-json",
      [ tc_slow "run --stats-json fib" (test_stats_golden "fib");
        tc_slow "run --stats-json strops" (test_stats_golden "strops");
        tc_slow "fast engine matches fib snapshot"
          (test_stats_engine_agree "fib");
        tc_slow "fast engine matches strops snapshot"
          (test_stats_engine_agree "strops");
        tc_slow "report --json schema" test_report_schema;
        tc_slow "report text and json" test_report_golden;
        tc_slow "report simulations equal the ref engine"
          test_report_sims_match_ref ] ) ]
