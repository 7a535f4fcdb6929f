(* mipsc — the command-line driver.

   mipsc run FILE            compile and execute on the simulator
   mipsc compile FILE        compile and print the final listing
   mipsc asm FILE            print the symbolic assembly (before the postpass)
   mipsc levels FILE         static counts at each postpass level (Table 11 view)
   mipsc profile FILE        per-phase compile times and top stall-causing pairs
   mipsc profile run FILE    execute with guest profiling: hot blocks, edges,
                             fusion-candidate pairs, flamegraph/speedscope
   mipsc corpus [NAME]       run corpus programs
   mipsc soak --seed N       seeded fault-injection soak (kernel + differential)
   mipsc report              regenerate every table and figure of the paper

   FILE may also name a corpus program (e.g. `mipsc run fib`).

   Observability: `run` takes --trace[=FILE] (events to stderr, a file, or
   `-` for stdout) with --trace-format=text|jsonl, and --stats-json FILE to
   dump the execution counters as JSON.  `report --json` emits the whole
   evaluation machine-readably (with a schema_version field), and
   `report --hotspots` appends guest hot-block tables.  `run`, `report`,
   `soak` and `profile run` take --host-trace FILE to write a Chrome
   trace-event JSON of the host-side phases (compile, simulate, worker-lane
   jobs) — load it in Perfetto or chrome://tracing.

   Robustness: `run` takes --fault-seed/--fault-rate to subject a single
   program to transparent transient faults (flaky-memory restarts and
   spurious interrupts); `soak` drives the full hardened-kernel and
   raw-vs-reorganized differential harnesses.  Both are bit-for-bit
   deterministic for a given seed.

   Parallelism: report, soak, corpus and run take --jobs N to size the
   Domain worker pool (default: the runtime's recommended domain count).
   Output is byte-identical for any N — workers populate the shared
   artifact cache, the deterministic aggregation stays on one domain.

   Resilience: `run` and `soak` take --checkpoint FILE (with
   --checkpoint-every N) to write versioned, checksummed snapshots as they
   go, and --resume FILE to continue a killed run — the completed run is
   bit-identical to one that was never interrupted.  `report` runs its
   warm-up under a supervisor (retry, quarantine) and takes --stats-json
   for the resilience counters plus --inject-poison LABEL to exercise
   retry, quarantine and failure attribution.  Exit codes are standardized in
   Exit_code and listed in every subcommand's --help. *)

open Cmdliner
module Supervise = Mips_resilience.Supervise

open Compile_args

let read_source = read_source ~prog:"mipsc"

let stats_flag = Arg.(value & flag & info [ "stats" ] ~doc:"Print execution statistics.")

(* worker-pool size for the commands that fan work out (report, soak,
   corpus); the value becomes the harness-wide default so library-level
   parallel maps pick it up too.  Output is byte-identical for any value —
   the pool only reorders when work happens, never results. *)
let jobs_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel evaluation (default: the runtime's \
           recommended domain count).  Results are byte-identical for any \
           $(docv).")

let apply_jobs = function
  | Some n -> Mips_par.set_default_jobs n
  | None -> ()

(* observability flags *)
let trace_flag =
  Arg.(
    value
    & opt ~vopt:(Some "stderr") (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Emit an execution event trace.  Without a value events go to \
           standard error; with $(docv) they go to that file ($(b,-) for \
           standard output).")

let trace_format_flag =
  Arg.(
    value
    & opt (enum [ ("text", Mips_obs.Sink.Text); ("jsonl", Mips_obs.Sink.Jsonl) ])
        Mips_obs.Sink.Text
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:"Trace encoding: $(b,text) (one readable line per event) or \
              $(b,jsonl) (one JSON object per line).")

let stats_json_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write execution statistics as JSON to $(docv) ($(b,-) for \
           standard output).")

(* an out_channel destination plus the cleanup it needs *)
let open_dest = function
  | "-" -> (stdout, fun () -> flush stdout)
  | "stderr" -> (stderr, fun () -> flush stderr)
  | path -> (
      match open_out path with
      | oc -> (oc, fun () -> close_out oc)
      | exception Sys_error msg ->
          Printf.eprintf "mipsc: cannot open %s: %s\n" path msg;
          exit Exit_code.usage)

let write_json dest json =
  let oc, close = open_dest dest in
  output_string oc (Mips_obs.Json.to_string json);
  output_char oc '\n';
  close ()

(* host-side tracing: a span tracer over wall time, one lane per worker
   domain, exported as Chrome trace-event JSON *)
let host_trace_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "host-trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of the host-side phases (compile, \
           simulate, per-worker jobs) to $(docv) ($(b,-) for standard \
           output) — load it in Perfetto or chrome://tracing.")

let make_tracer ~lanes = function
  | None -> Mips_obs.Span.no_tracer
  | Some _ -> Mips_obs.Span.tracer ~clock:Unix.gettimeofday ~lanes ()

let write_host_trace ~process tracer = function
  | None -> ()
  | Some dest ->
      write_json dest
        (Mips_obs.Span.to_chrome ~process (Mips_obs.Span.tracer_spans tracer))

let engine_flag =
  Arg.(
    value
    & opt
        (enum
           [ ("ref", Mips_machine.Cpu.Ref); ("fast", Mips_machine.Cpu.Fast);
             ("jit", Mips_machine.Cpu.Jit) ])
        Mips_machine.Cpu.Ref
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,ref) (the reference interpreter, default),            $(b,fast) (the predecoded closure engine — bit-identical            results, including statistics) or $(b,jit) (the trace \
           compiler: hot basic blocks become fused closures — bit-identical \
           results, fastest steady state).")

let fuel_flag =
  Arg.(
    value
    & opt int 500_000_000
    & info [ "fuel" ] ~docv:"STEPS"
        ~doc:
          "Maximum machine steps to execute; the run exits with the \
           out-of-fuel status when the budget is exhausted.")

(* checkpoint/restore flags for `run` and `soak` *)
let checkpoint_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write a resumable checkpoint (versioned, checksummed) to $(docv) \
           as the run progresses; a crash mid-write never leaves a torn \
           file.")

let checkpoint_every_flag default =
  Arg.(
    value & opt int default
    & info [ "checkpoint-every" ] ~docv:"STEPS"
        ~doc:
          (Printf.sprintf
             "Machine steps between checkpoints under $(b,--checkpoint) \
              (default %d).  Slicing never changes results." default))

let resume_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from a checkpoint written by the $(i,same) invocation \
           (parameters are compared byte-for-byte).  The completed run is \
           bit-identical to one that was never interrupted.")

(* fault-injection flags for `run` *)
let fault_seed_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:
          "Subject the run to transient fault injection with this plan seed \
           (flaky-memory restarts and spurious interrupts — the transparent \
           kinds, so program output must be unchanged).")

let fault_rate_flag =
  Arg.(
    value
    & opt float 0.001
    & info [ "fault-rate" ] ~docv:"R"
        ~doc:
          "Per-step injection probability under $(b,--fault-seed) (default \
           0.001).")

(* `run --remote` ships the request to a mipsd daemon instead of executing
   locally.  Guest output, the fault line and the exit code behave exactly
   like a local run; daemon-side failures map to the standardized codes
   (6 connect, 7 shed, 8 protocol, 3 quota kill). *)
let remote_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"SOCKET"
        ~doc:
          "Execute on the mipsd daemon listening on $(docv) instead of in \
           process.  Local-only flags (--trace, --stats, --checkpoint, \
           --resume, --fault-seed) do not combine with $(docv).")

let remote_tenant_flag =
  Arg.(
    value & opt string "mipsc"
    & info [ "tenant" ] ~docv:"NAME"
        ~doc:"Tenant to bill a $(b,--remote) run to (default $(b,mipsc)).")

let run_remote ~socket ~tenant ~src ~byte ~early_out ~level ~input ~fuel
    ~engine =
  let req =
    Mips_daemon.Protocol.Run
      {
        tenant;
        session = None;
        source = src;
        cg = { Mips_daemon.Protocol.byte; early_out; level };
        input;
        fuel;
        engine = Mips_machine.Cpu.engine_name engine;
      }
  in
  match Remote.request_or_die ~prog:"mipsc" socket req with
  | Mips_daemon.Protocol.Ran r -> Remote.finish_run ~prog:"mipsc" r
  | _ ->
      Printf.eprintf "mipsc: unexpected response to run\n";
      exit Exit_code.protocol

let run_cmd =
  let run file byte early_out level input stats trace trace_format stats_json
      fault_seed fault_rate engine fuel jobs checkpoint checkpoint_every
      resume host_trace remote tenant =
    apply_jobs jobs;
    let config = Mips_ir.Config.of_flags ~byte ~early_out in
    let src = read_source file in
    (match remote with
    | Some socket ->
        if
          stats || trace <> None || stats_json <> None || fault_seed <> None
          || checkpoint <> None || resume <> None || host_trace <> None
        then begin
          Printf.eprintf
            "mipsc: --remote does not combine with --stats/--trace/\
             --stats-json/--fault-seed/--checkpoint/--resume/--host-trace\n";
          exit Exit_code.usage
        end;
        run_remote ~socket ~tenant ~src ~byte ~early_out ~level ~input ~fuel
          ~engine
    | None -> ());
    let input =
      if input = "" then
        match Mips_corpus.Corpus.find file with
        | e -> e.Mips_corpus.Corpus.input
        | exception Not_found -> ""
      else input
    in
    let trace_sink, trace_close =
      match trace with
      | None -> (Mips_obs.Sink.null, fun () -> ())
      | Some dest ->
          let oc, close = open_dest dest in
          (Mips_obs.Sink.to_channel trace_format oc, close)
    in
    let fault_plan =
      Option.map
        (fun seed ->
          Mips_fault.Plan.make
            { Mips_fault.Plan.quiet with
              Mips_fault.Plan.seed;
              flaky_rate = fault_rate;
              irq_rate = fault_rate /. 2. })
        fault_seed
    in
    let tracer = make_tracer ~lanes:1 host_trace in
    let sp = Mips_obs.Span.lane tracer 0 in
    let res, cpu =
      if checkpoint = None && resume = None && host_trace = None then
        Mips_codegen.Compile.run_with_machine ~config ~level:(Mips_reorg.Pipeline.of_rank level)
          ~fuel ~input ~trace:trace_sink ?fault_plan ~engine src
      else if checkpoint = None && resume = None then begin
        (* host-traced twin of [Compile.run_with_machine]: identical phases,
           each timed as a span so the trace separates compile from
           simulate *)
        let program =
          Mips_obs.Span.with_ sp "compile" (fun () ->
              Mips_codegen.Compile.compile ~config ~level:(Mips_reorg.Pipeline.of_rank level) src)
        in
        let cpu =
          Mips_machine.Cpu.create
            ~config:(Mips_codegen.Compile.machine_config config) ()
        in
        Mips_machine.Cpu.set_trace cpu trace_sink;
        (match fault_plan with
        | Some plan -> Mips_machine.Cpu.set_fault_plan cpu plan
        | None -> ());
        let res =
          Mips_obs.Span.with_ sp "simulate" (fun () ->
              Mips_machine.Hosted.run_program_on ~fuel ~input ~engine cpu
                program)
        in
        (res, cpu)
      end
      else begin
        (* the checkpointed twin of [Compile.run_with_machine]: same compile,
           same machine setup, but the hosted loop runs in slices and saves
           machine + host state at each boundary.  The meta section pins
           everything the run depends on; a resume against different
           arguments is refused rather than silently diverging. *)
        let module Snapshot = Mips_resilience.Snapshot in
        let meta =
          let open Snapshot.Io.W in
          let b = create () in
          str b (Digest.string src);
          bool b byte;
          bool b early_out;
          int b level;
          str b (Mips_machine.Cpu.engine_name engine);
          str b (Digest.string input);
          int b fuel;
          opt int b fault_seed;
          float b fault_rate;
          contents b
        in
        let program =
          Mips_obs.Span.with_ sp "compile" (fun () ->
              Mips_codegen.Compile.compile ~config ~level:(Mips_reorg.Pipeline.of_rank level) src)
        in
        let cpu =
          Mips_machine.Cpu.create
            ~config:(Mips_codegen.Compile.machine_config config) ()
        in
        if Mips_obs.Sink.enabled trace_sink then
          Mips_machine.Cpu.set_trace cpu trace_sink;
        (match fault_plan with
        | Some plan -> Mips_machine.Cpu.set_fault_plan cpu plan
        | None -> ());
        Mips_machine.Cpu.load_program cpu program;
        let resume_state =
          match resume with
          | None -> None
          | Some path -> (
              match Snapshot.restore_hosted ~kind:"run" ~meta cpu path
              with
              | Ok h ->
                  if Mips_obs.Sink.enabled trace_sink then
                    Mips_obs.Sink.emit trace_sink
                      (Mips_obs.Event.Checkpoint_restore
                         { path; phase = "run";
                           steps = fuel - h.Mips_machine.Hosted.h_fuel_left });
                  Some h
              | Error e ->
                  Printf.eprintf "mipsc: cannot resume from %s: %s\n" path
                    (Snapshot.error_to_string e);
                  exit Exit_code.checkpoint)
        in
        let ckpt =
          Option.map
            (fun path ->
              ( checkpoint_every,
                fun (h : Mips_machine.Hosted.host_state) ->
                  let data =
                    Snapshot.hosted_checkpoint ~kind:"run" ~meta cpu h
                  in
                  (try Snapshot.write_file path data
                   with Sys_error msg ->
                     Printf.eprintf "mipsc: cannot write checkpoint %s: %s\n"
                       path msg;
                     exit Exit_code.checkpoint);
                  if Mips_obs.Sink.enabled trace_sink then
                    Mips_obs.Sink.emit trace_sink
                      (Mips_obs.Event.Checkpoint_write
                         { path; phase = "run";
                           steps = fuel - h.Mips_machine.Hosted.h_fuel_left;
                           bytes = String.length data }) ))
            checkpoint
        in
        let fuel =
          match resume_state with
          | Some h -> h.Mips_machine.Hosted.h_fuel_left
          | None -> fuel
        in
        let res =
          Mips_obs.Span.with_ sp "simulate" (fun () ->
              Mips_machine.Hosted.run ~fuel ~input ~engine ?resume:resume_state
                ?checkpoint:ckpt cpu)
        in
        (res, cpu)
      end
    in
    Mips_obs.Sink.flush trace_sink;
    trace_close ();
    write_host_trace ~process:"mipsc run" tracer host_trace;
    print_string res.Mips_machine.Hosted.output;
    (match res.Mips_machine.Hosted.fault with
    | Some (c, d) ->
        Printf.eprintf "fault: %s (%d)\n" (Mips_machine.Cause.name c) d
    | None -> ());
    (match fault_plan with
    | Some plan ->
        Printf.eprintf "faults: %d injected, %d transient restarts\n"
          (Mips_fault.Plan.injected plan) res.Mips_machine.Hosted.retries
    | None -> ());
    if stats then Format.eprintf "%a@." Mips_machine.Stats.pp (Mips_machine.Cpu.stats cpu);
    (match stats_json with
    | Some dest ->
        write_json dest (Mips_machine.Stats.to_json (Mips_machine.Cpu.stats cpu))
    | None -> ());
    if (Mips_machine.Cpu.stats cpu).Mips_machine.Stats.fuel_exhausted then begin
      prerr_endline "mipsc: out of fuel (execution did not complete)";
      exit Exit_code.out_of_fuel
    end;
    exit (Option.value ~default:0 res.Mips_machine.Hosted.exit_status)
  in
  Cmd.v
    (Cmd.info "run" ~exits:Exit_code.infos
       ~doc:"Compile and execute a program on the simulator.")
    Term.(
      const run $ file_arg $ byte_flag $ early_flag $ level_flag $ input_flag
      $ stats_flag $ trace_flag $ trace_format_flag $ stats_json_flag
      $ fault_seed_flag $ fault_rate_flag $ engine_flag $ fuel_flag
      $ jobs_flag
      $ checkpoint_flag $ checkpoint_every_flag 1_000_000 $ resume_flag
      $ host_trace_flag $ remote_flag $ remote_tenant_flag)

let compile_cmd =
  let compile file byte early_out level =
    let config = Mips_ir.Config.of_flags ~byte ~early_out in
    let p =
      Mips_codegen.Compile.compile ~config ~level:(Mips_reorg.Pipeline.of_rank level)
        (read_source file)
    in
    Format.printf "%a@." Mips_machine.Program.pp_listing p;
    Format.printf "; %d instruction words@." (Mips_machine.Program.static_count p)
  in
  Cmd.v (Cmd.info "compile" ~exits:Exit_code.infos ~doc:"Compile and print the final machine listing.")
    Term.(const compile $ file_arg $ byte_flag $ early_flag $ level_flag)

let asm_cmd =
  let asm file byte early_out =
    let config = Mips_ir.Config.of_flags ~byte ~early_out in
    let a = Mips_codegen.Compile.to_asm ~config (read_source file) in
    Format.printf "%a@." Mips_reorg.Asm.pp a
  in
  Cmd.v (Cmd.info "asm" ~exits:Exit_code.infos ~doc:"Print the symbolic assembly before the reorganizer.")
    Term.(const asm $ file_arg $ byte_flag $ early_flag)

let levels_cmd =
  let levels file byte =
    let config = Mips_ir.Config.of_flags ~byte ~early_out:false in
    let asm = Mips_codegen.Compile.to_asm ~config (read_source file) in
    List.iter
      (fun level ->
        let p = Mips_reorg.Pipeline.compile ~level asm in
        Format.printf "%-24s %6d words@."
          (Mips_reorg.Pipeline.level_name level)
          (Mips_machine.Program.static_count p))
      Mips_reorg.Pipeline.all_levels
  in
  Cmd.v
    (Cmd.info "levels" ~exits:Exit_code.infos ~doc:"Static instruction counts at each postpass level.")
    Term.(const levels $ file_arg $ byte_flag)

let profile_cmd =
  let profile file byte early_out level input top json =
    let config = Mips_ir.Config.of_flags ~byte ~early_out in
    let src = read_source file in
    let input =
      if input = "" then
        match Mips_corpus.Corpus.find file with
        | e -> e.Mips_corpus.Corpus.input
        | exception Not_found -> ""
      else input
    in
    let obs = Mips_obs.Metrics.create () in
    let _program =
      Mips_codegen.Compile.compile_profiled ~config ~level:(Mips_reorg.Pipeline.of_rank level) ~obs
        src
    in
    (* execute raw program-order code on the hardware-interlock comparison
       machine: there the stalls are real, so every load-use pair the
       compiler emitted back-to-back shows up with a cycle count attached —
       the hazards the reorganizer's scheduling is in business to remove *)
    let raw =
      Mips_reorg.Pipeline.compile_raw (Mips_codegen.Compile.to_asm ~config src)
    in
    let machine_config =
      { (Mips_codegen.Compile.machine_config config) with
        Mips_machine.Cpu.interlock = true }
    in
    let cpu = Mips_machine.Cpu.create ~config:machine_config () in
    let res = Mips_machine.Hosted.run_program_on ~fuel:500_000_000 ~input cpu raw in
    let stats = Mips_machine.Cpu.stats cpu in
    let pairs = Mips_machine.Stats.stall_pairs stats in
    let top_pairs =
      List.filteri (fun i _ -> i < top) pairs
      |> List.map (fun ((producer_pc, consumer_pc), stalls) ->
             let word_at pc =
               Format.asprintf "%a" Mips_isa.Word.pp_abs
                 (Mips_machine.Cpu.read_code cpu pc)
             in
             (producer_pc, word_at producer_pc, consumer_pc, word_at consumer_pc, stalls))
    in
    if json then
      print_endline
        (Mips_obs.Json.to_string
           (Mips_obs.Json.Obj
              [ ("program", Mips_obs.Json.Str file);
                ("compile", Mips_obs.Metrics.to_json obs);
                ("execution", Mips_machine.Stats.to_json stats);
                ( "top_stall_pairs",
                  Mips_obs.Json.List
                    (List.map
                       (fun (ppc, pw, cpc, cw, stalls) ->
                         Mips_obs.Json.Obj
                           [ ("producer_pc", Mips_obs.Json.Int ppc);
                             ("producer", Mips_obs.Json.Str pw);
                             ("consumer_pc", Mips_obs.Json.Int cpc);
                             ("consumer", Mips_obs.Json.Str cw);
                             ("stalls", Mips_obs.Json.Int stalls) ])
                       top_pairs) ) ]))
    else begin
      Format.printf "=== compile phases (%s) ===@." file;
      List.iter
        (fun (name, seconds, calls) ->
          Format.printf "%-32s %9.3f ms  (%d call%s)@." name (1000. *. seconds)
            calls
            (if calls = 1 then "" else "s"))
        (Mips_obs.Metrics.timers obs);
      Format.printf "@.=== reorganizer counters ===@.";
      List.iter
        (fun (name, v) -> Format.printf "%-32s %8d@." name v)
        (Mips_obs.Metrics.counters obs);
      Format.printf
        "@.=== raw code on the interlocked machine (%d cycles, %d stalls) ===@."
        stats.Mips_machine.Stats.cycles stats.Mips_machine.Stats.stall_cycles;
      Format.printf "load-use stalls %d, branch-latency stalls %d@."
        stats.Mips_machine.Stats.load_use_stall_cycles
        stats.Mips_machine.Stats.branch_stall_cycles;
      if pairs = [] then
        Format.printf "no load-use stall pairs: every load already sits apart \
                       from its consumer@."
      else begin
        Format.printf "@.top stall-causing instruction pairs:@.";
        List.iter
          (fun (ppc, pw, cpc, cw, stalls) ->
            Format.printf "%6d stalls  %6d: %-34s -> %6d: %s@." stalls ppc pw
              cpc cw)
          top_pairs
      end;
      if not res.Mips_machine.Hosted.halted then
        Format.printf "(program ran out of fuel)@."
    end
  in
  let compile_profile_term =
    Term.(
      const profile $ file_arg $ byte_flag $ early_flag $ level_flag
      $ input_flag
      $ Arg.(
          value & opt int 10
          & info [ "top" ] ~docv:"N" ~doc:"How many stall pairs to show.")
      $ Arg.(value & flag & info [ "json" ] ~doc:"Emit the profile as JSON."))
  in
  (* `profile run`: execute with guest profiling armed and fold the per-PC
     counters into blocks, edges and fusion-candidate pairs.  The cycle
     attribution is exact — it sums back to the run's Stats totals — and
     profiling never perturbs the Stats themselves. *)
  let profile_run_cmd =
    let prun file byte early_out level interlock input engine fuel hot flame
        speedscope json host_trace =
      let config = Mips_ir.Config.of_flags ~byte ~early_out in
      let src = read_source file in
      let input =
        if input = "" then
          match Mips_corpus.Corpus.find file with
          | e -> e.Mips_corpus.Corpus.input
          | exception Not_found -> ""
        else input
      in
      let tracer = make_tracer ~lanes:1 host_trace in
      let sp = Mips_obs.Span.lane tracer 0 in
      (* --interlock profiles raw program-order code on the hardware-interlock
         machine (the same pairing as the stall-pair table above): stalls are
         real there, so the attribution's stall column and the load+use pair
         table fill in, where delayed-mode schedules keep both empty. *)
      let program =
        Mips_obs.Span.with_ sp "compile" (fun () ->
            if interlock then
              Mips_reorg.Pipeline.compile_raw
                (Mips_codegen.Compile.to_asm ~config src)
            else Mips_codegen.Compile.compile ~config ~level:(Mips_reorg.Pipeline.of_rank level) src)
      in
      let machine_config =
        let c = Mips_codegen.Compile.machine_config config in
        if interlock then { c with Mips_machine.Cpu.interlock = true } else c
      in
      let cpu = Mips_machine.Cpu.create ~config:machine_config () in
      Mips_machine.Cpu.set_profiling cpu true;
      let res =
        Mips_obs.Span.with_ sp "simulate" (fun () ->
            Mips_machine.Hosted.run_program_on ~fuel ~input ~engine cpu
              program)
      in
      let stats = Mips_machine.Cpu.stats cpu in
      let prof =
        Mips_obs.Span.with_ sp "capture" (fun () ->
            Mips_profile.capture ~program:file cpu)
      in
      (match flame with
      | Some dest ->
          let oc, close = open_dest dest in
          output_string oc (Mips_profile.folded prof);
          close ()
      | None -> ());
      (match speedscope with
      | Some dest -> write_json dest (Mips_profile.speedscope prof)
      | None -> ());
      write_host_trace ~process:"mipsc profile run" tracer host_trace;
      if json then
        print_endline
          (Mips_obs.Json.to_string
             (Mips_obs.Json.Obj
                [ ("program", Mips_obs.Json.Str file);
                  ("stats", Mips_machine.Stats.to_json stats);
                  ("profile", Mips_profile.to_json prof) ]))
      else begin
        Format.printf "%a@." (Mips_profile.pp_hotspots ~top:hot) prof;
        Format.printf "@.%a@." (Mips_profile.pp_edges ~top:hot) prof;
        Format.printf "@.%a@." (Mips_profile.pp_pairs ~top:hot) prof;
        Format.printf
          "@.attribution: %d cycles = %d issue + %d stall + %d shadow + %d \
           other@.stats:       %d cycles = %d words + %d stall@."
          (Mips_profile.total_cycles prof)
          prof.Mips_profile.total_issue prof.Mips_profile.total_stall
          prof.Mips_profile.total_shadow prof.Mips_profile.other_cycles
          stats.Mips_machine.Stats.cycles stats.Mips_machine.Stats.words
          stats.Mips_machine.Stats.stall_cycles;
        if not res.Mips_machine.Hosted.halted then
          Format.printf "(program ran out of fuel)@."
      end
    in
    Cmd.v
      (Cmd.info "run" ~exits:Exit_code.infos
         ~doc:
           "Execute a program with guest profiling armed: ranked hot blocks \
            with an exact issue/stall/shadow cycle attribution, taken edges, \
            fusion-candidate adjacent pairs, and flamegraph/speedscope \
            exports.")
      Term.(
        const prun $ file_arg $ byte_flag $ early_flag $ level_flag
        $ Arg.(
            value & flag
            & info [ "interlock" ]
                ~doc:
                  "Profile raw program-order code on the hardware-interlock \
                   machine: real stall cycles land in the attribution and \
                   load+use pairs appear in the fusion table.")
        $ input_flag $ engine_flag $ fuel_flag
        $ Arg.(
            value & opt int 10
            & info [ "hot" ] ~docv:"N"
                ~doc:"How many blocks/edges/pairs to show.")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "flame" ] ~docv:"FILE"
                ~doc:
                  "Write folded-stack flamegraph text to $(docv) ($(b,-) for \
                   standard output).")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "speedscope" ] ~docv:"FILE"
                ~doc:
                  "Write a speedscope JSON profile to $(docv) ($(b,-) for \
                   standard output).")
        $ Arg.(value & flag & info [ "json" ] ~doc:"Emit the profile as JSON.")
        $ host_trace_flag)
  in
  (* `profile compile FILE` is the explicit spelling of the default term;
     the legacy `profile FILE` spelling is kept working by the argv rewrite
     at the entry point (a cmdliner group treats a bare positional after
     the group name as a subcommand lookup). *)
  let profile_compile_cmd =
    Cmd.v
      (Cmd.info "compile" ~exits:Exit_code.infos
         ~doc:
           "Per-phase compile times, reorganizer pass statistics, and the \
            top stall-causing instruction pairs on the hardware-interlock \
            machine (the default when no subcommand is given).")
      compile_profile_term
  in
  Cmd.group ~default:compile_profile_term
    (Cmd.info "profile" ~exits:Exit_code.infos
       ~doc:
         "Per-phase compile times, reorganizer pass statistics, and the top \
          stall-causing instruction pairs on the hardware-interlock machine; \
          $(b,profile run) executes with guest profiling.")
    [ profile_run_cmd; profile_compile_cmd ]

let corpus_cmd =
  let corpus name jobs =
    apply_jobs jobs;
    let entries =
      match name with
      | Some n -> [ Mips_corpus.Corpus.find n ]
      | None -> Mips_corpus.Corpus.all
    in
    (* simulate in parallel (sharing the artifact cache with any later
       consumer), print in corpus order *)
    let outputs =
      Mips_par.map
        (fun (e : Mips_corpus.Corpus.entry) ->
          (Mips_artifact.entry_sim e).Mips_artifact.result
            .Mips_machine.Hosted.output)
        entries
    in
    List.iter2
      (fun (e : Mips_corpus.Corpus.entry) output ->
        Printf.printf "--- %s: %s\n%!" e.Mips_corpus.Corpus.name
          e.Mips_corpus.Corpus.description;
        print_string output)
      entries outputs
  in
  Cmd.v (Cmd.info "corpus" ~exits:Exit_code.infos ~doc:"Run corpus programs.")
    Term.(
      const corpus
      $ Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Corpus program (all when omitted).")
      $ jobs_flag)

let soak_cmd =
  let soak seed steps programs segments quantum watchdog flip_rate
      data_flip_rate irq_rate page_drop_rate flaky_rate differential engine
      json jobs checkpoint checkpoint_every resume stats_json host_trace =
    apply_jobs jobs;
    let tracer = make_tracer ~lanes:1 host_trace in
    let sp = Mips_obs.Span.lane tracer 0 in
    let plan =
      {
        Mips_fault.Plan.seed;
        flip_reg_rate = flip_rate;
        flip_data_rate = data_flip_rate;
        irq_rate;
        page_drop_rate;
        flaky_rate;
        max_injections = 0;
      }
    in
    let metrics = Mips_obs.Metrics.create () in
    let breaker = Supervise.default_breaker () in
    (* one runner with or without --checkpoint/--resume (it writes nothing
       when [checkpoint] is None), the same one a mipsd soak session uses *)
    let s, diffs =
      match
        Mips_obs.Span.with_ sp "soak" (fun () ->
            Mips_soak.Soak.run_checkpointed ~programs ?segments ~quantum
              ?watchdog ~steps ~diff_count:differential ?checkpoint
              ~checkpoint_every ?resume ~metrics ~breaker ~engine ~plan ~seed
              ())
      with
      | Ok (Mips_soak.Soak.Complete (s, diffs)) -> (s, diffs)
      | Ok Mips_soak.Soak.Interrupted ->
          (* unreachable without the in-process max_slices test hook *)
          assert false
      | Error e ->
          Printf.eprintf "mipsc: checkpoint error: %s\n"
            (Mips_resilience.Snapshot.error_to_string e);
          exit Exit_code.checkpoint
    in
    let diverged =
      List.filter (fun d -> not d.Mips_soak.Soak.ok) diffs
    in
    if json then
      print_endline
        (Mips_obs.Json.to_string (Mips_soak.Soak.result_json s diffs))
    else begin
      Printf.printf "=== kernel soak (seed %d, %d programs, %d steps) ===\n"
        seed s.Mips_soak.Soak.programs s.Mips_soak.Soak.steps;
      Printf.printf "exited %d, killed %d, live %d%s\n"
        s.Mips_soak.Soak.exited s.Mips_soak.Soak.killed s.Mips_soak.Soak.live
        (if s.Mips_soak.Soak.fuel_exhausted then " (out of fuel)" else "");
      List.iter
        (fun (reason, n) -> Printf.printf "  killed by %s: %d\n" reason n)
        s.Mips_soak.Soak.kill_reasons;
      Printf.printf "injected:";
      List.iter
        (fun (kind, n) -> if n > 0 then Printf.printf " %s %d" kind n)
        s.Mips_soak.Soak.injected;
      print_newline ();
      Printf.printf
        "transient faults %d (retried %d), watchdog kills %d, double faults \
         %d, oom kills %d\n"
        s.Mips_soak.Soak.transient_faults s.Mips_soak.Soak.transient_retries
        s.Mips_soak.Soak.watchdog_kills s.Mips_soak.Soak.double_faults
        s.Mips_soak.Soak.oom_kills;
      Printf.printf "page faults %d, switches %d, %d cycles\n"
        s.Mips_soak.Soak.page_faults s.Mips_soak.Soak.switches
        s.Mips_soak.Soak.total_cycles;
      if differential > 0 then begin
        Printf.printf
          "=== differential (%d programs, raw vs reorganized, faulted) ===\n"
          differential;
        Printf.printf "%d equivalent, %d diverged\n"
          (List.length diffs - List.length diverged)
          (List.length diverged);
        List.iter
          (fun (d : Mips_soak.Soak.diff) ->
            List.iter
              (fun (v, m) ->
                Printf.printf "  seed %d, %s: %s\n" d.Mips_soak.Soak.seed v m)
              d.Mips_soak.Soak.mismatches)
          diverged
      end
    end;
    (* resilience counters go to their own file, never into the soak JSON —
       kill/resume byte-identity is checked on the main output *)
    (match stats_json with
    | Some dest ->
        write_json dest (Supervise.stats_json ~breaker ~metrics)
    | None -> ());
    write_host_trace ~process:"mipsc soak" tracer host_trace;
    if diverged <> [] then exit Exit_code.divergence
  in
  Cmd.v
    (Cmd.info "soak" ~exits:Exit_code.infos
       ~doc:
         "Seeded fault-injection soak: generated programs under a hardened \
          kernel with transient faults, plus a raw-vs-reorganized \
          differential check.  Bit-for-bit deterministic for a given seed; \
          exits 4 when a differential run diverges.")
    Term.(
      const soak
      $ Arg.(
          value & opt int 1
          & info [ "seed" ] ~docv:"N" ~doc:"Master seed for programs and fault plan.")
      $ Arg.(
          value & opt int 2_000_000
          & info [ "steps" ] ~docv:"K" ~doc:"Kernel-run fuel in machine steps.")
      $ Arg.(
          value & opt int 8
          & info [ "programs" ] ~docv:"N" ~doc:"Generated processes to spawn.")
      $ Arg.(
          value & opt (some int) (Some 48)
          & info [ "segments" ] ~docv:"N" ~doc:"Size of each generated program.")
      $ Arg.(
          value & opt int 500
          & info [ "quantum" ] ~docv:"CYCLES" ~doc:"Scheduler quantum.")
      $ Arg.(
          value & opt (some int) None
          & info [ "watchdog" ] ~docv:"CYCLES"
              ~doc:"Per-process cycle budget (unlimited when omitted).")
      $ Arg.(
          value & opt float 0.002
          & info [ "flip-rate" ] ~docv:"R" ~doc:"Register bit-flip rate per step.")
      $ Arg.(
          value & opt float 0.002
          & info [ "data-flip-rate" ] ~docv:"R" ~doc:"Data-word bit-flip rate per step.")
      $ Arg.(
          value & opt float 0.002
          & info [ "irq-rate" ] ~docv:"R" ~doc:"Spurious-interrupt rate per step.")
      $ Arg.(
          value & opt float 0.002
          & info [ "page-drop-rate" ] ~docv:"R"
              ~doc:"Clean page-mapping drop rate per step.")
      $ Arg.(
          value & opt float 0.005
          & info [ "flaky-rate" ] ~docv:"R"
              ~doc:"Flaky-memory (transient load/store fault) rate per step.")
      $ Arg.(
          value & opt int 8
          & info [ "differential" ] ~docv:"N"
              ~doc:
                "Also run $(docv) raw-vs-reorganized differential programs \
                 under transparent faults (0 to disable).")
      $ engine_flag
      $ Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as JSON.")
      $ jobs_flag $ checkpoint_flag $ checkpoint_every_flag 250_000
      $ resume_flag
      $ Arg.(
          value
          & opt (some string) None
          & info [ "stats-json" ] ~docv:"FILE"
              ~doc:
                "Write the resilience counters (supervision, checkpoints) as \
                 JSON to $(docv) ($(b,-) for standard output) — kept out of \
                 the main summary so checkpointed output stays comparable.")
      $ host_trace_flag)

let report_cmd =
  let report with_benchmarks json jobs inject_poison stats_json hotspots
      host_trace =
    apply_jobs jobs;
    (* one tracer lane per worker domain: the prepare span on lane 0 nests
       over the jobs worker 0 ran, and every spawned domain gets its own
       lane — the Perfetto view of the fan-out *)
    let tracer =
      make_tracer
        ~lanes:(match jobs with Some n -> max 1 n | None -> Mips_par.default_jobs ())
        host_trace
    in
    let sp = Mips_obs.Span.lane tracer 0 in
    (* the warm-up is one supervised map: a failing artifact job is
       retried, quarantined and attributed in its outcome, and the tables
       still render from whatever warmed.  The breaker only counts the
       quarantines for --stats-json; no later map consults it.  On a
       healthy run this is byte-identical to the plain warm-up. *)
    let metrics = Mips_obs.Metrics.create () in
    let breaker = Supervise.default_breaker () in
    let outcomes =
      Mips_obs.Span.with_ sp "prepare" (fun () ->
          Mips_analysis.Report.prepare_supervised
            ~include_heavy:with_benchmarks ~inject_poison ~breaker ~metrics
            ~tracer ())
    in
    let failed = Supervise.failures outcomes in
    Mips_obs.Span.with_ sp "render" (fun () ->
        if json then begin
          let j =
            Mips_analysis.Report.json_all ~include_heavy:with_benchmarks ()
          in
          let j =
            if hotspots then
              match j with
              | Mips_obs.Json.Obj kvs ->
                  Mips_obs.Json.Obj
                    (kvs
                    @ [ ("hotspots", Mips_analysis.Report.json_hotspots ()) ])
              | other -> other
            else j
          in
          Format.printf "%a@." Mips_obs.Json.pp j
        end
        else begin
          Mips_analysis.Report.print_all ~include_heavy:with_benchmarks
            Format.std_formatter;
          if hotspots then
            Mips_analysis.Report.hotspots Format.std_formatter
        end);
    write_host_trace ~process:"mipsc report" tracer host_trace;
    let error (o : unit Supervise.outcome) =
      match o.result with Error e -> e | Ok () -> "ok"
    in
    List.iter
      (fun (o : unit Supervise.outcome) ->
        Printf.eprintf "mipsc: job %s failed after %d attempt%s: %s\n" o.label
          o.attempts (if o.attempts = 1 then "" else "s") (error o))
      failed;
    match stats_json with
    | None -> ()
    | Some dest ->
        let c = Mips_artifact.counters () in
        write_json dest
          (Mips_obs.Json.Obj
             [ ("supervision", Supervise.stats_json ~breaker ~metrics);
               ( "failures",
                 Mips_obs.Json.List
                   (List.map
                      (fun (o : unit Supervise.outcome) ->
                        Mips_obs.Json.Obj
                          [ ("label", Mips_obs.Json.Str o.label);
                            ("attempts", Mips_obs.Json.Int o.attempts);
                            ("error", Mips_obs.Json.Str (error o)) ])
                      failed) );
               ( "artifact_cache",
                 Mips_obs.Json.Obj
                   [ ("hits", Mips_obs.Json.Int c.Mips_artifact.hits);
                     ("misses", Mips_obs.Json.Int c.Mips_artifact.misses);
                     ("corrupt", Mips_obs.Json.Int c.Mips_artifact.corrupt) ]
               ) ])
  in
  Cmd.v
    (Cmd.info "report" ~exits:Exit_code.infos
       ~doc:"Regenerate every table and figure of the paper's evaluation.")
    Term.(
      const report
      $ Arg.(
          value & flag
          & info [ "with-benchmarks" ]
              ~doc:
                "Include the Table 11 benchmark trio in the dynamic                  reference-pattern corpus.")
      $ Arg.(
          value & flag
          & info [ "json" ]
              ~doc:
                "Emit every table as one JSON object (machine-readable twin \
                 of the text report).")
      $ jobs_flag
      $ Arg.(
          value & opt_all string []
          & info [ "inject-poison" ] ~docv:"LABEL"
              ~doc:
                "Prepend an always-failing warm-up job with this label \
                 (repeatable) — exercises retry and quarantine; the report \
                 still completes, unchanged, with the failure attributed \
                 under $(b,--stats-json).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "stats-json" ] ~docv:"FILE"
              ~doc:
                "Write supervision outcomes, failures and artifact-cache \
                 counters as JSON to $(docv) ($(b,-) for standard output).")
      $ Arg.(
          value & flag
          & info [ "hotspots" ]
              ~doc:
                "Append guest hot-block tables (per-program profile on the \
                 fast engine) to the report; under $(b,--json) they join the \
                 object as a $(b,hotspots) key.")
      $ host_trace_flag)

let () =
  Mips_jit.install ();
  let doc = "compiler, reorganizer and simulator for the MIPS tradeoffs reproduction" in
  (* `profile FILE ...` predates `profile` growing subcommands; a cmdliner
     group resolves the token right after the group name as a subcommand,
     so route the legacy spelling through the explicit `compile` one. *)
  let argv =
    let a = Sys.argv in
    if
      Array.length a >= 3
      && a.(1) = "profile"
      && a.(2) <> "run" && a.(2) <> "compile"
      && String.length a.(2) > 0
      && a.(2).[0] <> '-'
    then
      Array.concat
        [ [| a.(0); "profile"; "compile" |]; Array.sub a 2 (Array.length a - 2) ]
    else a
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group (Cmd.info "mipsc" ~version:"1.0.0" ~exits:Exit_code.infos ~doc)
          [ run_cmd; compile_cmd; asm_cmd; levels_cmd; profile_cmd; corpus_cmd; soak_cmd;
            report_cmd ]))
