(* The traced run's two products: a self-time table of the workload's own
   spans, and the per-layer metrics, measured by probes that call each
   layer's public functions with a wall clock around them.  Nothing inside
   the layers is instrumented; the probes are the same in every workload's
   traced run, so a per-layer number means the same thing wherever it is
   read. *)

open Workloads
module Stats = Mips_machine.Stats

(* --- self time ------------------------------------------------------------ *)

type self_row = { name : string; lane : int; self_s : float; count : int }

(* A span's self time is its duration minus that of its direct children.
   Spans come sorted by start, and a parent before a child that starts on
   the same clock tick, so a span's parent is the latest span one level up
   on its lane. *)
let self_times (spans : Span.span list) =
  let spans = Array.of_list spans in
  let self = Array.map (fun s -> s.Span.sp_dur) spans in
  let last = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Span.span) ->
      (if s.sp_depth > 0 then
         match Hashtbl.find_opt last (s.sp_lane, s.sp_depth - 1) with
         | Some p -> self.(p) <- self.(p) -. s.sp_dur
         | None -> ());
      Hashtbl.replace last (s.sp_lane, s.sp_depth) i)
    spans;
  let rows = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Span.span) ->
      let key = (s.sp_name, s.sp_lane) in
      let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt rows key) in
      Hashtbl.replace rows key (t +. self.(i), n + 1))
    spans;
  Hashtbl.fold
    (fun (name, lane) (self_s, count) acc -> { name; lane; self_s; count } :: acc)
    rows []
  |> List.sort (fun a b -> compare (a.lane, -.a.self_s) (b.lane, -.b.self_s))

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Each lane's self time by layer as a share of the traced wall time.  On
   each lane the self times of its spans sum to the time its root ["op"]
   spans cover; the root's own self time is what no layer span accounts
   for. *)
let print_self_times oc ~workload ~wall_s rows =
  Printf.fprintf oc "self time by layer, %s, traced wall %.3f s:\n" workload wall_s;
  let lanes = List.sort_uniq compare (List.map (fun r -> r.lane) rows) in
  List.iter
    (fun lane ->
      let mine = List.filter (fun r -> r.lane = lane) rows in
      let by_layer = Hashtbl.create 8 in
      List.iter
        (fun r ->
          let l = layer_of r.name in
          let t = Option.value ~default:0. (Hashtbl.find_opt by_layer l) in
          Hashtbl.replace by_layer l (t +. r.self_s))
        mine;
      let total = List.fold_left (fun a r -> a +. r.self_s) 0. mine in
      let unattributed =
        List.fold_left (fun a r -> if r.name = "op" then a +. r.self_s else a) 0. mine
      in
      let line indent name t =
        Printf.fprintf oc "  lane %d  %s%-*s %10.1f ms  %5.1f%%\n" lane indent
          (24 - String.length indent) name (1000. *. t) (100. *. t /. wall_s)
      in
      Hashtbl.fold (fun l t acc -> (l, t) :: acc) by_layer []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.iter (fun (l, t) ->
             line "" l t;
             match List.filter (fun r -> layer_of r.name = l && r.name <> l) mine with
             | [] -> ()
             | spans -> List.iter (fun r -> line "  " r.name r.self_s) spans);
      Printf.fprintf oc
        "  lane %d  spans cover %.1f%% of the traced wall; layers account for %.1f%%\n"
        lane (100. *. total /. wall_s) (100. *. (total -. unattributed) /. wall_s))
    lanes

(* --- probes ------------------------------------------------------------------ *)

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }
let median = Bench_stats.median
let median_ms n f = median (List.init n (fun _ -> snd (time_ms f)))

(* Front end, IR, code generation and the reorganizer, each timed over
   one pass of the corpus on the word machine; medians of five passes. *)
let compile_probes problems =
  let passes = 5 in
  let names =
    [ "frontend.ms"; "ir.ms"; "codegen.ms"; "codegen.regalloc_ms" ]
    @ List.map (fun (_, n) -> "reorg." ^ n ^ "_ms") levels
  in
  let samples = Hashtbl.create 16 in
  let add name ms =
    Hashtbl.replace samples name
      (ms +. Option.value ~default:0. (Hashtbl.find_opt samples name))
  in
  let filled = ref 0 and slots = ref 0 in
  let per_pass =
    List.init passes (fun pass ->
        Hashtbl.reset samples;
        List.iter
          (fun (e : Corpus.entry) ->
            let config = Config.default in
            let tast, t = time_ms (fun () -> Mips_frontend.Semant.check_string e.source) in
            add "frontend.ms" t;
            let ir, t = time_ms (fun () -> Mips_ir.Irgen.lower config tast) in
            add "ir.ms" t;
            let asm, t = time_ms (fun () -> Mips_codegen.Emit.emit_program config ir) in
            add "codegen.ms" t;
            let (), t =
              time_ms (fun () ->
                  List.iter
                    (fun f -> ignore (Mips_codegen.Regalloc.allocate f))
                    ir.Mips_ir.Irgen.funcs)
            in
            add "codegen.regalloc_ms" t;
            List.iter
              (fun (level, n) ->
                let (), t = time_ms (fun () -> ignore (Pipeline.compile ~level asm)) in
                add ("reorg." ^ n ^ "_ms") t)
              levels;
            if pass = 0 then
              match Pipeline.compile_with_stats asm with
              | _, Some st ->
                  let f = st.Mips_reorg.Delay.scheme1 + st.scheme2 + st.scheme3 in
                  filled := !filled + f;
                  slots := !slots + f + st.unfilled
              | _, None -> check problems "delay-slot statistics" false)
          Corpus.all;
        List.map (fun n -> (n, Hashtbl.find samples n)) names)
  in
  List.map
    (fun n -> m n "ms" (median (List.map (List.assoc n) per_pass)))
    names
  @ [ m "reorg.delay_fill_ratio" "ratio" (float_of_int !filled /. float_of_int !slots) ]

(* Host ns per executed word for each engine and guest program, on a warm
   machine: the median of three batches of about [probe_words] words.  The
   jit's warm-up time beyond what its runs would cost once warm is its
   compile overhead. *)
let probe_words = 200_000

let engine_probes problems =
  let guests = List.map (reference problems) guest_programs in
  let jit_warm = ref 0. in
  let rows =
    List.concat_map
      (fun engine ->
        List.map
          (fun g ->
            let mach, warm_ms = load_machine engine g in
            let reps = max 1 (probe_words / words g) in
            let batch () =
              for _ = 1 to reps do
                let r = run_machine engine mach in
                check problems ("probe run of " ^ g.entry.name)
                  (r.halted && String.equal r.output g.output)
              done
            in
            let per_run = median_ms 3 batch /. float_of_int reps in
            if engine = Cpu.Jit then
              jit_warm :=
                !jit_warm +. (warm_ms -. (float_of_int (warm_runs engine) *. per_run));
            m
              (Printf.sprintf "machine.ns_per_word.%s.%s" (Cpu.engine_name engine)
                 g.entry.name)
              "ns"
              (1e6 *. per_run /. float_of_int (words g)))
          guests)
      [ Cpu.Ref; Cpu.Fast; Cpu.Jit ]
  in
  let programs = List.map (fun g -> Mips_codegen.Compile.compile g.entry.source) guests in
  rows
  @ [ m "machine.predecode_ms" "ms"
        (median_ms 5 (fun () ->
             List.iter (fun p -> ignore (Mips_machine.Predecode.of_program p)) programs));
      m "jit.warm_ms" "ms" !jit_warm ]

(* The report's layers: the Domain pool and artifact cache, the table
   fold, the simulations replayed serially, and the simulated design. *)
let report_probes () =
  let prepare jobs =
    median_ms 2 (fun () ->
        cold ();
        Report.prepare ~jobs ())
  in
  let parallel = prepare 2 in
  let serial = prepare 1 in
  cold ();
  let c0 = Mips_artifact.counters () in
  ignore (Report.json_all ~jobs:2 ());
  let c1 = Mips_artifact.counters () in
  let hits = c1.hits - c0.hits and misses = c1.misses - c0.misses in
  let fold =
    median_ms 3 (fun () ->
        Mips_analysis.Refpatterns.clear_memo ();
        ignore (Report.json_all ~jobs:2 ()))
  in
  let sim_ms =
    List.fold_left
      (fun acc (config, (e : Corpus.entry)) ->
        let p = Mips_artifact.compiled ~config e.source in
        let cpu = Cpu.create ~config:(Mips_codegen.Compile.machine_config config) () in
        Cpu.load_program cpu p;
        acc +. snd (time_ms (fun () -> Hosted.run ~fuel ~input:e.input cpu)))
      0. report_sims
  in
  let design =
    List.fold_left
      (fun acc (config, e) ->
        if config == Config.default then
          Stats.merge acc (Mips_artifact.entry_sim ~config e).stats
        else acc)
      (Stats.zero ()) report_sims
  in
  let words = float_of_int design.words in
  [ m "machine.sim_ms" "ms" sim_ms;
    m "par.prepare_ms" "ms" parallel;
    m "par.prepare_serial_ms" "ms" serial;
    m "par.speedup" "ratio" (serial /. parallel);
    m "par.artifact_hits" "count" (float_of_int hits);
    m "par.artifact_misses" "count" (float_of_int misses);
    m "par.artifact_hit_ratio" "ratio" (float_of_int hits /. float_of_int (hits + misses));
    m "analysis.fold_ms" "ms" fold;
    m "model.words" "words" words;
    m "model.nop_ratio" "ratio" (float_of_int design.nops /. words);
    m "model.packed_ratio" "ratio" (Stats.packed_word_fraction design);
    m "model.free_cycle_ratio" "ratio" (Stats.free_cycle_fraction design);
    m "model.branches_taken" "count" (float_of_int design.branches_taken) ]

(* The daemon's layers from the outside: connect, the codec on real
   messages, what a request costs beyond the same compile lookup and
   simulation done in-process, and a session's collect round trip. *)
let daemon_probes ctx problems =
  let short = List.map (reference problems) short_programs in
  let socket = Filename.concat ctx.scratch "probe.sock" in
  let server = start_server ~socket ~state_dir:None in
  let connect =
    median_ms 20 (fun () ->
        match Client.connect socket with
        | Ok c -> Client.close c
        | Error e -> check problems ("connect: " ^ e) false)
  in
  let call req = Client.call socket req in
  (* per program: median request latency minus the median of the same
     cached compile lookup and reference-engine run done in-process *)
  let residuals =
    List.map
      (fun x ->
        let req = run_request ~tenant:"probe" x in
        ignore (call req);
        let remote =
          median_ms 5 (fun () ->
              check problems ("probe request for " ^ x.entry.name) (reply_ok x (call req)))
        in
        let local =
          median_ms 5 (fun () ->
              let cpu = Cpu.create () in
              Cpu.load_program cpu (Mips_artifact.compiled x.entry.source);
              ignore (Hosted.run ~fuel ~input:x.entry.input cpu))
        in
        remote -. local)
      short
  in
  let x = List.hd short in
  let req = run_request ~tenant:"probe" x in
  let encoded_reply =
    match call req with
    | Ok reply -> Protocol.encode_response reply
    | Error _ ->
        check problems "probe reply for the codec" false;
        Protocol.encode_response Protocol.Pong
  in
  let codec_reps = 1000 in
  let codec_ms =
    median_ms 5 (fun () ->
        for _ = 1 to codec_reps do
          ignore (Protocol.encode_request req);
          ignore (Protocol.decode_response encoded_reply)
        done)
  in
  Server.stop ~drain:false server;
  let state_dir = Some (Filename.concat ctx.scratch "probe-state") in
  let server = start_server ~socket ~state_dir in
  let hanoi = reference problems "hanoi" in
  let collect =
    median
      (List.init 5 (fun i ->
           let session = Printf.sprintf "probe%d" i in
           let ran = call (run_request ~tenant:"probe" ~session hanoi) in
           let collected, ms =
             time_ms (fun () -> call (Protocol.Collect { tenant = "probe"; session }))
           in
           check problems "probe collect" (reply_ok hanoi ran && ran = collected);
           ms))
  in
  Server.stop ~drain:false server;
  [ m "daemon.connect_ms" "ms" connect;
    m "daemon.codec_us" "us" (1000. *. codec_ms /. float_of_int codec_reps);
    m "daemon.residual_ms" "ms" (median residuals);
    m "daemon.collect_ms" "ms" collect ]

(* Checkpoints as the daemon takes them: every 50k steps of a session's
   run, the machine snapshotted and written. *)
let checkpoint_every = (Server.default_config ~socket:"").Server.checkpoint_every

let resilience_probes ctx =
  let path = Filename.concat ctx.scratch "probe.ckpt" in
  let checkpointed name =
    let e = Corpus.find name in
    let cpu = Cpu.create () in
    Cpu.load_program cpu (Mips_codegen.Compile.compile e.source);
    let snaps = ref [] in
    let save _ =
      let s, snap_ms = time_ms (fun () -> Mips_resilience.Snapshot.machine_to_string cpu) in
      let (), write_ms = time_ms (fun () -> Mips_resilience.Snapshot.write_file path s) in
      snaps := (snap_ms, write_ms, String.length s) :: !snaps
    in
    ignore (Hosted.run ~fuel ~input:e.input ~checkpoint:(checkpoint_every, save) cpu);
    !snaps
  in
  let queens = checkpointed "queens" in
  let counts =
    List.map (fun n -> List.length (if n = "queens" then queens else checkpointed n))
      session_programs
  in
  let pick f = median (List.map f queens) in
  [ m "resilience.snapshot_ms" "ms" (pick (fun (s, _, _) -> s));
    m "resilience.snapshot_bytes" "bytes" (pick (fun (_, _, b) -> float_of_int b));
    m "resilience.write_ms" "ms" (pick (fun (_, w, _) -> w));
    m "resilience.checkpoints" "count"
      (float_of_int (List.fold_left ( + ) 0 counts) /. float_of_int (List.length counts)) ]

let probes ctx problems =
  let report = report_probes () in
  compile_probes problems @ engine_probes problems @ report
  @ daemon_probes ctx problems @ resilience_probes ctx
