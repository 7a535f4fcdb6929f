(* The workloads.  Each one sets itself up (timed, several times over),
   runs its operation back to back for a wall-clock budget, and checks
   every result it gets.  Inputs come only from the seed: it orders the
   programs and draws the daemon's request mix. *)

module Cpu = Mips_machine.Cpu
module Hosted = Mips_machine.Hosted
module Program = Mips_machine.Program
module Corpus = Mips_corpus.Corpus
module Config = Mips_ir.Config
module Pipeline = Mips_reorg.Pipeline
module Span = Mips_obs.Span
module Json = Mips_obs.Json
module Report = Mips_analysis.Report
module Server = Mips_daemon.Server
module Client = Mips_daemon.Client
module Protocol = Mips_daemon.Protocol

let now = Unix.gettimeofday
let fuel = Mips_artifact.default_fuel

let time_ms f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.)

type ctx = {
  seed : int;
  seconds : float;  (** the timed loop's budget *)
  scratch : string;  (** this process's directory inside the checkout *)
  trace : bool;
}

type sample = { ms : float; ok : bool }
type phase = { samples : sample list; wall_s : float }

type result = {
  setup_s : float list;
  untraced : phase;
  traced : (phase * Span.span list) option;
  sim_cycles : int;
      (** simulated cycles of one run of each distinct program the
          workload runs (or, for compile_corpus, compiles) *)
  static_words : int;  (** code size of those programs *)
  problems : string list;  (** failed checks outside the timed operations *)
}

let levels =
  Pipeline.
    [ (Naive, "naive"); (Reorganized, "reorganized"); (Packed, "packed");
      (Delay_filled, "delay_filled") ]

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One timed operation: the root span of the trace is the timed region. *)
let timed_op tracer f = time_ms (fun () -> Span.with_ (Span.lane tracer 0) "op" f)

let serial_loop op tracer ~seconds =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let rec go acc =
    let acc = op tracer :: acc in
    if now () < deadline then go acc else acc
  in
  let samples = List.rev (go []) in
  { samples; wall_s = now () -. t0 }

(* The whole budget untraced; in a traced run, half untraced and then half
   traced on the same set-up, so the two halves give the tracing overhead. *)
let phases ctx loop =
  if not ctx.trace then (loop Span.no_tracer ~seconds:ctx.seconds, None)
  else begin
    let half = ctx.seconds /. 2. in
    let untraced = loop Span.no_tracer ~seconds:half in
    let tracer = Span.tracer ~clock:now ~lanes:2 () in
    let traced = loop tracer ~seconds:half in
    (untraced, Some (traced, Span.tracer_spans tracer))
  end

(* Set up [setups] times from scratch and keep the last; the others are
   torn down untimed.  Several set-ups make the reported median steady. *)
let setups = 3

let repeat_setup ?(teardown = ignore) setup =
  let rec go k acc =
    let st, ms = time_ms (fun () -> setup k) in
    let acc = (ms /. 1000.) :: acc in
    if k = setups then (st, List.rev acc)
    else begin
      teardown st;
      go (k + 1) acc
    end
  in
  go 1 []

let check problems what ok = if not ok then problems := what :: !problems

(* --- report_cold ---------------------------------------------------------- *)

let cold () =
  Mips_artifact.clear ();
  Mips_analysis.Refpatterns.clear_memo ()

let report_digest j = Digest.string (Json.to_string j)

(* The report runs on one Domain.  On a 2-vCPU host shared with other
   machines, the medians of 2-Domain runs drift about twice as far from run
   to run as serial ones, beyond what a 0.2 bound can hold.  The pool is
   measured by the per-layer [par.*] probes instead. *)
let report_jobs = 1

(* The simulations the report's tables draw on, as [Report.prepare]
   schedules them: the reference corpus on the word and byte machines. *)
let report_sims =
  List.concat_map
    (fun config ->
      List.filter_map
        (fun e ->
          if Mips_analysis.Refpatterns.heavy e then None else Some (config, e))
        Corpus.all)
    [ Config.default; Config.byte_machine ]

(* The traced twin of one cold report: the same artifacts built stage by
   stage through the cache's public calls, so each layer gets its own span
   on every worker lane, then the tables folded. *)
let traced_report tracer =
  let sp = Span.lane tracer 0 in
  let stage name f =
    Span.with_ sp "par" (fun () ->
        ignore (Mips_par.map_spans ~jobs:report_jobs ~tracer ~name:(fun _ -> name) f report_sims))
  in
  stage "frontend" (fun (_, (e : Corpus.entry)) -> ignore (Mips_artifact.tast e.source));
  stage "codegen" (fun (config, (e : Corpus.entry)) ->
      ignore (Mips_artifact.asm ~config e.source));
  stage "reorg" (fun (config, (e : Corpus.entry)) ->
      ignore (Mips_artifact.compiled ~config e.source));
  stage "machine" (fun (config, e) -> ignore (Mips_artifact.entry_sim ~config e));
  Span.with_ sp "analysis" (fun () -> Report.json_all ~jobs:report_jobs ())

let report_cold ctx =
  let problems = ref [] in
  cold ();
  (* the reference is built by the pool: the report must not depend on it *)
  let expected = report_digest (Report.json_all ~jobs:2 ()) in
  let (), setup_s =
    repeat_setup (fun _ ->
        cold ();
        Report.prepare ~jobs:report_jobs ())
  in
  (* A traced run times the staged twin in both halves, so the difference
     of the halves is the cost of tracing alone: the twin also looks up
     every earlier stage's artifacts in the cache, which [json_all] does
     not. *)
  let op tracer =
    let j, ms =
      timed_op tracer (fun () ->
          cold ();
          if ctx.trace then traced_report tracer
          else Report.json_all ~jobs:report_jobs ())
    in
    { ms; ok = Digest.equal (report_digest j) expected }
  in
  let untraced, traced = phases ctx (serial_loop op) in
  let sim_cycles, static_words =
    List.fold_left
      (fun (c, w) (config, (e : Corpus.entry)) ->
        let s = Mips_artifact.entry_sim ~config e in
        check problems ("report simulation of " ^ e.name)
          (s.result.Hosted.halted && Golden.output_ok e.name s.result.Hosted.output);
        ( c + s.stats.Mips_machine.Stats.cycles,
          w + Program.static_count s.program ))
      (0, 0) report_sims
  in
  { setup_s; untraced; traced; sim_cycles; static_words; problems = !problems }

(* --- compile_corpus ------------------------------------------------------- *)

let configs = [ Config.default; Config.byte_machine ]

(* Every config x level of one program, through each layer's own call. *)
let compile_entry sp (e : Corpus.entry) =
  List.concat_map
    (fun config ->
      let tast =
        Span.with_ sp "frontend" (fun () -> Mips_frontend.Semant.check_string e.source)
      in
      let ir = Span.with_ sp "ir" (fun () -> Mips_ir.Irgen.lower config tast) in
      let asm =
        Span.with_ sp "codegen" (fun () -> Mips_codegen.Emit.emit_program config ir)
      in
      List.map
        (fun (level, name) ->
          Span.with_ sp ("reorg." ^ name) (fun () -> Pipeline.compile ~level asm))
        levels)
    configs

(* Everything a program image holds but its symbol table: the delay-slot
   pass names its synthetic labels from a process-wide counter, so symbol
   names differ between two compiles of one source while the code does not. *)
let programs_digest ps =
  Digest.string
    (Marshal.to_string
       (List.map
          (fun (p : Program.t) -> (p.code, p.notes, p.entry, p.data, p.data_words))
          ps)
       [ Marshal.No_sharing ])

let compile_corpus ctx =
  let problems = ref [] in
  let rng = Random.State.make [| ctx.seed |] in
  let pass sp = List.map (fun e -> (e, compile_entry sp e)) (shuffle rng Corpus.all) in
  let first, setup_s = repeat_setup (fun _ -> pass Span.null) in
  let reference =
    List.map (fun ((e : Corpus.entry), ps) -> (e.name, programs_digest ps)) first
  in
  let op tracer =
    let compiled, ms = timed_op tracer (fun () -> pass (Span.lane tracer 0)) in
    { ms;
      ok =
        List.for_all
          (fun ((e : Corpus.entry), ps) ->
            Digest.equal (programs_digest ps) (List.assoc e.name reference))
          compiled }
  in
  let untraced, traced = phases ctx (serial_loop op) in
  (* the compiled code is correct when it runs: every program at
     [Delay_filled] on the word machine, once, on the jit *)
  let sim_cycles, static_words =
    List.fold_left
      (fun (c, w) ((e : Corpus.entry), ps) ->
        (* the word machine's programs come first, Delay_filled last *)
        let p = List.nth ps (List.length levels - 1) in
        let cpu = Cpu.create () in
        let r = Hosted.run_program_on ~fuel ~input:e.input ~engine:Cpu.Jit cpu p in
        check problems ("compiled " ^ e.name) (r.halted && Golden.output_ok e.name r.output);
        (c + (Cpu.stats cpu).cycles, w + Program.static_count p))
      (0, 0) first
  in
  { setup_s; untraced; traced; sim_cycles; static_words; problems = !problems }

(* --- guest_fast, guest_jit ------------------------------------------------ *)

(* puzzle0/1 are left out: one reference run takes seconds *)
let guest_programs =
  [ "fib"; "sieve"; "strops"; "queens"; "expreval"; "wordcount"; "hanoi"; "qsort" ]

(* Each program runs enough times per round to execute about this many
   words, so no program's share of a round is lost to the clock's
   resolution or swamped by the others. *)
let round_words = 1_000_000

let counters (s : Mips_machine.Stats.t) =
  Mips_machine.Stats.
    [| s.cycles; s.words; s.nops; s.alu_pieces; s.mem_pieces; s.branch_pieces;
       s.packed_words; s.branches_taken; s.mem_busy_cycles; s.free_cycles;
       total_loads s; total_stores s |]

(* What a fresh compile and reference-engine run of a corpus program
   gives; every engine and every daemon reply must give the same. *)
type reference = {
  entry : Corpus.entry;
  output : string;
  counts : int array;  (** its statistics, as [counters] lists them *)
  static_words : int;
}

let reference problems name =
  let e = Corpus.find name in
  let r, cpu = Mips_codegen.Compile.run_with_machine ~fuel ~input:e.input e.source in
  check problems ("reference run of " ^ name) (r.halted && Golden.output_ok name r.output);
  { entry = e; output = r.output; counts = counters (Cpu.stats cpu);
    static_words = Program.static_count (Mips_codegen.Compile.compile e.source) }

let cycles g = g.counts.(0)
let words g = g.counts.(1)

type machine = { g : reference; program : Program.t; cpu : Cpu.t }

(* Reset the PC chain and static data, then run to the exit trap: the
   machine, its predecoded words and its jit traces stay warm. *)
let run_machine engine m =
  Cpu.set_pc m.cpu m.program.entry;
  List.iter (fun (a, v) -> Cpu.write_data m.cpu a v) m.program.data;
  Hosted.run ~fuel ~input:m.g.entry.input ~engine m.cpu

let warm_runs = function Cpu.Jit -> Mips_jit.hot_threshold + 2 | Cpu.Ref | Cpu.Fast -> 2

(* A compiled, loaded and warmed machine, and the warm-up's time in ms. *)
let load_machine engine g =
  let program = Mips_codegen.Compile.compile g.entry.source in
  let cpu = Cpu.create () in
  Cpu.load_program cpu program;
  let m = { g; program; cpu } in
  let (), warm_ms =
    time_ms (fun () -> for _ = 1 to warm_runs engine do ignore (run_machine engine m) done)
  in
  (m, warm_ms)

let guest engine ctx =
  let problems = ref [] in
  let guests = List.map (reference problems) guest_programs in
  let reps g = max 1 (round_words / words g) in
  let machines, setup_s =
    repeat_setup (fun _ -> List.map (fun g -> fst (load_machine engine g)) guests)
  in
  let rng = Random.State.make [| ctx.seed |] in
  let op tracer =
    let sp = Span.lane tracer 0 in
    let order = shuffle rng machines in
    let before = List.map (fun m -> counters (Cpu.stats m.cpu)) order in
    let outputs_ok = ref true in
    let (), ms =
      timed_op tracer (fun () ->
          List.iter
            (fun m ->
              Span.with_ sp ("machine." ^ m.g.entry.name) (fun () ->
                  for _ = 1 to reps m.g do
                    let r = run_machine engine m in
                    if not (r.halted && String.equal r.output m.g.output) then
                      outputs_ok := false
                  done))
            order)
    in
    let stats_ok =
      List.for_all2
        (fun m b ->
          let a = counters (Cpu.stats m.cpu) in
          Array.for_all2 (fun d e -> d = reps m.g * e)
            (Array.map2 ( - ) a b) m.g.counts)
        order before
    in
    { ms; ok = !outputs_ok && stats_ok }
  in
  let untraced, traced = phases ctx (serial_loop op) in
  { setup_s; untraced; traced;
    sim_cycles = List.fold_left (fun c g -> c + cycles g) 0 guests;
    static_words = List.fold_left (fun w g -> w + g.static_words) 0 guests;
    problems = !problems }

(* --- daemon_short, daemon_session ----------------------------------------- *)

let run_request ~tenant ?session x =
  Protocol.Run
    { tenant; session; source = x.entry.source; cg = Protocol.default_codegen;
      input = x.entry.input; fuel; engine = "ref" }

let reply_ok x = function
  | Ok (Protocol.Ran r) -> r.halted && String.equal r.output x.output && r.cycles = cycles x
  | _ -> false

let start_server ~socket ~state_dir =
  let server =
    Server.start
      { (Server.default_config ~socket) with
        Server.jobs = 2; queue = 4; drain_s = 1.; state_dir }
  in
  match Client.wait_ready socket with
  | Ok () -> server
  | Error (`Timed_out s) ->
      Server.stop ~drain:false server;
      failwith (Printf.sprintf "daemon not ready after %.1f s" s)

let clients = 2

(* A closed loop: each client thread sends its next request only when the
   previous reply is in.  Each client has its own trace lane and its own
   seeded, endless sequence of shuffled rounds of the programs. *)
let closed_loop ctx ~programs request tracer ~seconds =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let per_client = Array.make clients [] in
  let client i () =
    let sp = Span.lane tracer i in
    let rng = Random.State.make [| ctx.seed; i |] in
    let queue = ref [] in
    let k = ref 0 in
    while now () < deadline do
      if !queue = [] then queue := shuffle rng programs;
      let x = List.hd !queue in
      queue := List.tl !queue;
      let s =
        try request sp ~client:i ~k:!k x
        with e ->
          prerr_endline ("benchsuite: request raised " ^ Printexc.to_string e);
          { ms = nan; ok = false }
      in
      per_client.(i) <- s :: per_client.(i);
      incr k
    done
  in
  List.iter Thread.join (List.init clients (fun i -> Thread.create (client i) ()));
  { samples = List.concat_map List.rev (Array.to_list per_client);
    wall_s = now () -. t0 }

let daemon ctx ~sessions ~programs =
  let problems = ref [] in
  let expected = List.map (reference problems) programs in
  let socket = Filename.concat ctx.scratch "d.sock" in
  let phase = ref 0 in
  let request sp ~client ~k x =
    let tenant = Printf.sprintf "t%d" client in
    if not sessions then begin
      let reply, ms =
        time_ms (fun () ->
            Span.with_ sp "op" (fun () ->
                Span.with_ sp "daemon.run" (fun () ->
                    Client.call socket (run_request ~tenant x))))
      in
      { ms; ok = reply_ok x reply }
    end
    else begin
      let session = Printf.sprintf "s%d-%d-%d-%d" ctx.seed !phase client k in
      let reply, ms =
        time_ms (fun () ->
            Span.with_ sp "op" (fun () ->
                Span.with_ sp "daemon.run" (fun () ->
                    Client.call socket (run_request ~tenant ~session x))))
      in
      let collected =
        Span.with_ sp "daemon.collect" (fun () ->
            Client.call socket (Protocol.Collect { tenant; session }))
      in
      let same =
        match (reply, collected) with
        | Ok (Protocol.Ran a), Ok (Protocol.Ran b) -> a = b
        | _ -> false
      in
      { ms; ok = reply_ok x reply && same }
    end
  in
  (* Set-up is what a freshly started daemon does before it serves at its
     steady pace: start, answer a ping, and compile and run each program
     of the mix once, so the artifact cache starts empty every time. *)
  let server, setup_s =
    repeat_setup ~teardown:(Server.stop ~drain:false) (fun k ->
        Mips_artifact.clear ();
        let state_dir =
          if sessions then Some (Filename.concat ctx.scratch (Printf.sprintf "state%d" k))
          else None
        in
        let server = start_server ~socket ~state_dir in
        phase := -k;
        List.iteri
          (fun i x ->
            check problems ("warm-up request for " ^ x.entry.name)
              (request Span.null ~client:0 ~k:i x).ok)
          expected;
        server)
  in
  phase := 0;
  let loop tracer ~seconds =
    incr phase;
    closed_loop ctx ~programs:expected request tracer ~seconds
  in
  let result = phases ctx loop in
  Server.stop ~drain:false server;
  let untraced, traced = result in
  { setup_s; untraced; traced;
    sim_cycles = List.fold_left (fun c x -> c + cycles x) 0 expected;
    static_words = List.fold_left (fun w x -> w + x.static_words) 0 expected;
    problems = !problems }

(* Short guest runs, so per-request overhead is a large share. *)
let short_programs = [ "fib"; "sieve"; "strops"; "expreval"; "wordcount"; "calendar" ]
let daemon_short ctx = daemon ctx ~sessions:false ~programs:short_programs

(* Checkpointed sessions: the same daemon layers plus snapshot writes and
   journalled results, read back by [Collect]. *)
let session_programs = [ "queens"; "hanoi"; "qsort" ]
let daemon_session ctx = daemon ctx ~sessions:true ~programs:session_programs

(* name, nominal tail percentile, implementation *)
let all =
  [ ("report_cold", 0.75, report_cold);
    ("compile_corpus", 0.75, compile_corpus);
    ("guest_fast", 0.75, guest Cpu.Fast);
    ("guest_jit", 0.75, guest Cpu.Jit);
    ("daemon_short", 0.99, daemon_short);
    ("daemon_session", 0.90, daemon_session) ]
