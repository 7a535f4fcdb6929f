open Mips_machine
module Plan = Mips_fault.Plan
module Json = Mips_obs.Json

type outcome = {
  output : string;
  exit_status : int option;
  halted : bool;
  fault : string option;
  mem : int list;
  retries : int;
}

let mem_window = Progen.data_words

let run_variant ?(fuel = 500_000) ?(engine = Cpu.Ref) ~interlocked ~plan
    program =
  let config = if interlocked then Cpu.interlocked_config else Cpu.default_config in
  let cpu = Cpu.create ~config () in
  (match plan with
  | Some cfg -> Cpu.set_fault_plan cpu (Plan.make cfg)
  | None -> ());
  let res = Hosted.run_program_on ~fuel ~engine cpu program in
  let injected = Plan.injected (Cpu.fault_plan cpu) in
  ( {
      output = res.Hosted.output;
      exit_status = res.Hosted.exit_status;
      halted = res.Hosted.halted;
      fault =
        (match res.Hosted.fault with
        | Some (c, d) -> Some (Printf.sprintf "%s/%d" (Cause.name c) d)
        | None -> None);
      mem = List.init mem_window (Cpu.read_data cpu);
      retries = res.Hosted.retries;
    },
    injected )

(* first observable divergence between a variant and the reference *)
let divergence ~reference o =
  let str_opt = function Some s -> s | None -> "-" in
  let int_opt = function Some n -> string_of_int n | None -> "-" in
  if o.output <> reference.output then
    Some
      (Printf.sprintf "output %S, reference %S" o.output reference.output)
  else if o.exit_status <> reference.exit_status then
    Some
      (Printf.sprintf "exit %s, reference %s" (int_opt o.exit_status)
         (int_opt reference.exit_status))
  else if o.halted <> reference.halted then
    Some (Printf.sprintf "halted %b, reference %b" o.halted reference.halted)
  else if o.fault <> reference.fault then
    Some
      (Printf.sprintf "fault %s, reference %s" (str_opt o.fault)
         (str_opt reference.fault))
  else
    let rec first_mem i a b =
      match (a, b) with
      | [], [] -> None
      | x :: a', y :: b' ->
          if x <> y then
            Some (Printf.sprintf "data[%d] = %d, reference %d" i x y)
          else first_mem (i + 1) a' b'
      | _ -> Some "data window length mismatch"
    in
    first_mem 0 o.mem reference.mem

type diff = {
  seed : int;
  ok : bool;
  mismatches : (string * string) list;
  retries : int;
  injected : int;
}

let differential ?segments ?fuel ?(flaky_rate = 0.01) ?(irq_rate = 0.005)
    ?(engine = Cpu.Fast) ~seed () =
  let asm = Progen.generate ?segments ~seed () in
  let reorganized = Mips_reorg.Pipeline.compile asm in
  let raw = Mips_reorg.Pipeline.compile_raw asm in
  (* the fault plan's own stream is seeded independently of the program *)
  let plan_cfg =
    { Plan.quiet with Plan.seed = seed + 0x5011; flaky_rate; irq_rate }
  in
  let reference, _ = run_variant ?fuel ~interlocked:false ~plan:None reorganized in
  let en = Cpu.engine_name engine in
  let variants =
    [ ("raw-interlocked", raw, true, None, Cpu.Ref);
      ("reorganized-faults", reorganized, false, Some plan_cfg, Cpu.Ref);
      ("raw-interlocked-faults", raw, true, Some plan_cfg, Cpu.Ref);
      (* the same schedules under the alternate engine (predecoded fast by
         default, trace-jit on request): anything a program can observe
         must be identical, fault plan or not *)
      ("reorganized-" ^ en, reorganized, false, None, engine);
      ("raw-interlocked-" ^ en, raw, true, None, engine);
      ("reorganized-" ^ en ^ "-faults", reorganized, false, Some plan_cfg,
       engine) ]
  in
  let mismatches, retries, injected =
    List.fold_left
      (fun (ms, rs, inj) (vname, program, interlocked, plan, engine) ->
        let o, injected = run_variant ?fuel ~engine ~interlocked ~plan program in
        let ms =
          match divergence ~reference o with
          | Some d -> (vname, d) :: ms
          | None -> ms
        in
        (ms, rs + o.retries, inj + injected))
      ([], 0, 0) variants
  in
  { seed; ok = mismatches = []; mismatches = List.rev mismatches; retries; injected }

(* Each seed's differential run is a pure function of its arguments (the
   generator and fault plan carry their own seeded streams), so a sweep is
   embarrassingly parallel; results come back in seed order regardless of
   the pool size. *)
let differential_sweep ?jobs ?segments ?fuel ?flaky_rate ?irq_rate ?engine
    ~seed ~count () =
  Mips_par.map ?jobs
    (fun s ->
      differential ?segments ?fuel ?flaky_rate ?irq_rate ?engine ~seed:s ())
    (List.init count (fun i -> seed + i))

let diff_json d =
  Json.Obj
    [ ("seed", Json.Int d.seed);
      ("ok", Json.Bool d.ok);
      ( "mismatches",
        Json.List
          (List.map
             (fun (v, m) ->
               Json.Obj [ ("variant", Json.Str v); ("divergence", Json.Str m) ])
             d.mismatches) );
      ("retries", Json.Int d.retries);
      ("injected", Json.Int d.injected) ]

(* --- kernel soak ---------------------------------------------------------- *)

type summary = {
  seed : int;
  programs : int;
  steps : int;
  exited : int;
  killed : int;
  live : int;
  kill_reasons : (string * int) list;
  injected : (string * int) list;
  transient_faults : int;
  transient_retries : int;
  watchdog_kills : int;
  double_faults : int;
  oom_kills : int;
  page_faults : int;
  switches : int;
  fuel_exhausted : bool;
  total_cycles : int;
}

let bump assoc key =
  let rec go = function
    | [] -> [ (key, 1) ]
    | (k, n) :: rest -> if k = key then (k, n + 1) :: rest else (k, n) :: go rest
  in
  go assoc

(* The soak's kernel: [programs] generated processes, seeds derived from
   [seed], under the fault plan. *)
let make_kernel ~programs ?segments ~quantum ?watchdog ~data_frames
    ~code_frames ?backing_limit ?engine ~plan ~seed () =
  let k =
    Mips_os.Kernel.create ~data_frames ~code_frames ~quantum ?watchdog
      ?backing_limit ~fault_plan:(Plan.make plan) ?engine ()
  in
  for i = 0 to programs - 1 do
    let pseed = (seed * 0x1000) + i in
    let program =
      Mips_reorg.Pipeline.compile (Progen.generate ?segments ~seed:pseed ())
    in
    Mips_os.Kernel.spawn k ~name:(Progen.name ~seed:pseed) program
  done;
  k

let summary_of_report ~seed ~programs ~steps k (r : Mips_os.Kernel.report) =
  let exited, killed, live, kill_reasons =
    List.fold_left
      (fun (e, ki, li, reasons) (p : Mips_os.Kernel.proc_report) ->
        match (p.Mips_os.Kernel.exit_status, p.Mips_os.Kernel.killed) with
        | Some _, _ -> (e + 1, ki, li, reasons)
        | None, Some reason ->
            (e, ki + 1, li, bump reasons (Mips_os.Kernel.kill_reason_name reason))
        | None, None -> (e, ki, li + 1, reasons))
      (0, 0, 0, []) r.Mips_os.Kernel.procs
  in
  {
    seed;
    programs;
    steps;
    exited;
    killed;
    live;
    kill_reasons;
    injected = Plan.counts (Cpu.fault_plan (Mips_os.Kernel.cpu k));
    transient_faults = r.Mips_os.Kernel.transient_faults;
    transient_retries = r.Mips_os.Kernel.transient_retries;
    watchdog_kills = r.Mips_os.Kernel.watchdog_kills;
    double_faults = r.Mips_os.Kernel.double_faults;
    oom_kills = r.Mips_os.Kernel.oom_kills;
    page_faults = r.Mips_os.Kernel.page_faults;
    switches = r.Mips_os.Kernel.switches;
    fuel_exhausted = r.Mips_os.Kernel.fuel_exhausted;
    total_cycles = r.Mips_os.Kernel.total_cycles;
  }

let run_soak ?(programs = 4) ?segments ?(quantum = 500) ?watchdog
    ?(data_frames = 16) ?(code_frames = 16) ?backing_limit
    ?(steps = 2_000_000) ?engine ~plan ~seed () =
  let k =
    make_kernel ~programs ?segments ~quantum ?watchdog ~data_frames
      ~code_frames ?backing_limit ?engine ~plan ~seed ()
  in
  summary_of_report ~seed ~programs ~steps k (Mips_os.Kernel.run ~fuel:steps k)

let summary_json s =
  Json.Obj
    [ ("seed", Json.Int s.seed);
      ("programs", Json.Int s.programs);
      ("steps", Json.Int s.steps);
      ("exited", Json.Int s.exited);
      ("killed", Json.Int s.killed);
      ("live", Json.Int s.live);
      ( "kill_reasons",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) s.kill_reasons) );
      ( "injected",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) s.injected) );
      ("transient_faults", Json.Int s.transient_faults);
      ("transient_retries", Json.Int s.transient_retries);
      ("watchdog_kills", Json.Int s.watchdog_kills);
      ("double_faults", Json.Int s.double_faults);
      ("oom_kills", Json.Int s.oom_kills);
      ("page_faults", Json.Int s.page_faults);
      ("switches", Json.Int s.switches);
      ("fuel_exhausted", Json.Bool s.fuel_exhausted);
      ("total_cycles", Json.Int s.total_cycles) ]

let result_json s diffs =
  Json.Obj
    [ ("kernel", summary_json s);
      ("differential", Json.List (List.map diff_json diffs)) ]

(* --- checkpointed soak ----------------------------------------------------- *)

(* A killed-and-resumed soak must be bit-identical to an uninterrupted one,
   so the checkpoint records everything the run depends on: the full
   parameter set (byte-compared on resume — a checkpoint only resumes the
   exact run that wrote it), then phase-specific state.  The kernel phase
   saves machine + scheduler snapshots and the step count; programs are
   *not* saved — resume regenerates and recompiles them from the same seeds
   and [Kernel.restore_sched] refills the owned code frames, so the restored
   machine is byte-identical by construction.  The differential phase saves
   the finished summary and the prefix of completed diffs.  A final "done"
   checkpoint is written at completion so a resume always succeeds no
   matter when the previous process died. *)

module Snapshot = Mips_resilience.Snapshot
module Supervise = Mips_resilience.Supervise

type params = {
  p_seed : int;
  p_programs : int;
  p_segments : int option;
  p_quantum : int;
  p_watchdog : int option;
  p_data_frames : int;
  p_code_frames : int;
  p_backing_limit : int option;
  p_steps : int;
  p_plan : Plan.config;
  p_diff_count : int;
  p_engine : Cpu.engine;
}

let params_to_string p =
  let open Snapshot.Io.W in
  let b = create () in
  int b p.p_seed;
  int b p.p_programs;
  opt int b p.p_segments;
  int b p.p_quantum;
  opt int b p.p_watchdog;
  int b p.p_data_frames;
  int b p.p_code_frames;
  opt int b p.p_backing_limit;
  int b p.p_steps;
  int b p.p_plan.Plan.seed;
  float b p.p_plan.Plan.flip_reg_rate;
  float b p.p_plan.Plan.flip_data_rate;
  float b p.p_plan.Plan.irq_rate;
  float b p.p_plan.Plan.page_drop_rate;
  float b p.p_plan.Plan.flaky_rate;
  int b p.p_plan.Plan.max_injections;
  int b p.p_diff_count;
  str b (Cpu.engine_name p.p_engine);
  contents b

let summary_to_string s =
  let open Snapshot.Io.W in
  let b = create () in
  let pair w b (k, n) = str b k; w b n in
  int b s.seed;
  int b s.programs;
  int b s.steps;
  int b s.exited;
  int b s.killed;
  int b s.live;
  list (pair int) b s.kill_reasons;
  list (pair int) b s.injected;
  int b s.transient_faults;
  int b s.transient_retries;
  int b s.watchdog_kills;
  int b s.double_faults;
  int b s.oom_kills;
  int b s.page_faults;
  int b s.switches;
  bool b s.fuel_exhausted;
  int b s.total_cycles;
  contents b

let summary_of_reader r =
  let open Snapshot.Io.R in
  let pair rd r = let k = str r in (k, rd r) in
  let seed = int r in
  let programs = int r in
  let steps = int r in
  let exited = int r in
  let killed = int r in
  let live = int r in
  let kill_reasons = list (pair int) r in
  let injected = list (pair int) r in
  let transient_faults = int r in
  let transient_retries = int r in
  let watchdog_kills = int r in
  let double_faults = int r in
  let oom_kills = int r in
  let page_faults = int r in
  let switches = int r in
  let fuel_exhausted = bool r in
  let total_cycles = int r in
  { seed; programs; steps; exited; killed; live; kill_reasons; injected;
    transient_faults; transient_retries; watchdog_kills; double_faults;
    oom_kills; page_faults; switches; fuel_exhausted; total_cycles }

let diffs_to_string ds =
  let open Snapshot.Io.W in
  let b = create () in
  list
    (fun b (d : diff) ->
      int b d.seed;
      bool b d.ok;
      list (fun b (v, m) -> str b v; str b m) b d.mismatches;
      int b d.retries;
      int b d.injected)
    b ds;
  contents b

let diffs_of_reader r =
  let open Snapshot.Io.R in
  list
    (fun r ->
      let seed = int r in
      let ok = bool r in
      let mismatches = list (fun r -> let v = str r in (v, str r)) r in
      let retries = int r in
      let injected = int r in
      ({ seed; ok; mismatches; retries; injected } : diff))
    r

(* run a section decoder totally: Underflow/Bad become typed errors *)
let decode_section payload read =
  match
    let r = Snapshot.Io.R.make payload in
    let v = read r in
    if Snapshot.Io.R.remaining r <> 0 then raise (Snapshot.Bad "trailing bytes");
    v
  with
  | v -> Ok v
  | exception Snapshot.Io.R.Underflow -> Error Snapshot.Truncated
  | exception Snapshot.Bad m -> Error (Snapshot.Corrupt m)

let int_payload n =
  let b = Snapshot.Io.W.create () in
  Snapshot.Io.W.int b n;
  Snapshot.Io.W.contents b

type resilient_result = Complete of summary * diff list | Interrupted

let run_checkpointed ?(programs = 4) ?segments ?(quantum = 500) ?watchdog
    ?(data_frames = 16) ?(code_frames = 16) ?backing_limit
    ?(steps = 2_000_000) ?(diff_count = 0) ?diff_jobs ?(diff_chunk = 4)
    ?checkpoint ?(checkpoint_every = 250_000) ?resume
    ?(obs = Mips_obs.Sink.null) ?(metrics = Mips_obs.Metrics.null)
    ?(breaker = Supervise.default_breaker ()) ?max_slices
    ?(before_write = fun () -> ()) ?(engine = Cpu.Ref) ~plan ~seed () =
  let open Snapshot in
  let params =
    { p_seed = seed; p_programs = programs; p_segments = segments;
      p_quantum = quantum; p_watchdog = watchdog; p_data_frames = data_frames;
      p_code_frames = code_frames; p_backing_limit = backing_limit;
      p_steps = steps; p_plan = plan; p_diff_count = diff_count;
      p_engine = engine }
  in
  let params_str = params_to_string params in
  let write_ckpt ~phase ~progress sections =
    match checkpoint with
    | None -> ()
    | Some path ->
        let data =
          encode
            { kind = "soak";
              sections =
                ("params", params_str) :: ("phase", phase) :: sections }
        in
        before_write ();
        write_file path data;
        Mips_obs.Metrics.incr metrics "checkpoint.writes";
        if Mips_obs.Sink.enabled obs then
          Mips_obs.Sink.emit obs
            (Mips_obs.Event.Checkpoint_write
               { path; phase; steps = progress; bytes = String.length data })
  in
  let make_kernel () =
    make_kernel ~programs ?segments ~quantum ?watchdog ~data_frames
      ~code_frames ?backing_limit ~engine ~plan ~seed ()
  in
  (* entry state: a fresh kernel, or whatever the resumed checkpoint holds *)
  let start_state =
    match resume with
    | None -> Ok (`Kernel (make_kernel (), 0))
    | Some path ->
        let* c = read_file path in
        let* () =
          if String.equal c.kind "soak" then Ok ()
          else Error (Corrupt (Printf.sprintf "not a soak checkpoint: %S" c.kind))
        in
        let* stored = section c "params" in
        let* () =
          if String.equal stored params_str then Ok ()
          else Error (Corrupt "checkpoint parameters do not match this run")
        in
        let* phase = section c "phase" in
        let restored st progress =
          Mips_obs.Metrics.incr metrics "checkpoint.restores";
          if Mips_obs.Sink.enabled obs then
            Mips_obs.Sink.emit obs
              (Mips_obs.Event.Checkpoint_restore
                 { path; phase; steps = progress });
          Ok st
        in
        (match phase with
        | "kernel" ->
            let* m = section c "machine" in
            let* sc = section c "sched" in
            let* pr = section c "progress" in
            let* steps_done = decode_section pr Io.R.int in
            let* sched = sched_of_string sc in
            let k = make_kernel () in
            let* () =
              match Mips_os.Kernel.restore_sched k sched with
              | () -> Ok ()
              | exception Invalid_argument msg -> Error (Corrupt msg)
            in
            let* () = restore_machine (Mips_os.Kernel.cpu k) m in
            restored (`Kernel (k, steps_done)) steps_done
        | "diffs" | "done" ->
            let* s = section c "summary" in
            let* s = decode_section s summary_of_reader in
            let* ds = section c "diffs" in
            let* ds = decode_section ds diffs_of_reader in
            restored
              (if String.equal phase "done" then `Finished (s, ds)
               else `Diffs (s, ds))
              (List.length ds)
        | other -> Error (Corrupt (Printf.sprintf "unknown phase %S" other)))
  in
  let kernel_sections k steps_done =
    [ ("machine", machine_to_string (Mips_os.Kernel.cpu k));
      ("sched", sched_to_string (Mips_os.Kernel.sched_snapshot k));
      ("progress", int_payload steps_done) ]
  in
  (* Run the kernel in [checkpoint_every]-step slices.  Slicing is
     semantics-neutral: [Kernel.run_for] keeps the scheduler loop state in
     the kernel itself, so N slices of M steps execute the same instruction
     sequence as one N*M-step run.  [start] is idempotent, so calling it on
     a restored kernel is safe. *)
  let kernel_phase k steps_done0 =
    match
      Mips_machine.Slice.run ?max_slices ~every:checkpoint_every
        ~total:(steps - steps_done0)
        ~step:(fun n -> Mips_os.Kernel.run_for k ~steps:n = `Done)
        ~boundary:(fun d ->
          let progress = steps_done0 + d in
          write_ckpt ~phase:"kernel" ~progress (kernel_sections k progress))
        ()
    with
    | Mips_machine.Slice.Stopped -> Interrupted
    | Finished | Exhausted ->
        Complete
          ( summary_of_report ~seed ~programs ~steps k (Mips_os.Kernel.report k),
            [] )
  in
  (* Differential seeds run in supervised chunks; a quarantined seed is
     attributed in place so one poisoned job cannot sink the sweep. *)
  let diff_phase s done_diffs =
    let sum_str = summary_to_string s in
    let rec go acc i =
      if i >= diff_count then List.rev acc
      else begin
        let n = min diff_chunk (diff_count - i) in
        let seeds = List.init n (fun j -> seed + i + j) in
        let outs =
          Supervise.supervised_map ?jobs:diff_jobs ~breaker ~metrics ~obs
            ~label:(fun s -> Printf.sprintf "diff:%d" s)
            (fun s ->
              (* Ref means "historical default": the kernel interprets, the
                 differential still exercises the fast engine — keeps the
                 checkpointed JSON byte-identical to the two-phase path. *)
              let engine = match engine with Cpu.Ref -> Cpu.Fast | e -> e in
              differential ?segments ~engine ~seed:s ())
            seeds
        in
        let ds =
          List.map2
            (fun sd (o : _ Supervise.outcome) ->
              match o.Supervise.result with
              | Ok d -> d
              | Error err ->
                  { seed = sd; ok = false;
                    mismatches = [ ("supervisor", err) ];
                    retries = 0; injected = 0 })
            seeds outs
        in
        let acc = List.rev_append ds acc in
        if i + n < diff_count then
          write_ckpt ~phase:"diffs" ~progress:(i + n)
            [ ("summary", sum_str);
              ("diffs", diffs_to_string (List.rev acc)) ];
        go acc (i + n)
      end
    in
    go (List.rev done_diffs) (List.length done_diffs)
  in
  match start_state with
  | Error e -> Error e
  | Ok st ->
      let result =
        match st with
        | `Kernel (k, steps_done) -> (
            match kernel_phase k steps_done with
            | Interrupted -> Interrupted
            | Complete (s, _) -> Complete (s, diff_phase s []))
        | `Diffs (s, ds) -> Complete (s, diff_phase s ds)
        | `Finished (s, ds) -> Complete (s, ds)
      in
      (match result with
      | Complete (s, ds) ->
          write_ckpt ~phase:"done" ~progress:steps
            [ ("summary", summary_to_string s); ("diffs", diffs_to_string ds) ]
      | Interrupted -> ());
      Ok result
