(* The resilience layer: snapshot codec totality and round-trips, hosted
   and kernel checkpoint/resume bit-identity, supervised jobs (retry,
   quarantine, deadline, circuit breaker), artifact-cache corruption
   detection, and labelled job failure propagation. *)

open Testutil
module Snapshot = Mips_resilience.Snapshot
module Supervise = Mips_resilience.Supervise
module Policy = Mips_resilience.Policy
module Plan = Mips_fault.Plan
module Cpu = Mips_machine.Cpu
module Hosted = Mips_machine.Hosted

let machine_config =
  Mips_codegen.Compile.machine_config Mips_ir.Config.default

let compiled name = Mips_artifact.compiled (Mips_corpus.Corpus.find name).source

(* --- container codec ------------------------------------------------------- *)

let test_container_roundtrip () =
  let c =
    { Snapshot.kind = "soak";
      sections = [ ("params", "abc"); ("machine", String.make 1000 '\x00');
                   ("odd \xff\n", "") ] }
  in
  match Snapshot.decode (Snapshot.encode c) with
  | Ok c' -> check "container round-trips" true (c = c')
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)

let qcheck_container_roundtrip =
  QCheck.Test.make ~count:200 ~name:"container encode/decode round-trip"
    QCheck.(
      pair small_string (small_list (pair small_string small_string)))
    (fun (kind, sections) ->
      let c = { Snapshot.kind; sections } in
      Snapshot.decode (Snapshot.encode c) = Ok c)

let sample_encoding () =
  Snapshot.encode
    { Snapshot.kind = "run";
      sections = [ ("meta", "m"); ("host", String.make 64 'h') ] }

let test_decode_truncations () =
  let data = sample_encoding () in
  for len = 0 to String.length data - 1 do
    match Snapshot.decode (String.sub data 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" len
    | Error _ -> ()
  done

let test_decode_bit_flips () =
  let data = sample_encoding () in
  for i = 0 to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    match Snapshot.decode (Bytes.to_string b) with
    | Ok _ -> Alcotest.failf "bit flip at %d decoded" i
    | Error _ -> ()
  done

let test_decode_bad_magic () =
  let data = sample_encoding () in
  let b = Bytes.of_string data in
  Bytes.set b 0 'X';
  check "bad magic" true (Snapshot.decode (Bytes.to_string b) = Error Snapshot.Bad_magic)

let test_decode_bad_version () =
  let data = sample_encoding () in
  let b = Bytes.of_string data in
  (* version is the u16 right after the 8-byte magic; bumping it must
     report version skew, not a checksum failure *)
  Bytes.set b 8 (Char.chr (Snapshot.version + 1));
  check "bumped version" true
    (Snapshot.decode (Bytes.to_string b)
    = Error (Snapshot.Bad_version (Snapshot.version + 1)))

let qcheck_decode_total =
  QCheck.Test.make ~count:500 ~name:"decoder is total on junk"
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      match Snapshot.decode s with Ok _ | Error _ -> true)

let test_read_file_missing () =
  match Snapshot.read_file "/nonexistent/checkpoint.bin" with
  | Error (Snapshot.Io_error _) -> ()
  | _ -> Alcotest.fail "expected Io_error"

(* --- machine snapshot round-trip ------------------------------------------- *)

(* Partially execute a generated program, snapshot the machine, restore
   into a fresh machine with the same program loaded, and re-snapshot:
   the codec must be lossless on every state the simulator can reach. *)
let machine_roundtrip ~faults seed fuel =
  let program =
    Mips_reorg.Pipeline.compile (Mips_soak.Progen.generate ~segments:20 ~seed ())
  in
  let mk () =
    let cpu = Cpu.create ~config:machine_config () in
    if faults then
      Cpu.set_fault_plan cpu
        (Plan.make
           { Plan.quiet with Plan.seed = seed + 7; flaky_rate = 0.01;
             irq_rate = 0.005 });
    Cpu.load_program cpu program;
    cpu
  in
  let cpu = mk () in
  ignore (Hosted.run ~fuel cpu);
  let snap = Snapshot.machine_to_string cpu in
  let cpu' = mk () in
  match Snapshot.restore_machine cpu' snap with
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)
  | Ok () ->
      let snap' = Snapshot.machine_to_string cpu' in
      check_string "restored snapshot is byte-identical" snap snap'

let test_machine_roundtrip () =
  List.iter
    (fun (seed, fuel) ->
      machine_roundtrip ~faults:false seed fuel;
      machine_roundtrip ~faults:true seed fuel)
    [ (1, 17); (2, 100); (3, 999); (4, 5000) ]

let qcheck_machine_roundtrip =
  QCheck.Test.make ~count:25 ~name:"machine snapshot round-trip"
    QCheck.(pair (1 -- 50) (1 -- 2000))
    (fun (seed, fuel) ->
      machine_roundtrip ~faults:(seed mod 2 = 0) seed fuel;
      true)

let test_machine_snapshot_fuzz () =
  (* restoring from damaged payloads must fail typed, never raise *)
  let program = compiled "fib" in
  let cpu = Cpu.create ~config:machine_config () in
  Cpu.load_program cpu program;
  ignore (Hosted.run ~fuel:500 cpu);
  let snap = Snapshot.machine_to_string cpu in
  for len = 0 to min 300 (String.length snap - 1) do
    match Snapshot.restore_machine cpu (String.sub snap 0 len) with
    | Ok _ -> Alcotest.failf "truncated machine payload (%d) restored" len
    | Error (Snapshot.Truncated | Snapshot.Corrupt _) -> ()
    | Error e -> Alcotest.fail (Snapshot.error_to_string e)
  done

(* --- hosted checkpoint/resume ---------------------------------------------- *)

let test_hosted_resume_bit_identical () =
  let program = compiled "fib" in
  let fuel = 200_000 in
  let run_plain () =
    let cpu = Cpu.create ~config:machine_config () in
    Cpu.load_program cpu program;
    let result = Hosted.run ~fuel cpu in
    (result, Snapshot.machine_to_string cpu)
  in
  let reference, ref_snap = run_plain () in
  check "reference halted" true reference.Hosted.halted;
  (* checkpoint every 1000 steps, then restart from a mid-run snapshot *)
  let saved = ref [] in
  let cpu = Cpu.create ~config:machine_config () in
  Cpu.load_program cpu program;
  let checkpointed =
    Hosted.run ~fuel
      ~checkpoint:
        (1000, fun h -> saved := (h, Snapshot.machine_to_string cpu) :: !saved)
      cpu
  in
  check "checkpointing changes nothing" true (checkpointed = reference);
  check "checkpoints were taken" true (List.length !saved > 2);
  let h, machine = List.nth !saved (List.length !saved / 2) in
  let cpu' = Cpu.create ~config:machine_config () in
  Cpu.load_program cpu' program;
  (match Snapshot.restore_machine cpu' machine with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Snapshot.error_to_string e));
  let resumed =
    Hosted.run ~fuel:h.Hosted.h_fuel_left ~resume:h cpu'
  in
  check "resumed result equals uninterrupted" true (resumed = reference);
  check_string "resumed final machine state equals uninterrupted" ref_snap
    (Snapshot.machine_to_string cpu')

(* --- kernel soak kill/resume ----------------------------------------------- *)

let soak_plan =
  { Plan.seed = 23; flip_reg_rate = 0.002; flip_data_rate = 0.002;
    irq_rate = 0.002; page_drop_rate = 0.002; flaky_rate = 0.005;
    max_injections = 0 }

let run_ckpt ?checkpoint ?resume ?max_slices () =
  Mips_soak.Soak.run_checkpointed ~programs:4 ~segments:120 ~steps:100_000
    ~diff_count:3 ~diff_jobs:2 ?checkpoint ~checkpoint_every:400 ?resume
    ?max_slices ~plan:soak_plan ~seed:23 ()

let test_soak_kill_resume () =
  let path = Filename.temp_file "soak" ".ckpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let uninterrupted =
    match run_ckpt () with
    | Ok (Mips_soak.Soak.Complete (s, ds)) -> (s, ds)
    | _ -> Alcotest.fail "uninterrupted run did not complete"
  in
  (* the checkpointed runner with no interruption equals the plain one *)
  let plain =
    Mips_soak.Soak.run_soak ~programs:4 ~segments:120 ~steps:100_000
      ~plan:soak_plan ~seed:23 ()
  in
  check "checkpointed summary equals run_soak" true (fst uninterrupted = plain);
  (* kill after 2 slices (an in-process stand-in for SIGKILL) ... *)
  (match run_ckpt ~checkpoint:path ~max_slices:2 () with
  | Ok Mips_soak.Soak.Interrupted -> ()
  | Ok (Mips_soak.Soak.Complete _) ->
      Alcotest.fail "expected interruption (kernel quiesced too early?)"
  | Error e -> Alcotest.fail (Snapshot.error_to_string e));
  (* ... and resume from its checkpoint: bit-identical end state *)
  (match run_ckpt ~checkpoint:path ~resume:path () with
  | Ok (Mips_soak.Soak.Complete (s, ds)) ->
      check "resumed run equals uninterrupted" true ((s, ds) = uninterrupted)
  | _ -> Alcotest.fail "resume did not complete");
  (* resuming the finished checkpoint returns the stored result *)
  match run_ckpt ~resume:path () with
  | Ok (Mips_soak.Soak.Complete (s, ds)) ->
      check "resume of a done checkpoint" true ((s, ds) = uninterrupted)
  | _ -> Alcotest.fail "done-phase resume failed"

let test_soak_resume_param_mismatch () =
  let path = Filename.temp_file "soak" ".ckpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match run_ckpt ~checkpoint:path ~max_slices:1 () with
  | Ok Mips_soak.Soak.Interrupted -> ()
  | _ -> Alcotest.fail "expected interruption");
  match
    Mips_soak.Soak.run_checkpointed ~programs:4 ~segments:120 ~steps:100_000
      ~diff_count:3 ~resume:path ~plan:soak_plan ~seed:24 (* wrong seed *) ()
  with
  | Error (Snapshot.Corrupt _) -> ()
  | _ -> Alcotest.fail "parameter mismatch accepted"

(* --- supervised jobs ------------------------------------------------------- *)

let test_supervise_fault_free_identity () =
  let xs = List.init 20 Fun.id in
  let f n = n * n in
  let outs =
    Supervise.supervised_map ~jobs:3 ~label:string_of_int f xs
  in
  check "results equal Mips_par.map" true
    (Supervise.oks outs = Mips_par.map ~jobs:3 f xs);
  List.iter
    (fun (o : _ Supervise.outcome) ->
      check_int "one attempt" 1 o.Supervise.attempts;
      check "no quarantine" false o.Supervise.quarantined)
    outs

let test_supervise_retry_then_succeed () =
  let attempts = Hashtbl.create 8 in
  let f n =
    let k = (Hashtbl.find_opt attempts n |> Option.value ~default:0) + 1 in
    Hashtbl.replace attempts n k;
    if n = 2 && k < 3 then failwith "flaky" else n
  in
  let outs =
    Supervise.supervised_map ~jobs:1 ~label:string_of_int f [ 1; 2; 3 ]
  in
  check "all succeed" true (Supervise.oks outs = [ 1; 2; 3 ]);
  let o2 = List.nth outs 1 in
  check_int "flaky job took 3 attempts" 3 o2.Supervise.attempts;
  check_int "two recorded backoffs" 2 (List.length o2.Supervise.backoffs);
  check "backoffs grow" true
    (match o2.Supervise.backoffs with
    | [ b1; b2 ] -> b1 > 0. && b2 > b1
    | _ -> false)

let test_supervise_quarantine () =
  let f n = if n = 1 then failwith "poison" else n in
  let outs = Supervise.supervised_map ~jobs:2 ~label:string_of_int f [ 0; 1; 2 ] in
  let o1 = List.nth outs 1 in
  check "quarantined" true o1.Supervise.quarantined;
  check "error attributed" true
    (match o1.Supervise.result with
    | Error e -> String.length e > 0
    | Ok _ -> false);
  check_int "policy attempts exhausted" Supervise.default_policy.max_attempts
    o1.Supervise.attempts;
  check "rest of the map completed" true
    (Supervise.oks outs = [ 0; 2 ])

let test_supervise_deadline () =
  let f n = if n = 0 then raise (Supervise.Deadline "cycle budget") else n in
  let outs = Supervise.supervised_map ~jobs:1 ~label:string_of_int f [ 0; 1 ] in
  let o0 = List.hd outs in
  check "deadline overrun" true o0.Supervise.deadline_overrun;
  check "no retries on a deterministic overrun" true (o0.Supervise.attempts = 1);
  check "quarantined" true o0.Supervise.quarantined

let test_supervise_circuit_breaker () =
  let policy = { Supervise.default_policy with max_attempts = 1 } in
  let breaker = Policy.Breaker.create ~threshold:2 ~cooldown_s:60. in
  let metrics = Mips_obs.Metrics.create () in
  let f n = if n < 2 then failwith "poison" else n in
  let before = Mips_obs.Metrics.count metrics "supervise.degraded_maps" in
  let outs = Supervise.supervised_map ~policy ~breaker ~metrics ~jobs:2 ~label:string_of_int f [ 0; 1; 2 ] in
  check "two quarantines trip the breaker" true (Policy.Breaker.is_open breaker);
  check "map still completed" true (Supervise.oks outs = [ 2 ]);
  (* the next map degrades to serial but still runs *)
  let outs2 = Supervise.supervised_map ~policy ~breaker ~metrics ~jobs:4 ~label:string_of_int Fun.id [ 7; 8 ] in
  check "degraded map completes" true (Supervise.oks outs2 = [ 7; 8 ]);
  check "degradation counted" true
    (Mips_obs.Metrics.count metrics "supervise.degraded_maps" > before);
  (* past the cooldown, a clean probe closes the breaker *)
  let later = Unix.gettimeofday () +. 120. in
  check "probe after cooldown" true
    (Policy.Breaker.admit breaker ~now:later = Policy.Breaker.Probe);
  Policy.Breaker.record breaker ~now:later ~ok:true;
  check "breaker resets" false (Policy.Breaker.is_open breaker)

let test_supervise_events () =
  let ring, sink = Mips_obs.Sink.ring ~capacity:64 in
  let policy = { Supervise.default_policy with max_attempts = 2 } in
  let f n = if n = 1 then failwith "poison" else n in
  ignore (Supervise.supervised_map ~policy ~jobs:1 ~obs:sink ~label:string_of_int f [ 0; 1 ]);
  let kinds =
    List.map Mips_obs.Event.kind_name (Mips_obs.Sink.ring_contents ring)
  in
  check "retry event emitted" true (List.mem "job_retry" kinds);
  check "quarantine event emitted" true (List.mem "job_quarantined" kinds)

(* --- report warm-up under the supervisor ----------------------------------- *)

let test_report_poison_attribution () =
  let outs =
    Mips_analysis.Report.prepare_supervised ~jobs:2
      ~inject_poison:[ "bad:alpha" ] ()
  in
  let failed = Supervise.failures outs in
  check_int "exactly the poison job failed" 1 (List.length failed);
  check_string "failure attributed by label" "bad:alpha"
    (List.hd failed).Supervise.label

(* --- artifact cache corruption --------------------------------------------- *)

let test_artifact_corruption_detected () =
  let src = (Mips_corpus.Corpus.find "fib").source in
  (* a key private to this test so other suites' hits are undisturbed *)
  let sim = Mips_artifact.simulated ~fuel:123_457 src in
  let clean_cycles = sim.Mips_artifact.stats.Mips_machine.Stats.cycles in
  let before = (Mips_artifact.counters ()).Mips_artifact.corrupt in
  sim.Mips_artifact.stats.Mips_machine.Stats.cycles <- clean_cycles + 1;
  let sim' = Mips_artifact.simulated ~fuel:123_457 src in
  let after = (Mips_artifact.counters ()).Mips_artifact.corrupt in
  check_int "corruption counted" (before + 1) after;
  check "damaged entry evicted, fresh value served" true (sim' != sim);
  check_int "recomputed value is clean" clean_cycles
    sim'.Mips_artifact.stats.Mips_machine.Stats.cycles

(* --- labelled job failure -------------------------------------------------- *)

let test_job_failed_label () =
  match
    Mips_par.map ~jobs:2 ~label:(Printf.sprintf "item-%d")
      (fun n -> if n = 3 then failwith "boom" else n)
      [ 1; 2; 3; 4 ]
  with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Mips_par.Job_failed { label; error } ->
      check_string "failing job named" "item-3" label;
      check "original exception preserved" true
        (match error with Failure m -> String.equal m "boom" | _ -> false)
  | exception e -> raise e

let suite =
  [ ( "resilience.snapshot",
      [ tc "container round-trip" test_container_roundtrip;
        tc "decode truncations" test_decode_truncations;
        tc "decode bit flips" test_decode_bit_flips;
        tc "decode bad magic" test_decode_bad_magic;
        tc "decode bad version" test_decode_bad_version;
        tc "read_file missing" test_read_file_missing;
        tc "machine round-trip" test_machine_roundtrip;
        tc "machine payload fuzz" test_machine_snapshot_fuzz ]
      @ qsuite
          [ qcheck_container_roundtrip; qcheck_decode_total;
            qcheck_machine_roundtrip ] );
    ( "resilience.checkpoint",
      [ tc_slow "hosted resume bit-identical" test_hosted_resume_bit_identical;
        tc_slow "soak kill/resume bit-identical" test_soak_kill_resume;
        tc "soak resume parameter mismatch" test_soak_resume_param_mismatch ] );
    ( "resilience.supervise",
      [ tc "fault-free identity" test_supervise_fault_free_identity;
        tc "retry then succeed" test_supervise_retry_then_succeed;
        tc "quarantine" test_supervise_quarantine;
        tc "deadline" test_supervise_deadline;
        tc "circuit breaker" test_supervise_circuit_breaker;
        tc "events" test_supervise_events;
        tc_slow "report poison attribution" test_report_poison_attribution ] );
    ( "resilience.cache",
      [ tc_slow "artifact corruption detected" test_artifact_corruption_detected;
        tc "labelled job failure" test_job_failed_label ] ) ]
