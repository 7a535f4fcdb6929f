(* The daemon layer: frame codec totality (round-trip, truncation and
   bit-flip corpora), protocol codec round-trips, admission-control load
   shedding, per-tenant quotas and circuit breakers, and the server
   end-to-end over a real Unix socket — remote-vs-local byte identity,
   quota kills with undisturbed neighbors, typed overload within its
   deadline, crash recovery via the in-process kill hook, and clean
   shutdown refusals. *)

open Testutil
module Frame = Mips_daemon.Frame
module Protocol = Mips_daemon.Protocol
module Admission = Mips_daemon.Admission
module Tenants = Mips_daemon.Tenants
module Server = Mips_daemon.Server
module Client = Mips_daemon.Client

(* --- frame codec ------------------------------------------------------------ *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      match Frame.decode (Frame.encode payload) with
      | Ok (p, consumed) ->
          check "payload round-trips" true (String.equal p payload);
          check_int "whole frame consumed" (Frame.header_bytes + String.length payload)
            consumed
      | Error e -> Alcotest.failf "frame decode: %s" (Frame.error_to_string e))
    [ ""; "x"; "hello"; String.make 4096 '\x00'; String.init 256 Char.chr ]

let qcheck_frame_roundtrip =
  QCheck.Test.make ~count:300 ~name:"frame encode/decode round-trip"
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun payload ->
      match Frame.decode (Frame.encode payload) with
      | Ok (p, _) -> String.equal p payload
      | Error _ -> false)

(* every strict prefix of a valid frame is Truncated — never Ok, never an
   escaped exception *)
let test_frame_truncations () =
  let frame = Frame.encode "the payload under truncation" in
  for len = 0 to String.length frame - 1 do
    match Frame.decode (String.sub frame 0 len) with
    | Error Frame.Truncated -> ()
    | Error e ->
        Alcotest.failf "truncation to %d: expected Truncated, got %s" len
          (Frame.error_to_string e)
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" len
  done

(* a flipped bit anywhere in the frame yields a typed error: magic flips
   are Bad_magic, version flips Bad_version, length flips Truncated /
   Oversized / Corrupt, digest and payload flips Corrupt *)
let test_frame_bit_flips () =
  let frame = Frame.encode "bit flip corpus" in
  for i = 0 to String.length frame - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string frame in
      Bytes.set b i (Char.chr (Char.code frame.[i] lxor (1 lsl bit)));
      match Frame.decode (Bytes.unsafe_to_string b) with
      | Error
          ( Frame.Bad_magic | Frame.Bad_version _ | Frame.Oversized _
          | Frame.Corrupt _ | Frame.Truncated ) ->
          ()
      | Error e ->
          Alcotest.failf "flip %d.%d: unexpected error %s" i bit
            (Frame.error_to_string e)
      | Ok _ -> Alcotest.failf "flip %d.%d decoded" i bit
      | exception e ->
          Alcotest.failf "flip %d.%d raised %s" i bit (Printexc.to_string e)
    done
  done

let test_frame_oversized () =
  match Frame.decode ~limit:16 (Frame.encode (String.make 64 'a')) with
  | Error (Frame.Oversized 64) -> ()
  | Error e -> Alcotest.failf "expected Oversized, got %s" (Frame.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized frame decoded"

let qcheck_frame_total_on_junk =
  QCheck.Test.make ~count:500 ~name:"frame decoder is total on junk"
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun junk ->
      match Frame.decode junk with Ok _ | Error _ -> true)

(* --- protocol codec ---------------------------------------------------------- *)

let gen_name = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 12))
let gen_blob = QCheck.Gen.(string_size ~gen:char (0 -- 120))

let gen_codegen =
  QCheck.Gen.(
    map3
      (fun byte early_out level -> { Protocol.byte; early_out; level })
      bool bool (0 -- 3))

let gen_plain_request =
  QCheck.Gen.(
    oneof
      [ return Protocol.Ping;
        return Protocol.Status;
        return Protocol.Shutdown;
        map Protocol.(fun tenant -> Report { tenant }) gen_name;
        map2 Protocol.(fun tenant session -> Collect { tenant; session })
          gen_name gen_name;
        map3 Protocol.(fun tenant source cg -> Compile { tenant; source; cg })
          gen_name gen_blob gen_codegen;
        (let* tenant = gen_name in
         let* session = opt gen_name in
         let* source = gen_blob in
         let* cg = gen_codegen in
         let* input = gen_blob in
         let* fuel = 1 -- 1_000_000_000 in
         let* engine = oneofl [ "ref"; "fast"; "weird" ] in
         return
           (Protocol.Run { tenant; session; source; cg; input; fuel; engine }));
        (let* tenant = gen_name in
         let* session = opt gen_name in
         let* seed = 0 -- 10_000 in
         let* steps = 1 -- 10_000_000 in
         let* programs = 1 -- 32 in
         let* segments = 1 -- 256 in
         let* differential = 0 -- 64 in
         let* engine = oneofl [ "ref"; "fast"; "jit" ] in
         return
           (Protocol.Soak
              { tenant; session; seed; steps; programs; segments; differential;
                engine }))
      ])

(* at most one Tagged envelope deep: the codec rejects nesting *)
let gen_request =
  QCheck.Gen.(
    oneof
      [ gen_plain_request;
        map2
          (fun id req -> Protocol.Tagged { id; req })
          gen_name gen_plain_request ])

let gen_reject =
  QCheck.Gen.(
    oneof
      [ return Protocol.Bad_request;
        return Protocol.Garbled;
        return Protocol.Overloaded;
        map (fun s -> Protocol.Quota s) gen_name;
        return Protocol.Quarantined;
        return Protocol.Too_many_tenants;
        return Protocol.Unknown_session;
        return Protocol.Shutting_down;
        return Protocol.Internal ])

let gen_response =
  QCheck.Gen.(
    oneof
      [ return Protocol.Pong;
        return Protocol.Bye;
        map (fun s -> Protocol.Listing s) gen_blob;
        map (fun s -> Protocol.Soaked s) gen_blob;
        map (fun s -> Protocol.Reported s) gen_blob;
        map (fun s -> Protocol.Status_r s) gen_blob;
        map2 (fun r d -> Protocol.Err (r, d)) gen_reject gen_blob;
        (let* output = gen_blob in
         let* exit_status = opt (0 -- 255) in
         let* halted = bool in
         let* fault = opt gen_name in
         let* cycles = 0 -- 1_000_000_000 in
         let* retries = 0 -- 100 in
         return
           (Protocol.Ran
              { output; exit_status; halted; fault; cycles; retries })) ])

let qcheck_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"request encode/decode round-trip"
    (QCheck.make ~print:Protocol.request_kind gen_request)
    (fun req ->
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok req' -> req = req'
      | Error _ -> false)

let qcheck_response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"response encode/decode round-trip"
    (QCheck.make gen_response)
    (fun resp ->
      match Protocol.decode_response (Protocol.encode_response resp) with
      | Ok resp' -> resp = resp'
      | Error _ -> false)

(* truncating any encoded request yields a typed error, never an escape *)
let test_request_truncations () =
  let reqs =
    [ Protocol.Ping;
      Protocol.Run
        { tenant = "t"; session = Some "s"; source = "program p; begin end.";
          cg = Protocol.default_codegen; input = "x"; fuel = 1000;
          engine = "ref" };
      Protocol.Soak
        { tenant = "t"; session = None; seed = 1; steps = 100; programs = 2;
          segments = 8; differential = 2; engine = "ref" } ]
  in
  List.iter
    (fun req ->
      let data = Protocol.encode_request req in
      for len = 0 to String.length data - 1 do
        match Protocol.decode_request (String.sub data 0 len) with
        | Error (Frame.Truncated | Frame.Corrupt _) -> ()
        | Error e ->
            Alcotest.failf "prefix %d: unexpected %s" len
              (Frame.error_to_string e)
        | Ok _ -> Alcotest.failf "prefix %d of a request decoded" len
        | exception e ->
            Alcotest.failf "prefix %d raised %s" len (Printexc.to_string e)
      done)
    reqs

let qcheck_request_total_on_junk =
  QCheck.Test.make ~count:500 ~name:"request decoder is total on junk"
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun junk ->
      match Protocol.decode_request junk with Ok _ | Error _ -> true)

let qcheck_response_total_on_junk =
  QCheck.Test.make ~count:500 ~name:"response decoder is total on junk"
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun junk ->
      match Protocol.decode_response junk with Ok _ | Error _ -> true)

(* --- admission control ------------------------------------------------------- *)

let wait_running a n =
  let deadline = Unix.gettimeofday () +. 10. in
  while
    (Admission.stats a).Admission.running < n
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.005
  done;
  check_int "worker occupancy" n (Admission.stats a).Admission.running

let test_admission_overload () =
  let a = Admission.create ~jobs:1 ~queue:1 in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let blocker =
    match
      Admission.submit a (fun () ->
          Mutex.lock gate;
          Mutex.unlock gate;
          "ran")
    with
    | Ok t -> t
    | Error _ -> Alcotest.fail "first submission shed"
  in
  wait_running a 1;
  (* queue capacity 1: one more may wait ... *)
  let queued =
    match Admission.submit a (fun () -> "queued") with
    | Ok t -> t
    | Error _ -> Alcotest.fail "queued submission shed"
  in
  (* ... and the next is shed immediately, not parked *)
  let t0 = Unix.gettimeofday () in
  (match Admission.submit a (fun () -> "shed") with
  | Error `Overloaded -> ()
  | Ok _ -> Alcotest.fail "overload submission admitted"
  | Error `Shutting_down -> Alcotest.fail "executor not shutting down");
  check "shed decision is immediate" true (Unix.gettimeofday () -. t0 < 1.);
  check_int "one rejection counted" 1 (Admission.stats a).Admission.rejected;
  Mutex.unlock gate;
  check "blocker result" true (Admission.wait blocker = Ok "ran");
  check "queued result" true (Admission.wait queued = Ok "queued");
  Admission.shutdown a

let test_admission_exception () =
  let a = Admission.create ~jobs:1 ~queue:4 in
  (match Admission.submit a (fun () -> failwith "boom") with
  | Ok t -> (
      match Admission.wait t with
      | Error (Failure msg) -> check_string "original payload" "boom" msg
      | Error e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
      | Ok () -> Alcotest.fail "failing job succeeded")
  | Error _ -> Alcotest.fail "submission shed");
  Admission.shutdown a

let test_admission_shutdown_refuses () =
  let a = Admission.create ~jobs:1 ~queue:4 in
  Admission.shutdown a;
  match Admission.submit a (fun () -> ()) with
  | Error `Shutting_down -> ()
  | Ok _ -> Alcotest.fail "shut-down executor admitted work"
  | Error `Overloaded -> Alcotest.fail "shut-down executor shed as overload"

(* --- tenants: quotas and circuit breakers ------------------------------------ *)

let quota_1 =
  { Tenants.default_quota with
    Tenants.max_concurrent = 1;
    breaker_threshold = 2;
    breaker_cooldown_s = 10. }

let test_tenant_concurrency () =
  let t = Tenants.create ~quota:quota_1 ~max_tenants:4 () in
  check "first admit" true (Tenants.admit t ~now:0. "a" = Ok ());
  (match Tenants.admit t ~now:0. "a" with
  | Error (Protocol.Quota "concurrency", _) -> ()
  | _ -> Alcotest.fail "second in-flight request admitted");
  (* a different tenant is unaffected *)
  check "neighbor admit" true (Tenants.admit t ~now:0. "b" = Ok ());
  Tenants.release t ~now:0. ~failed:false "a";
  check "slot returned" true (Tenants.admit t ~now:0. "a" = Ok ())

let test_tenant_registry_bound () =
  let t = Tenants.create ~quota:quota_1 ~max_tenants:2 () in
  check "a" true (Tenants.admit t ~now:0. "a" = Ok ());
  check "b" true (Tenants.admit t ~now:0. "b" = Ok ());
  match Tenants.admit t ~now:0. "c" with
  | Error (Protocol.Too_many_tenants, _) -> ()
  | _ -> Alcotest.fail "registry bound not enforced"

let test_tenant_breaker () =
  let t = Tenants.create ~quota:quota_1 ~max_tenants:4 () in
  let fail_once now =
    check "admit before failure" true (Tenants.admit t ~now "p" = Ok ());
    Tenants.release t ~now ~failed:true "p"
  in
  fail_once 0.;
  fail_once 1.;
  (* threshold 2 reached: the breaker is open for cooldown_s = 10 *)
  (match Tenants.admit t ~now:2. "p" with
  | Error (Protocol.Quarantined, _) -> ()
  | _ -> Alcotest.fail "poison tenant not quarantined");
  (* neighbors keep full service while p is quarantined *)
  check "neighbor unaffected" true (Tenants.admit t ~now:2. "q" = Ok ());
  Tenants.release t ~now:2. ~failed:false "q";
  (* cooldown over: exactly one probe goes through (half-open) *)
  check "probe admitted" true (Tenants.admit t ~now:20. "p" = Ok ());
  (match Tenants.admit t ~now:20. "p" with
  | Error (Protocol.Quarantined, _) -> ()
  | _ -> Alcotest.fail "second request during half-open admitted");
  (* probe success closes the breaker *)
  Tenants.release t ~now:20. ~failed:false "p";
  check "breaker closed after probe" true (Tenants.admit t ~now:21. "p" = Ok ());
  Tenants.release t ~now:21. ~failed:false "p";
  (* and a failing probe re-opens it for another full cooldown *)
  fail_once 22.;
  fail_once 23.;
  check "probe admitted again" true (Tenants.admit t ~now:40. "p" = Ok ());
  Tenants.release t ~now:40. ~failed:true "p";
  match Tenants.admit t ~now:45. "p" with
  | Error (Protocol.Quarantined, _) -> ()
  | _ -> Alcotest.fail "failed probe did not re-open the breaker"

(* --- server end-to-end -------------------------------------------------------- *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mipsd-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let with_server ?(jobs = 2) ?(queue = 16) ?(max_tenants = 8)
    ?(quota = Tenants.default_quota) ?state_dir ?(checkpoint_every = 50_000)
    ?crash_after f =
  let socket = Filename.concat (temp_dir ()) "d.sock" in
  let config =
    { (Server.default_config ~socket) with
      Server.jobs;
      queue;
      max_tenants;
      quota;
      state_dir;
      checkpoint_every;
      drain_s = 2.;
      test_crash_after_checkpoints = crash_after }
  in
  let t = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop ~drain:false t) @@ fun () ->
  f socket t

let request socket req =
  match Client.with_connection socket (fun c ->
      match Client.request c req with
      | Ok resp -> Ok resp
      | Error e -> Error (Frame.error_to_string e))
  with
  | Ok resp -> resp
  | Error msg -> Alcotest.failf "request failed: %s" msg

let run_req ?session ?(tenant = "t0") ?(fuel = 500_000_000) source =
  Protocol.Run
    { tenant; session; source; cg = Protocol.default_codegen; input = "";
      fuel; engine = "ref" }

(* a program that never halts: the quota and overload fixtures *)
let spin_source =
  {|
program spin;
var i : integer;
begin
  i := 0;
  while i < 2 do begin
    i := i + 1;
    i := i - 1
  end
end.
|}

(* a long (tens of thousands of steps) but halting program: the
   crash-recovery fixture *)
let slow_sum_source =
  {|
program slowsum;
var i, acc : integer;
begin
  acc := 0;
  for i := 1 to 5000 do
    acc := acc + i;
  writeln(acc)
end.
|}

let kind_of = function
  | Protocol.Pong -> "pong"
  | Protocol.Listing _ -> "listing"
  | Protocol.Ran _ -> "ran"
  | Protocol.Soaked _ -> "soaked"
  | Protocol.Reported _ -> "reported"
  | Protocol.Status_r _ -> "status"
  | Protocol.Bye -> "bye"
  | Protocol.Err (r, m) -> Protocol.reject_to_string r ^ ": " ^ m

let test_server_run_matches_local () =
  with_server @@ fun socket _t ->
  let e = Mips_corpus.Corpus.find "fib" in
  let local =
    Mips_machine.Hosted.run_program ~input:e.Mips_corpus.Corpus.input
      (Mips_codegen.Compile.compile e.Mips_corpus.Corpus.source)
  in
  match
    request socket
      (Protocol.Run
         { tenant = "t0"; session = None; source = e.Mips_corpus.Corpus.source;
           cg = Protocol.default_codegen; input = e.Mips_corpus.Corpus.input;
           fuel = 500_000_000; engine = "ref" })
  with
  | Protocol.Ran r ->
      check_string "remote output equals local run"
        local.Mips_machine.Hosted.output r.Protocol.output;
      check "remote halted" true r.Protocol.halted;
      check "remote exit status" true
        (r.Protocol.exit_status = local.Mips_machine.Hosted.exit_status)
  | resp -> Alcotest.failf "unexpected response %s" (kind_of resp)

let test_server_fuel_quota_with_neighbor () =
  (* tight fuel quota; the spinner asks for more than the quota and must be
     killed with a typed reason, while a well-behaved neighbor running
     concurrently gets a response byte-identical to its solo run *)
  let quota =
    { Tenants.default_quota with Tenants.max_fuel = 200_000 }
  in
  let fib = (Mips_corpus.Corpus.find "fib").Mips_corpus.Corpus.source in
  let solo = with_server ~quota @@ fun socket _t ->
    request socket (run_req ~tenant:"good" fib)
  in
  with_server ~quota @@ fun socket _t ->
  let bad_resp = ref Protocol.Pong and good_resp = ref Protocol.Pong in
  let bad =
    Thread.create
      (fun () ->
        bad_resp := request socket (run_req ~tenant:"bad" ~fuel:1_000_000 spin_source))
      ()
  in
  let good =
    Thread.create
      (fun () -> good_resp := request socket (run_req ~tenant:"good" fib))
      ()
  in
  Thread.join bad;
  Thread.join good;
  (match !bad_resp with
  | Protocol.Err (Protocol.Quota "fuel", _) -> ()
  | resp -> Alcotest.failf "spinner got %s, wanted a fuel-quota kill" (kind_of resp));
  check "neighbor response is byte-identical to its solo run" true
    (String.equal
       (Protocol.encode_response solo)
       (Protocol.encode_response !good_resp))

let test_server_wall_quota () =
  (* a zero wall budget trips the deadline watchdog on the first
     checkpoint slice *)
  let quota = { Tenants.default_quota with Tenants.max_wall_s = 0. } in
  with_server ~quota ~checkpoint_every:1_000 @@ fun socket _t ->
  match request socket (run_req ~fuel:100_000 spin_source) with
  | Protocol.Err (Protocol.Quota "deadline", _) -> ()
  | resp -> Alcotest.failf "got %s, wanted a deadline kill" (kind_of resp)

let test_server_output_quota () =
  (* the output budget is enforced mid-run by the same watchdog *)
  let chatty =
    {|
program chatty;
var i : integer;
begin
  for i := 1 to 2000 do
    writeln(i)
end.
|}
  in
  let quota = { Tenants.default_quota with Tenants.max_output = 500 } in
  with_server ~quota ~checkpoint_every:1_000 @@ fun socket _t ->
  match request socket (run_req chatty) with
  | Protocol.Err (Protocol.Quota "memory", _) -> ()
  | resp -> Alcotest.failf "got %s, wanted a memory kill" (kind_of resp)

let test_server_overload_within_deadline () =
  (* one worker, no queue: while the spinner occupies the worker, every
     request from 4 concurrent clients is shed with a typed Overloaded
     answer, each within 1 s *)
  with_server ~jobs:1 ~queue:0 @@ fun socket _t ->
  let fib = (Mips_corpus.Corpus.find "fib").Mips_corpus.Corpus.source in
  let spinner =
    Thread.create
      (fun () ->
        ignore (request socket (run_req ~tenant:"hog" ~fuel:60_000_000 spin_source)))
      ()
  in
  Thread.delay 0.4;
  let clients, per_client = (4, 3) in
  let replies = Array.make (clients * per_client) (Ok Protocol.Pong, 0.) in
  let client c =
    Thread.create
      (fun () ->
        for r = 0 to per_client - 1 do
          let t0 = Unix.gettimeofday () in
          let reply =
            Client.with_connection socket (fun conn ->
                Result.map_error Frame.error_to_string
                  (Client.request conn
                     (run_req ~tenant:(Printf.sprintf "victim%d" c) fib)))
          in
          replies.((c * per_client) + r) <- (reply, Unix.gettimeofday () -. t0)
        done)
      ()
  in
  List.iter Thread.join (List.init clients client);
  Array.iteri
    (fun i (reply, elapsed) ->
      (match reply with
      | Ok (Protocol.Err (Protocol.Overloaded, _)) -> ()
      | Ok resp -> Alcotest.failf "request %d got %s, wanted Overloaded" i (kind_of resp)
      | Error msg -> Alcotest.failf "request %d failed in transport: %s" i msg);
      if elapsed >= 1. then
        Alcotest.failf "request %d shed after %.3f s, over the 1 s bound" i elapsed)
    replies;
  Thread.join spinner

let test_server_bad_frames_do_not_kill () =
  with_server @@ fun socket _t ->
  (* raw garbage: the server answers with a typed refusal and closes *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let junk = "XXXXJUNKJUNKJUNKJUNKJUNKJUNKJUNK" in
  ignore (Unix.write_substring fd junk 0 (String.length junk));
  (match Frame.read fd with
  | Ok payload -> (
      match Protocol.decode_response payload with
      | Ok (Protocol.Err (Protocol.Garbled, _)) -> ()
      | _ -> Alcotest.fail "garbage not answered with Garbled")
  | Error e ->
      Alcotest.failf "no typed answer to garbage: %s" (Frame.error_to_string e));
  Unix.close fd;
  (* a truncated frame: write half a valid frame and hang up *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let frame = Frame.encode (Protocol.encode_request Protocol.Ping) in
  ignore (Unix.write_substring fd frame 0 (String.length frame / 2));
  Unix.close fd;
  (* a frame with a corrupted payload *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let b = Bytes.of_string frame in
  Bytes.set b (Bytes.length b - 1)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
  ignore (Unix.write fd b 0 (Bytes.length b));
  (match Frame.read fd with
  | Ok payload -> (
      match Protocol.decode_response payload with
      | Ok (Protocol.Err (Protocol.Garbled, _)) -> ()
      | _ -> Alcotest.fail "corrupt frame not answered with Garbled")
  | Error _ -> ());
  Unix.close fd;
  (* after all of that the daemon still serves *)
  match request socket Protocol.Ping with
  | Protocol.Pong -> ()
  | resp -> Alcotest.failf "daemon damaged by malformed input: %s" (kind_of resp)

let test_server_session_crash_recovery () =
  (* the in-process stand-in for SIGKILL: the job aborts after two
     checkpoint writes, the session's journal and checkpoint survive, and
     a fresh server on the same state directory finishes the session
     bit-identically to an uninterrupted solo run *)
  let state_dir = temp_dir () in
  let solo = with_server @@ fun socket _t ->
    request socket (run_req slow_sum_source)
  in
  (match solo with
  | Protocol.Ran r -> check "solo run halts" true r.Protocol.halted
  | resp -> Alcotest.failf "solo run: %s" (kind_of resp));
  (* first life: crash mid-session *)
  (with_server ~state_dir ~checkpoint_every:2_000 ~crash_after:2
  @@ fun socket _t ->
  match request socket (run_req ~session:"cr1" slow_sum_source) with
  | Protocol.Err (Protocol.Internal, _) -> ()
  | resp -> Alcotest.failf "crash hook: %s" (kind_of resp));
  check "checkpoint survives the crash" true
    (Sys.file_exists (Filename.concat state_dir "session-cr1.ckpt"));
  check "journal survives the crash" true
    (Sys.file_exists (Filename.concat state_dir "session-cr1.meta"));
  (* second life: recovery resumes the session; collect returns the result *)
  with_server ~state_dir ~checkpoint_every:2_000 @@ fun socket _t ->
  let resp =
    request socket (Protocol.Collect { tenant = "t0"; session = "cr1" })
  in
  check "recovered result is byte-identical to the solo run" true
    (String.equal
       (Protocol.encode_response solo)
       (Protocol.encode_response resp));
  (* the finished session is idempotent: re-submitting replays the result *)
  let again = request socket (run_req ~session:"cr1" slow_sum_source) in
  check "resubmitted session replays the result" true
    (String.equal
       (Protocol.encode_response solo)
       (Protocol.encode_response again))

(* A one-worker daemon runs every job on the machines its single worker
   Domain keeps, so each job starts on whatever the previous one left:
   a byte-addressed run and a jit run first, then three sessions crashed
   after two checkpoints.  The second life recovers them in name order on
   its one worker, so the last resumes onto a machine a jit session of
   another program just dirtied.  Each collected result must equal an
   uninterrupted local run. *)
let test_server_resume_on_reused_worker () =
  let state_dir = temp_dir () in
  let word = Protocol.default_codegen in
  let byte = { word with Protocol.byte = true } in
  let run ?session ~cg ~engine source =
    Protocol.Run
      { tenant = "t0"; session; source; cg; input = ""; fuel = 500_000_000;
        engine }
  in
  let fib = (Mips_corpus.Corpus.find "fib").Mips_corpus.Corpus.source in
  let sessions =
    [ ("a-byte", byte, "ref", fib); ("b-jit", word, "jit", fib);
      ("c-ref", word, "ref", slow_sum_source) ]
  in
  (with_server ~jobs:1 ~state_dir ~checkpoint_every:2_000 ~crash_after:2
  @@ fun socket _t ->
  List.iter
    (fun (cg, engine) ->
      match request socket (run ~cg ~engine fib) with
      | Protocol.Ran r -> check "warm-up run halts" true r.Protocol.halted
      | resp -> Alcotest.failf "warm-up %s run: %s" engine (kind_of resp))
    [ (byte, "ref"); (word, "jit") ];
  List.iter
    (fun (id, cg, engine, source) ->
      match request socket (run ~session:id ~cg ~engine source) with
      | Protocol.Err (Protocol.Internal, _) ->
          check (id ^ " checkpoint survives the crash") true
            (Sys.file_exists
               (Filename.concat state_dir ("session-" ^ id ^ ".ckpt")))
      | resp -> Alcotest.failf "crash hook on %s: %s" id (kind_of resp))
    sessions);
  with_server ~jobs:1 ~state_dir ~checkpoint_every:2_000 @@ fun socket _t ->
  List.iter
    (fun (id, (cg : Protocol.codegen), engine, source) ->
      let config =
        if cg.Protocol.byte then Mips_ir.Config.byte_machine
        else Mips_ir.Config.default
      in
      let cpu =
        Mips_machine.Cpu.create
          ~config:(Mips_codegen.Compile.machine_config config) ()
      in
      let local =
        Mips_machine.Hosted.run_program_on
          ~engine:(Option.get (Mips_machine.Cpu.engine_of_string engine))
          cpu
          (Mips_artifact.compiled ~config source)
      in
      match request socket (Protocol.Collect { tenant = "t0"; session = id }) with
      | Protocol.Ran r ->
          check_string (id ^ " output") local.Mips_machine.Hosted.output
            r.Protocol.output;
          check (id ^ " exit status") true
            (r.Protocol.exit_status = local.Mips_machine.Hosted.exit_status);
          check (id ^ " halted") true r.Protocol.halted;
          check (id ^ " no fault") true (r.Protocol.fault = None);
          check_int (id ^ " cycles")
            (Mips_machine.Cpu.stats cpu).Mips_machine.Stats.cycles
            r.Protocol.cycles;
          check_int (id ^ " retries") local.Mips_machine.Hosted.retries
            r.Protocol.retries
      | resp -> Alcotest.failf "collect %s: %s" id (kind_of resp))
    sessions

let test_server_unknown_session_and_ownership () =
  let state_dir = temp_dir () in
  with_server ~state_dir @@ fun socket _t ->
  (match request socket (Protocol.Collect { tenant = "t0"; session = "nope" })
   with
  | Protocol.Err (Protocol.Unknown_session, _) -> ()
  | resp -> Alcotest.failf "got %s, wanted Unknown_session" (kind_of resp));
  (match request socket (run_req ~session:"owned" slow_sum_source) with
  | Protocol.Ran _ -> ()
  | resp -> Alcotest.failf "session run: %s" (kind_of resp));
  match request socket (Protocol.Collect { tenant = "thief"; session = "owned" })
  with
  | Protocol.Err (Protocol.Bad_request, _) -> ()
  | resp -> Alcotest.failf "foreign collect got %s" (kind_of resp)

let test_server_soak_matches_local () =
  (* a daemon soak is byte-identical to the local `mipsc soak --json`
     pipeline at equal parameters: both print Soak.result_json *)
  let seed = 5 and steps = 150_000 and programs = 4 and segments = 24 in
  let differential = 2 in
  let plan =
    { Mips_fault.Plan.seed; flip_reg_rate = 0.002; flip_data_rate = 0.002;
      irq_rate = 0.002; page_drop_rate = 0.002; flaky_rate = 0.005;
      max_injections = 0 }
  in
  let expected =
    match
      Mips_soak.Soak.run_checkpointed ~programs ~segments ~quantum:500 ~steps
        ~diff_count:differential ~diff_jobs:1 ~plan ~seed ()
    with
    | Ok (Mips_soak.Soak.Complete (s, diffs)) ->
        Mips_obs.Json.to_string (Mips_soak.Soak.result_json s diffs)
    | Ok Mips_soak.Soak.Interrupted -> Alcotest.fail "local soak interrupted"
    | Error e -> Alcotest.failf "local soak: %s" (Mips_resilience.Snapshot.error_to_string e)
  in
  with_server @@ fun socket _t ->
  match
    request socket
      (Protocol.Soak
         { tenant = "t0"; session = None; seed; steps; programs; segments;
           differential; engine = "ref" })
  with
  | Protocol.Soaked json ->
      check "daemon soak equals local soak JSON" true (String.equal expected json)
  | resp -> Alcotest.failf "soak: %s" (kind_of resp)

let test_server_soak_jit_matches_local () =
  (* the engine choice travels the wire: a remote jit soak is byte-identical
     to the same soak run in-process with [~engine:Cpu.Jit] — trace
     compilation on the daemon side must not perturb a single byte of the
     differential/soak summary *)
  let seed = 11 and steps = 150_000 and programs = 4 and segments = 24 in
  let differential = 2 in
  let plan =
    { Mips_fault.Plan.seed; flip_reg_rate = 0.002; flip_data_rate = 0.002;
      irq_rate = 0.002; page_drop_rate = 0.002; flaky_rate = 0.005;
      max_injections = 0 }
  in
  let expected =
    match
      Mips_soak.Soak.run_checkpointed ~programs ~segments ~quantum:500 ~steps
        ~diff_count:differential ~diff_jobs:1
        ~engine:Mips_machine.Cpu.Jit ~plan ~seed ()
    with
    | Ok (Mips_soak.Soak.Complete (s, diffs)) ->
        Mips_obs.Json.to_string (Mips_soak.Soak.result_json s diffs)
    | Ok Mips_soak.Soak.Interrupted -> Alcotest.fail "local soak interrupted"
    | Error e -> Alcotest.failf "local soak: %s" (Mips_resilience.Snapshot.error_to_string e)
  in
  with_server @@ fun socket _t ->
  match
    request socket
      (Protocol.Soak
         { tenant = "t0"; session = None; seed; steps; programs; segments;
           differential; engine = "jit" })
  with
  | Protocol.Soaked json ->
      check "daemon jit soak equals local jit soak JSON" true
        (String.equal expected json)
  | resp -> Alcotest.failf "soak: %s" (kind_of resp)

let test_server_validation_and_status () =
  with_server @@ fun socket _t ->
  (match request socket (run_req ~tenant:"bad tenant!" "x") with
  | Protocol.Err (Protocol.Bad_request, _) -> ()
  | resp -> Alcotest.failf "invalid tenant admitted: %s" (kind_of resp));
  (match request socket (run_req ~fuel:0 "x") with
  | Protocol.Err (Protocol.Bad_request, _) -> ()
  | resp -> Alcotest.failf "zero fuel admitted: %s" (kind_of resp));
  (* sessions are refused when no state dir is configured... via run *)
  (match request socket Protocol.Status with
  | Protocol.Status_r json ->
      check "status is the documented schema" true
        (Mips_obs.Json.of_string json
        |> function
        | Ok j -> (
            match Mips_obs.Json.member "schema" j with
            | Some (Mips_obs.Json.Str "mipsd-status/1") -> true
            | _ -> false)
        | Error _ -> false)
  | resp -> Alcotest.failf "status: %s" (kind_of resp));
  match request socket Protocol.Ping with
  | Protocol.Pong -> ()
  | resp -> Alcotest.failf "ping: %s" (kind_of resp)

let test_server_shutdown_refusal () =
  with_server @@ fun socket t ->
  Server.request_stop t;
  let fib = (Mips_corpus.Corpus.find "fib").Mips_corpus.Corpus.source in
  match request socket (run_req fib) with
  | Protocol.Err (Protocol.Shutting_down, _) -> ()
  | resp -> Alcotest.failf "draining daemon answered %s" (kind_of resp)

let suite =
  [ ( "daemon.frame",
      [ tc "round-trip samples" test_frame_roundtrip;
        tc "decode truncations" test_frame_truncations;
        tc "decode bit flips" test_frame_bit_flips;
        tc "oversized rejected before allocation" test_frame_oversized ]
      @ qsuite [ qcheck_frame_roundtrip; qcheck_frame_total_on_junk ] );
    ( "daemon.protocol",
      [ tc "request truncations" test_request_truncations ]
      @ qsuite
          [ qcheck_request_roundtrip;
            qcheck_response_roundtrip;
            qcheck_request_total_on_junk;
            qcheck_response_total_on_junk ] );
    ( "daemon.admission",
      [ tc "bounded queue sheds immediately" test_admission_overload;
        tc "job exception propagates" test_admission_exception;
        tc "shutdown refuses new work" test_admission_shutdown_refuses ] );
    ( "daemon.tenants",
      [ tc "concurrency quota" test_tenant_concurrency;
        tc "registry bound" test_tenant_registry_bound;
        tc "circuit breaker lifecycle" test_tenant_breaker ] );
    ( "daemon.server",
      [ tc_slow "remote run matches local" test_server_run_matches_local;
        tc_slow "fuel quota kill, neighbor byte-identical"
          test_server_fuel_quota_with_neighbor;
        tc_slow "wall-clock quota kill" test_server_wall_quota;
        tc_slow "output quota kill" test_server_output_quota;
        tc_slow "overload shed within deadline"
          test_server_overload_within_deadline;
        tc_slow "malformed frames never crash the daemon"
          test_server_bad_frames_do_not_kill;
        tc_slow "crash recovery is bit-identical"
          test_server_session_crash_recovery;
        tc_slow "resume on a reused worker is bit-identical"
          test_server_resume_on_reused_worker;
        tc_slow "unknown session and ownership"
          test_server_unknown_session_and_ownership;
        tc_slow "daemon soak equals local soak" test_server_soak_matches_local;
        tc_slow "daemon jit soak equals local jit soak"
          test_server_soak_jit_matches_local;
        tc_slow "validation and status" test_server_validation_and_status;
        tc_slow "shutdown refuses with a typed answer"
          test_server_shutdown_refusal ] ) ]
