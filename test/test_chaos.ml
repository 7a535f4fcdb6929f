(* Chaos certification of the daemon stack: the idempotent retrying
   client against a wire-level fault-injection proxy (byte-identity under
   flips, truncations, stalls, duplicates and disconnects), the server's
   request-ID replay window (dedup, eviction), the exhaustive crash-point
   sweep over every journal write boundary, journal fsck repair and
   quarantine, descriptor-leak regression, and frame-stream order/
   duplication properties. *)

open Testutil
module Frame = Mips_daemon.Frame
module Protocol = Mips_daemon.Protocol
module Server = Mips_daemon.Server
module Client = Mips_daemon.Client
module Chaos = Mips_daemon.Chaos
module Journal = Mips_daemon.Journal
module Tenants = Mips_daemon.Tenants
module Snapshot = Mips_resilience.Snapshot
module Rng = Mips_fault.Rng

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mipsd-chaos-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let with_server ?(jobs = 2) ?(queue = 16) ?(quota = Tenants.default_quota)
    ?state_dir ?(checkpoint_every = 50_000) ?(replay_window = 128)
    ?crash_after ?crash_at_op f =
  let socket = Filename.concat (temp_dir ()) "d.sock" in
  let config =
    { (Server.default_config ~socket) with
      Server.jobs;
      queue;
      quota;
      state_dir;
      checkpoint_every;
      replay_window;
      drain_s = 2.;
      test_crash_after_checkpoints = crash_after;
      test_crash_at_op = crash_at_op }
  in
  let t = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop ~drain:false t) @@ fun () ->
  f socket t

let request socket req =
  match
    Client.with_connection socket (fun c ->
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

let kind_of = function
  | Protocol.Pong -> "pong"
  | Protocol.Listing _ -> "listing"
  | Protocol.Ran _ -> "ran"
  | Protocol.Soaked _ -> "soaked"
  | Protocol.Reported _ -> "reported"
  | Protocol.Status_r _ -> "status"
  | Protocol.Bye -> "bye"
  | Protocol.Err (r, m) -> Protocol.reject_to_string r ^ ": " ^ m

let same_bytes a b =
  String.equal (Protocol.encode_response a) (Protocol.encode_response b)

(* a halting program whose work scales with [bound]: the crash-point and
   recovery fixture (distinct bounds give distinct outputs, so a recovery
   answering with the wrong session's bytes cannot pass) *)
let sum_source bound =
  Printf.sprintf
    {|
program sum;
var i, acc : integer;
begin
  acc := 0;
  for i := 1 to %d do
    acc := acc + i;
  writeln(acc)
end.
|}
    bound

(* a program that never halts: fuel-quota fixture (its kill is recorded
   in the replay window, a re-execution would answer differently) *)
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

let fib_source = (Mips_corpus.Corpus.find "fib").Mips_corpus.Corpus.source

(* --- replay window ------------------------------------------------------------ *)

(* The proof of no-re-execution: resend the *same request ID* with a
   different body.  A replay answers with the first body's recorded
   response; a (wrong) re-execution would answer for the new body. *)
let test_replay_same_id_executes_once () =
  let quota = { Tenants.default_quota with Tenants.max_fuel = 200_000 } in
  with_server ~quota @@ fun socket _t ->
  let tag id req = Protocol.Tagged { id; req } in
  (match request socket (tag "dup1" (run_req ~fuel:1_000_000 spin_source)) with
  | Protocol.Err (Protocol.Quota "fuel", _) -> ()
  | resp -> Alcotest.failf "spinner got %s, wanted a fuel-quota kill" (kind_of resp));
  (* same id, different body: must be the recorded kill, not a fib run *)
  (match request socket (tag "dup1" (run_req fib_source)) with
  | Protocol.Err (Protocol.Quota "fuel", _) -> ()
  | resp ->
      Alcotest.failf "same id re-executed instead of replayed: %s" (kind_of resp));
  (* a fresh id executes for real *)
  match request socket (tag "dup2" (run_req fib_source)) with
  | Protocol.Ran _ -> ()
  | resp -> Alcotest.failf "fresh id got %s, wanted Ran" (kind_of resp)

let test_replay_window_eviction () =
  let quota = { Tenants.default_quota with Tenants.max_fuel = 200_000 } in
  with_server ~quota ~replay_window:1 @@ fun socket _t ->
  let tag id req = Protocol.Tagged { id; req } in
  let expect_ran id =
    match request socket (tag id (run_req fib_source)) with
    | Protocol.Ran _ -> ()
    | resp -> Alcotest.failf "%s: got %s, wanted Ran" id (kind_of resp)
  in
  expect_ran "a";
  expect_ran "b" (* window of one: recording b evicts a *);
  (* a was evicted: the same id now executes the new body for real *)
  (match request socket (tag "a" (run_req ~fuel:1_000_000 spin_source)) with
  | Protocol.Err (Protocol.Quota "fuel", _) -> ()
  | resp -> Alcotest.failf "evicted id replayed stale answer: %s" (kind_of resp));
  (* ...and b was evicted in turn by that recording *)
  match request socket (tag "b" (run_req ~fuel:1_000_000 spin_source)) with
  | Protocol.Err (Protocol.Quota "fuel", _) -> ()
  | resp -> Alcotest.failf "evicted id replayed stale answer: %s" (kind_of resp)

(* --- retrying client under chaos ---------------------------------------------- *)

let chaos_policy =
  { Client.attempts = 60;
    base_backoff_s = 0.005;
    max_backoff_s = 0.05;
    deadline_s = 60. }

let test_call_through_chaos_byte_identical () =
  with_server @@ fun socket _t ->
  let clean =
    match Client.call ~policy:chaos_policy socket (run_req fib_source) with
    | Ok resp -> resp
    | Error e -> Alcotest.failf "clean call: %s" (Client.call_error_to_string e)
  in
  (match clean with
  | Protocol.Ran r -> check "clean run halted" true r.Protocol.halted
  | resp -> Alcotest.failf "clean call answered %s" (kind_of resp));
  let dir = Filename.dirname socket in
  (* through one seeded proxy: the reply, and how many faults it injected *)
  let through ~seed ~rate =
    let listen =
      Filename.concat dir (Printf.sprintf "chaos-%d-%g.sock" seed rate)
    in
    let proxy =
      Chaos.start
        { Chaos.listen; upstream = socket; seed; rate; stall_s = 0.02 }
    in
    Fun.protect ~finally:(fun () -> Chaos.stop proxy) @@ fun () ->
    (match Client.call ~policy:chaos_policy listen (run_req fib_source) with
    | Ok resp ->
        check
          (Printf.sprintf "seed %d, rate %g: chaos-proxied run is byte-identical"
             seed rate)
          true (same_bytes clean resp)
    | Error e ->
        Alcotest.failf "seed %d, rate %g: call through chaos failed: %s" seed
          rate (Client.call_error_to_string e));
    Chaos.injected (Chaos.counts proxy)
  in
  check_int "a rate-0 proxy injects nothing" 0 (through ~seed:1 ~rate:0.0);
  ignore (through ~seed:1 ~rate:0.01);
  let injected = ref 0 in
  for seed = 1 to 8 do
    injected := !injected + through ~seed ~rate:0.3
  done;
  check "the sweep actually injected faults" true (!injected > 0)

let test_call_connect_failure_is_typed () =
  let path = Filename.concat (temp_dir ()) "nobody.sock" in
  let policy =
    { Client.attempts = 3; base_backoff_s = 0.01; max_backoff_s = 0.05;
      deadline_s = 10. }
  in
  match Client.call ~policy path Protocol.Ping with
  | Ok resp -> Alcotest.failf "call with no daemon answered %s" (kind_of resp)
  | Error e ->
      (match e.Client.failure with
      | Client.Connect _ -> ()
      | f -> Alcotest.failf "wanted Connect, got %s" (Client.failure_to_string f));
      check_int "all attempts spent" 3 e.Client.call_attempts;
      check "gave up on attempts" true (e.Client.gave_up = `Attempts)

(* --- wait_ready ---------------------------------------------------------------- *)

let test_wait_ready_never_starting () =
  let path = Filename.concat (temp_dir ()) "never.sock" in
  let t0 = Unix.gettimeofday () in
  match Client.wait_ready ~timeout_s:0.5 path with
  | Ok () -> Alcotest.fail "ready without a daemon"
  | Error (`Timed_out elapsed) ->
      check "reported elapsed covers the budget" true (elapsed >= 0.4);
      check "returned promptly after the budget" true
        (Unix.gettimeofday () -. t0 < 5.)

(* a peer that accepts connections but never answers: each poll's receive
   deadline must fire, the overall wait must end typed, not hang *)
let test_wait_ready_unresponsive_listener () =
  let dir = temp_dir () in
  let path = Filename.concat dir "mute.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  match Client.wait_ready ~timeout_s:1.0 path with
  | Ok () -> Alcotest.fail "a mute listener counted as ready"
  | Error (`Timed_out _) ->
      check "bounded despite the mute listener" true
        (Unix.gettimeofday () -. t0 < 10.)

let test_wait_ready_slow_start () =
  let dir = temp_dir () in
  let socket = Filename.concat dir "slow.sock" in
  let started = ref None in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.6;
        started := Some (Server.start (Server.default_config ~socket)))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join starter;
      Option.iter (fun t -> Server.stop ~drain:false t) !started)
  @@ fun () ->
  match Client.wait_ready ~timeout_s:10. socket with
  | Ok () -> ()
  | Error (`Timed_out elapsed) ->
      Alcotest.failf "slow-starting daemon never seen ready (%.1fs)" elapsed

(* --- descriptor-leak regression ------------------------------------------------ *)

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let test_no_fd_leak_over_thousand_connections () =
  with_server @@ fun socket _t ->
  let missing = Filename.concat (Filename.dirname socket) "absent.sock" in
  let before = fd_count () in
  for i = 1 to 1000 do
    match i mod 3 with
    | 0 ->
        (* garbage connection: server answers typed and closes its side *)
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        let junk = "XXXXJUNKJUNKJUNKJUNKJUNKJUNKJUNK" in
        ignore (Unix.write_substring fd junk 0 (String.length junk));
        ignore (Frame.read fd);
        Unix.close fd
    | 1 ->
        (* a full request/response cycle *)
        ignore (request socket Protocol.Ping)
    | _ -> (
        (* a failing connect must not leak the client-side socket *)
        match Client.with_connection missing (fun _ -> Ok ()) with
        | Ok () -> Alcotest.fail "connect to a missing socket succeeded"
        | Error _ -> ())
  done;
  (* let the server-side connection threads finish closing *)
  Thread.delay 0.5;
  let after = fd_count () in
  check
    (Printf.sprintf "fd count stable (%d before, %d after)" before after)
    true
    (after - before < 16)

(* --- frame order/duplication properties ---------------------------------------- *)

(* a concatenated stream of frames decodes back to exactly the payloads
   written, whatever their order or duplication — framing never desyncs *)
let qcheck_frame_stream_order =
  QCheck.Test.make ~count:200
    ~name:"frame streams decode independent of order and duplication"
    QCheck.(
      make
        ~print:(fun l -> String.concat "|" (List.map String.escaped l))
        Gen.(list_size (1 -- 12) (string_size ~gen:char (0 -- 60))))
    (fun payloads ->
      let stream = String.concat "" (List.map Frame.encode payloads) in
      let rec go off acc =
        if off >= String.length stream then Some (List.rev acc)
        else
          match
            Frame.decode (String.sub stream off (String.length stream - off))
          with
          | Ok (p, consumed) -> go (off + consumed) (p :: acc)
          | Error _ -> None
      in
      go 0 [] = Some payloads)

(* pipelined bursts of duplicated / arbitrarily ordered request frames:
   the server answers each one in order and never wedges *)
let test_server_duplicate_reordered_frames () =
  with_server @@ fun socket _t ->
  let pool =
    [| Protocol.encode_request Protocol.Ping;
       Protocol.encode_request Protocol.Status;
       Protocol.encode_request
         (Protocol.Tagged { id = "dup"; req = Protocol.Ping }) |]
  in
  let rng = Rng.create 42 in
  for _round = 1 to 20 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let n = 1 + Rng.int rng 8 in
    let seq = List.init n (fun _ -> pool.(Rng.int rng (Array.length pool))) in
    let burst = String.concat "" (List.map Frame.encode seq) in
    ignore (Unix.write_substring fd burst 0 (String.length burst));
    List.iteri
      (fun k _ ->
        match Frame.read fd with
        | Ok payload -> (
            match Protocol.decode_response payload with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "burst reply %d undecodable: %s" k
                  (Frame.error_to_string e))
        | Error e ->
            Alcotest.failf "burst reply %d: %s" k (Frame.error_to_string e))
      seq
  done;
  match request socket Protocol.Ping with
  | Protocol.Pong -> ()
  | resp -> Alcotest.failf "daemon wedged by bursts: %s" (kind_of resp)

(* a hostile length field is refused from the header alone: no payload
   bytes exist to read, yet [read] answers immediately — and without
   allocating anything near the declared size *)
let test_oversized_rejected_before_payload_allocation () =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
  @@ fun () ->
  let declared = 64 * 1024 * 1024 in
  let header = Buffer.create Frame.header_bytes in
  Buffer.add_string header "MPSD";
  Buffer.add_char header (Char.chr (Frame.version land 0xFF));
  Buffer.add_char header (Char.chr ((Frame.version lsr 8) land 0xFF));
  for k = 0 to 3 do
    Buffer.add_char header (Char.chr ((declared lsr (8 * k)) land 0xFF))
  done;
  Buffer.add_string header (String.make 16 '\x00');
  let h = Buffer.contents header in
  ignore (Unix.write_substring w h 0 (String.length h));
  (* a regression that tries to read the payload would block here *)
  Unix.setsockopt_float r Unix.SO_RCVTIMEO 2.;
  let before = Gc.allocated_bytes () in
  (match Frame.read r with
  | Error (Frame.Oversized n) -> check_int "declared length reported" declared n
  | Error e ->
      Alcotest.failf "wanted Oversized, got %s" (Frame.error_to_string e)
  | Ok _ -> Alcotest.fail "hostile length decoded");
  let allocated = Gc.allocated_bytes () -. before in
  check
    (Printf.sprintf "no payload-sized allocation (%.0f bytes)" allocated)
    true
    (allocated < 1_000_000.)

(* --- exhaustive crash-point sweep ---------------------------------------------- *)

(* One seed of the sweep: a clean reference run counts the journal
   operations; then every operation index in turn becomes a simulated
   kill, the daemon restarts on the surviving journal, and the resubmitted
   session must answer byte-identically to the reference. *)
let crash_sweep_run_session ~seed =
  let source = sum_source (200 + (97 * seed)) in
  let session = Printf.sprintf "cp%d" seed in
  let req = run_req ~session source in
  let reference, total_ops =
    with_server ~state_dir:(temp_dir ()) ~checkpoint_every:2_000
    @@ fun socket t ->
    let resp = request socket req in
    (resp, Server.journal_ops t)
  in
  (match reference with
  | Protocol.Ran r -> check "reference run halts" true r.Protocol.halted
  | resp -> Alcotest.failf "seed %d reference: %s" seed (kind_of resp));
  check (Printf.sprintf "seed %d journals" seed) true (total_ops >= 3);
  for n = 1 to total_ops do
    let dir = temp_dir () in
    let fired =
      with_server ~state_dir:dir ~checkpoint_every:2_000 ~crash_at_op:n
      @@ fun socket t ->
      (match request socket req with
      | Protocol.Err (Protocol.Internal, _) -> ()
      | resp ->
          Alcotest.failf "seed %d op %d: crash answered %s" seed n
            (kind_of resp));
      Server.crash_point_fired t
    in
    check (Printf.sprintf "seed %d op %d fired" seed n) true fired;
    (* a fresh daemon on the surviving journal must converge *)
    with_server ~state_dir:dir ~checkpoint_every:2_000 @@ fun socket _t ->
    let got = request socket req in
    check
      (Printf.sprintf "seed %d op %d: recovery is byte-identical" seed n)
      true (same_bytes reference got)
  done

let test_crash_point_sweep_runs () =
  for seed = 1 to 8 do
    crash_sweep_run_session ~seed
  done

let crash_sweep_soak_session ~seed =
  let session = Printf.sprintf "sc%d" seed in
  let req =
    Protocol.Soak
      { tenant = "t0"; session = Some session; seed; steps = 60_000;
        programs = 2; segments = 16; differential = 0; engine = "ref" }
  in
  let reference, total_ops =
    with_server ~state_dir:(temp_dir ()) ~checkpoint_every:20_000
    @@ fun socket t ->
    let resp = request socket req in
    (resp, Server.journal_ops t)
  in
  (match reference with
  | Protocol.Soaked _ -> ()
  | resp -> Alcotest.failf "soak seed %d reference: %s" seed (kind_of resp));
  check (Printf.sprintf "soak seed %d journals" seed) true (total_ops >= 3);
  for n = 1 to total_ops do
    let dir = temp_dir () in
    let fired =
      with_server ~state_dir:dir ~checkpoint_every:20_000 ~crash_at_op:n
      @@ fun socket t ->
      (match request socket req with
      | Protocol.Err (Protocol.Internal, _) -> ()
      | resp ->
          Alcotest.failf "soak seed %d op %d: crash answered %s" seed n
            (kind_of resp));
      Server.crash_point_fired t
    in
    check (Printf.sprintf "soak seed %d op %d fired" seed n) true fired;
    with_server ~state_dir:dir ~checkpoint_every:20_000 @@ fun socket _t ->
    let got = request socket req in
    check
      (Printf.sprintf "soak seed %d op %d: recovery is byte-identical" seed n)
      true (same_bytes reference got)
  done

let test_crash_point_sweep_soaks () =
  for seed = 1 to 2 do
    crash_sweep_soak_session ~seed
  done

(* --- journal fsck --------------------------------------------------------------- *)

let flip_byte path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  let k = n / 2 in
  Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let write_raw path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let test_fsck_repairs_and_quarantines () =
  let dir = temp_dir () in
  (* a finished session: .done on disk *)
  let fin_ref =
    with_server ~state_dir:dir @@ fun socket _t ->
    request socket (run_req ~session:"fin" (sum_source 300))
  in
  (match fin_ref with
  | Protocol.Ran _ -> ()
  | resp -> Alcotest.failf "finished fixture: %s" (kind_of resp));
  (* a recoverable session: the crash hook leaves .meta + .ckpt *)
  (with_server ~state_dir:dir ~checkpoint_every:1_000 ~crash_after:1
  @@ fun socket _t ->
  match request socket (run_req ~session:"rec" (sum_source 5_000)) with
  | Protocol.Err (Protocol.Internal, _) -> ()
  | resp -> Alcotest.failf "crash fixture: %s" (kind_of resp));
  let file id ext = Filename.concat dir ("session-" ^ id ^ ext) in
  check "crash left a meta" true (Sys.file_exists (file "rec" ".meta"));
  check "crash left a checkpoint" true (Sys.file_exists (file "rec" ".ckpt"));
  (* now the damage: a torn checkpoint on the recoverable session, a
     stale working file on the finished one, an unrecoverable session,
     and an atomic-write leftover *)
  flip_byte (file "rec" ".ckpt");
  write_raw (file "fin" ".meta")
    (Snapshot.encode
       { Snapshot.kind = "mipsd-meta";
         sections = [ ("request", Protocol.encode_request Protocol.Ping) ] });
  write_raw (file "bad" ".meta") "this is not a snapshot container";
  write_raw (file "bad" ".soak") "torn garbage";
  write_raw (file "tmpy" ".ckpt.tmp") "leftover";
  (match Journal.fsck dir with
  | Error msg -> Alcotest.failf "fsck refused: %s" msg
  | Ok r ->
      check_int "sessions scanned" 3 r.Journal.scanned;
      check_int "sessions repaired" 2 r.Journal.repaired;
      check_int "sessions quarantined" 1 r.Journal.quarantined;
      check_int "tmp files removed" 1 r.Journal.tmp_removed);
  check "corrupt checkpoint removed" false (Sys.file_exists (file "rec" ".ckpt"));
  check "recoverable meta kept" true (Sys.file_exists (file "rec" ".meta"));
  check "stale meta of finished session removed" false
    (Sys.file_exists (file "fin" ".meta"));
  check "finished result kept" true (Sys.file_exists (file "fin" ".done"));
  check "unrecoverable meta quarantined" true
    (Sys.file_exists (Filename.concat dir "quarantine/session-bad.meta"));
  check "unrecoverable soak quarantined" true
    (Sys.file_exists (Filename.concat dir "quarantine/session-bad.soak"));
  check "tmp leftover removed" false (Sys.file_exists (file "tmpy" ".ckpt.tmp"));
  (* a second pass finds a clean journal *)
  (match Journal.fsck dir with
  | Error msg -> Alcotest.failf "second fsck refused: %s" msg
  | Ok r ->
      check_int "second pass scans survivors" 2 r.Journal.scanned;
      check_int "second pass all intact" 2 r.Journal.intact;
      check_int "second pass repairs nothing" 0 r.Journal.repaired;
      check_int "second pass quarantines nothing" 0 r.Journal.quarantined);
  (* the daemon itself starts on a journal with fresh damage, recovers
     the recoverable session and serves *)
  write_raw (file "bad2" ".meta") "more torn garbage";
  with_server ~state_dir:dir @@ fun socket _t ->
  check "startup fsck quarantined the newcomer" true
    (Sys.file_exists (Filename.concat dir "quarantine/session-bad2.meta"));
  (match request socket (Protocol.Collect { tenant = "t0"; session = "rec" }) with
  | Protocol.Ran r ->
      check "recovered session halts" true r.Protocol.halted
  | resp -> Alcotest.failf "collect after fsck: %s" (kind_of resp));
  match request socket Protocol.Ping with
  | Protocol.Pong -> ()
  | resp -> Alcotest.failf "daemon unhealthy after fsck: %s" (kind_of resp)

(* An intact container holding a well-formed request, but of another file
   kind, is not a session's request: fsck quarantines it and a daemon
   started on the directory recovers nothing from it. *)
let test_wrong_kind_meta_quarantined () =
  let dir = temp_dir () in
  let file id ext = Filename.concat dir ("session-" ^ id ^ ext) in
  let plant () =
    write_raw (file "odd" ".meta")
      (Snapshot.encode
         { Snapshot.kind = "mipsd-run";
           sections =
             [ ("request",
                Protocol.encode_request (run_req ~session:"odd" (sum_source 10)))
             ] })
  in
  plant ();
  (match Journal.fsck dir with
  | Error msg -> Alcotest.failf "fsck refused: %s" msg
  | Ok r ->
      check_int "sessions scanned" 1 r.Journal.scanned;
      check_int "sessions quarantined" 1 r.Journal.quarantined);
  check "wrong-kind meta quarantined" true
    (Sys.file_exists (Filename.concat dir "quarantine/session-odd.meta"));
  plant ();
  with_server ~state_dir:dir @@ fun socket _t ->
  (match request socket (Protocol.Collect { tenant = "t0"; session = "odd" }) with
  | Protocol.Err (Protocol.Unknown_session, _) -> ()
  | resp -> Alcotest.failf "collect of a wrong-kind meta: %s" (kind_of resp));
  check "no result journalled" false (Sys.file_exists (file "odd" ".done"))

let test_fsck_not_a_directory () =
  match Journal.fsck "/nonexistent/mipsd/state" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fsck of a missing directory succeeded"

let suite =
  [ ( "daemon.replay",
      [ tc_slow "same request id executes once" test_replay_same_id_executes_once;
        tc_slow "bounded window evicts oldest" test_replay_window_eviction ] );
    ( "daemon.chaos",
      [ tc_slow "chaos-proxied calls are byte-identical"
          test_call_through_chaos_byte_identical;
        tc "connect failure is typed" test_call_connect_failure_is_typed;
        tc "wait_ready: never-starting daemon" test_wait_ready_never_starting;
        tc "wait_ready: mute listener" test_wait_ready_unresponsive_listener;
        tc_slow "wait_ready: slow-starting daemon" test_wait_ready_slow_start;
        tc_slow "no fd leak over 1000 connections"
          test_no_fd_leak_over_thousand_connections;
        tc_slow "duplicate and reordered frame bursts"
          test_server_duplicate_reordered_frames;
        tc "oversized refused before payload allocation"
          test_oversized_rejected_before_payload_allocation ]
      @ qsuite [ qcheck_frame_stream_order ] );
    ( "daemon.crashpoints",
      [ tc_slow "every run journal boundary recovers byte-identically"
          test_crash_point_sweep_runs;
        tc_slow "every soak journal boundary recovers byte-identically"
          test_crash_point_sweep_soaks ] );
    ( "daemon.fsck",
      [ tc_slow "repairs, quarantines, daemon survives"
          test_fsck_repairs_and_quarantines;
        tc "missing directory is the only error" test_fsck_not_a_directory;
        tc_slow "wrong-kind meta quarantined, never recovered"
          test_wrong_kind_meta_quarantined ] ) ]
