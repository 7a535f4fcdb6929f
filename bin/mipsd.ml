(* mipsd — the fault-tolerant multi-tenant simulation daemon.

   mipsd serve --socket PATH       run the daemon (SIGTERM drains cleanly)
   mipsd ping [--wait S]           liveness probe (the startup barrier)
   mipsd status                    daemon status as JSON
   mipsd run FILE                  compile + execute on the daemon
   mipsd compile FILE              compile and print the listing
   mipsd soak --session NAME       checkpointed kernel/differential soak
   mipsd report                    the full evaluation report as JSON
   mipsd collect SESSION           fetch a session's (possibly recovered) result
   mipsd load FILE                 concurrent load generator with latencies
   mipsd chaos --upstream PATH     wire-level fault-injection proxy
   mipsd fsck STATE_DIR            check and repair the session journal
   mipsd stop                      ask the daemon to shut down

   Client commands exit with the standardized codes (see --help): 6 when
   the socket cannot be reached, 7 when the daemon shed the request
   (overload, quarantine, drain), 8 on a broken frame, 3 on a quota kill
   or out-of-fuel run, 2 on a refused request.

   Sessions: `run --session`/`soak --session` checkpoint under the
   daemon's --state-dir; a daemon killed with SIGKILL mid-session and
   restarted on the same directory resumes the work and completes it
   bit-identically — `collect` then fetches the result. *)

open Cmdliner
module Server = Mips_daemon.Server
module Client = Mips_daemon.Client
module Tenants = Mips_daemon.Tenants
module Protocol = Mips_daemon.Protocol
module Frame = Mips_daemon.Frame

open Compile_args

let read_source = read_source ~prog:"mipsd"

(* --- common flags ------------------------------------------------------------ *)

let socket_flag =
  Arg.(
    value & opt string "mipsd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix socket the daemon listens on (default $(b,mipsd.sock)).")

let tenant_flag =
  Arg.(
    value & opt string "default"
    & info [ "tenant" ] ~docv:"NAME"
        ~doc:
          "Tenant to bill the request to — quotas, concurrency and the \
           circuit breaker are per tenant.")

let session_flag =
  Arg.(
    value & opt (some string) None
    & info [ "session" ] ~docv:"NAME"
        ~doc:
          "Name a resumable session: the daemon checkpoints the work under \
           its state directory and a killed-and-restarted daemon finishes \
           it bit-identically ($(b,mipsd collect) fetches the result).")

(* Retry policy for client commands: mutating requests ride the Tagged
   idempotency envelope, so resending after a wire fault (or across a
   daemon restart) is safe — the daemon answers retries from its replay
   window or its session journal instead of executing twice. *)
let policy_term =
  let make retries deadline =
    { Client.default_policy with Client.attempts = retries;
      deadline_s = deadline }
  in
  Term.(
    const make
    $ Arg.(
        value & opt int Client.default_policy.Client.attempts
        & info [ "retries" ] ~docv:"N"
            ~doc:
              "Connection/request attempts before giving up (default 10).  \
               Retries are idempotent: a request executed once is never \
               executed twice.")
    $ Arg.(
        value & opt float Client.default_policy.Client.deadline_s
        & info [ "deadline" ] ~docv:"S"
            ~doc:
              "Total wall-clock budget across all attempts (default 60).  \
               Exhaustion exits 9."))

(* --- serve ------------------------------------------------------------------- *)

let serve_cmd =
  let serve socket jobs queue max_tenants state_dir checkpoint_every
      idle_evict drain max_fuel max_output max_concurrent max_wall
      breaker_threshold breaker_cooldown replay_window test_crash
      test_crash_at_op =
    let quota =
      {
        Tenants.max_fuel;
        max_output;
        max_concurrent;
        max_wall_s = max_wall;
        breaker_threshold;
        breaker_cooldown_s = breaker_cooldown;
      }
    in
    let config =
      {
        (Server.default_config ~socket) with
        Server.jobs;
        queue;
        max_tenants;
        quota;
        state_dir;
        checkpoint_every;
        idle_evict_s = idle_evict;
        drain_s = drain;
        replay_window;
        test_crash_after_checkpoints = test_crash;
        test_crash_at_op;
      }
    in
    let t =
      try Server.start config
      with Sys_error msg ->
        Printf.eprintf "mipsd: %s\n" msg;
        exit Exit_code.usage
    in
    let stop_signal _ = Server.request_stop t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
    Printf.eprintf "mipsd: listening on %s (%d jobs, queue %d, %d tenants%s)\n%!"
      socket jobs queue max_tenants
      (match state_dir with
      | Some d -> Printf.sprintf ", sessions in %s" d
      | None -> ", sessions disabled");
    Server.wait_stopped t;
    Printf.eprintf "mipsd: draining (deadline %.1fs)\n%!" drain;
    Server.stop ~drain:true t;
    Printf.eprintf "mipsd: stopped\n%!"
  in
  Cmd.v
    (Cmd.info "serve" ~exits:Exit_code.infos
       ~doc:
         "Run the daemon: accept concurrent compile/run/soak/report/status \
          requests over the socket, with per-tenant quotas, admission \
          control, circuit breakers and crash-recoverable sessions.  \
          SIGTERM (or $(b,mipsd stop)) drains in-flight work and exits.")
    Term.(
      const serve $ socket_flag
      $ Arg.(
          value & opt int 4
          & info [ "jobs" ; "j" ] ~docv:"N"
              ~doc:"Worker domains executing admitted requests (default 4).")
      $ Arg.(
          value & opt int 16
          & info [ "queue" ] ~docv:"N"
              ~doc:
                "Admitted requests that may wait for a worker (default 16); \
                 beyond this, load is shed with a typed $(i,overloaded) \
                 refusal, never queued into unbounded latency.")
      $ Arg.(
          value & opt int 64
          & info [ "max-tenants" ] ~docv:"K"
              ~doc:"Tenant registry bound (default 64).")
      $ Arg.(
          value & opt (some string) None
          & info [ "state-dir" ] ~docv:"DIR"
              ~doc:
                "Session journal and checkpoint directory.  A daemon killed \
                 (even with SIGKILL) and restarted on the same $(docv) \
                 resumes every in-flight session and completes it \
                 bit-identically.  Omitted: sessions are refused.")
      $ Arg.(
          value & opt int 50_000
          & info [ "checkpoint-every" ] ~docv:"STEPS"
              ~doc:
                "Machine steps between session checkpoints (default 50000). \
                 Slicing never changes results.")
      $ Arg.(
          value & opt float 300.
          & info [ "idle-evict" ] ~docv:"S"
              ~doc:
                "Seconds a finished session may sit uncollected in memory \
                 before eviction (default 300; journalled results remain \
                 collectable from disk).")
      $ Arg.(
          value & opt float 10.
          & info [ "drain" ] ~docv:"S"
              ~doc:"Shutdown drain deadline in seconds (default 10).")
      $ Arg.(
          value & opt int Tenants.default_quota.Tenants.max_fuel
          & info [ "max-fuel" ] ~docv:"STEPS"
              ~doc:
                "Per-request machine-step quota (default 500000000).  A \
                 request asking for more is clamped and killed with a typed \
                 $(i,quota) reason when the clamp binds.")
      $ Arg.(
          value & opt int Tenants.default_quota.Tenants.max_output
          & info [ "max-output" ] ~docv:"BYTES"
              ~doc:
                "Per-request output/memory quota in bytes (default 4000000), \
                 enforced during execution by a watchdog.")
      $ Arg.(
          value & opt int Tenants.default_quota.Tenants.max_concurrent
          & info [ "max-concurrent" ] ~docv:"N"
              ~doc:"In-flight requests per tenant (default 4).")
      $ Arg.(
          value & opt float Tenants.default_quota.Tenants.max_wall_s
          & info [ "max-wall" ] ~docv:"S"
              ~doc:"Wall-clock watchdog per request in seconds (default 120).")
      $ Arg.(
          value & opt int Tenants.default_quota.Tenants.breaker_threshold
          & info [ "breaker-threshold" ] ~docv:"N"
              ~doc:
                "Consecutive failures that open a tenant's circuit breaker \
                 (default 5) — the tenant is then quarantined without \
                 degrading its neighbors.")
      $ Arg.(
          value & opt float Tenants.default_quota.Tenants.breaker_cooldown_s
          & info [ "breaker-cooldown" ] ~docv:"S"
              ~doc:
                "Seconds an open breaker refuses before letting one probe \
                 through (default 30).")
      $ Arg.(
          value & opt int 128
          & info [ "replay-window" ] ~docv:"N"
              ~doc:
                "Recorded responses kept per tenant for request-ID \
                 deduplication (default 128) — what makes client retries \
                 idempotent.")
      $ Arg.(
          value & opt (some int) None
          & info [ "test-crash-after" ] ~docv:"N"
              ~doc:
                "Test hook: abort a session's job after $(docv) checkpoint \
                 writes — the in-process stand-in for SIGKILL used by the \
                 crash-recovery tests.")
      $ Arg.(
          value & opt (some int) None
          & info [ "test-crash-at-op" ] ~docv:"N"
              ~doc:
                "Test hook: simulate a kill immediately before journal \
                 operation $(docv) — the crash-point harness sweeps this \
                 to visit every journal write boundary.")
      )

(* --- client commands ---------------------------------------------------------- *)

let ping_cmd =
  let ping socket policy wait =
    match wait with
    | Some timeout_s -> (
        match Client.wait_ready ~timeout_s socket with
        | Ok () -> print_endline "pong"
        | Error (`Timed_out elapsed) ->
            Printf.eprintf "mipsd: no daemon on %s after %.1fs\n" socket
              elapsed;
            exit Exit_code.connect)
    | None -> (
        match
          Remote.request_or_die ~policy ~prog:"mipsd" socket Protocol.Ping
        with
        | Protocol.Pong -> print_endline "pong"
        | _ -> Remote.unexpected ~prog:"mipsd" "ping")
  in
  Cmd.v
    (Cmd.info "ping" ~exits:Exit_code.infos
       ~doc:
         "Probe the daemon; with $(b,--wait) poll until it answers or the \
          timeout expires (the startup barrier for scripts).")
    Term.(
      const ping $ socket_flag $ policy_term
      $ Arg.(
          value
          & opt ~vopt:(Some 10.) (some float) None
          & info [ "wait" ] ~docv:"S"
              ~doc:"Poll for up to $(docv) seconds (default 10)."))

let status_cmd =
  let status socket policy =
    match
      Remote.request_or_die ~policy ~prog:"mipsd" socket Protocol.Status
    with
    | Protocol.Status_r json -> print_endline json
    | _ -> Remote.unexpected ~prog:"mipsd" "status"
  in
  Cmd.v
    (Cmd.info "status" ~exits:Exit_code.infos
       ~doc:
         "Print the daemon's status as JSON: admission counters, per-tenant \
          breaker states, session table and latency histograms.")
    Term.(const status $ socket_flag $ policy_term)

let run_cmd =
  let run socket policy tenant session describe =
    let file, desc = describe () in
    Remote.finish ~prog:"mipsd" ~file ~extra:ignore
      (Remote.run ~policy ~prog:"mipsd" ~tenant ~session socket desc)
  in
  Cmd.v
    (Cmd.info "run" ~exits:Exit_code.infos
       ~doc:
         "Compile and execute a program on the daemon.  Guest output goes \
          to standard output and the guest's exit status becomes the exit \
          code, exactly like a local $(b,mipsc run).")
    Term.(
      const run $ socket_flag $ policy_term $ tenant_flag $ session_flag
      $ run_term ~prog:"mipsd")

let compile_cmd =
  let compile socket policy tenant file byte early_out level =
    let req =
      Protocol.Compile
        { tenant; source = read_source file;
          cg = { Protocol.byte; early_out; level } }
    in
    match Remote.request_or_die ~policy ~prog:"mipsd" socket req with
    | Protocol.Listing s -> print_string s
    | _ -> Remote.unexpected ~prog:"mipsd" "compile"
  in
  Cmd.v
    (Cmd.info "compile" ~exits:Exit_code.infos
       ~doc:"Compile on the daemon and print the final machine listing.")
    Term.(
      const compile $ socket_flag $ policy_term $ tenant_flag $ file_arg
      $ byte_flag
      $ early_flag $ level_flag)

let soak_cmd =
  let soak socket policy tenant session seed steps programs segments
      differential engine =
    let req =
      Protocol.Soak
        { tenant; session; seed; steps; programs; segments; differential;
          engine = Mips_machine.Cpu.engine_name engine }
    in
    match Remote.request_or_die ~policy ~prog:"mipsd" socket req with
    | Protocol.Soaked json -> print_endline json
    | _ -> Remote.unexpected ~prog:"mipsd" "soak"
  in
  Cmd.v
    (Cmd.info "soak" ~exits:Exit_code.infos
       ~doc:
         "Run the seeded fault-injection soak on the daemon and print the \
          same JSON $(b,mipsc soak --json) prints (byte-identical at equal \
          parameters).  With $(b,--session) the run checkpoints and \
          survives a daemon kill.")
    Term.(
      const soak $ socket_flag $ policy_term $ tenant_flag $ session_flag
      $ Arg.(
          value & opt int 1
          & info [ "seed" ] ~docv:"N"
              ~doc:"Master seed for programs and fault plan.")
      $ Arg.(
          value & opt int 2_000_000
          & info [ "steps" ] ~docv:"K"
              ~doc:"Kernel-run fuel in machine steps.")
      $ Arg.(
          value & opt int 8
          & info [ "programs" ] ~docv:"N"
              ~doc:"Generated processes to spawn.")
      $ Arg.(
          value & opt int 48
          & info [ "segments" ] ~docv:"N"
              ~doc:"Size of each generated program.")
      $ Arg.(
          value & opt int 8
          & info [ "differential" ] ~docv:"N"
              ~doc:
                "Raw-vs-reorganized differential programs under transparent \
                 faults (0 to disable).")
      $ engine_flag)

let report_cmd =
  let report socket policy tenant =
    match
      Remote.request_or_die ~policy ~prog:"mipsd" socket
        (Protocol.Report { tenant })
    with
    | Protocol.Reported json -> print_string json
    | _ -> Remote.unexpected ~prog:"mipsd" "report"
  in
  Cmd.v
    (Cmd.info "report" ~exits:Exit_code.infos
       ~doc:
         "Regenerate the paper evaluation on the daemon and print the same \
          JSON $(b,mipsc report --json) prints.")
    Term.(const report $ socket_flag $ policy_term $ tenant_flag)

let collect_cmd =
  let collect socket policy tenant session =
    let req = Protocol.Collect { tenant; session } in
    match Remote.request_or_die ~policy ~prog:"mipsd" socket req with
    | Protocol.Ran r -> Remote.finish ~prog:"mipsd" ~file:session ~extra:ignore (Remote.Ran r)
    | Protocol.Soaked json -> print_endline json
    | Protocol.Listing s | Protocol.Reported s -> print_string s
    | _ -> Remote.unexpected ~prog:"mipsd" "collect"
  in
  Cmd.v
    (Cmd.info "collect" ~exits:Exit_code.infos
       ~doc:
         "Fetch a session's result, blocking while it is still running.  \
          Works across daemon restarts: a recovered session's result is \
          identical to an uninterrupted one.")
    Term.(
      const collect $ socket_flag $ policy_term $ tenant_flag
      $ Arg.(
          required & pos 0 (some string) None
          & info [] ~docv:"SESSION" ~doc:"Session name."))

let stop_cmd =
  let stop socket policy =
    match
      Remote.request_or_die ~policy ~prog:"mipsd" socket Protocol.Shutdown
    with
    | Protocol.Bye -> ()
    | _ -> Remote.unexpected ~prog:"mipsd" "shutdown"
  in
  Cmd.v
    (Cmd.info "stop" ~exits:Exit_code.infos
       ~doc:
         "Ask the daemon to shut down: new work is refused with a typed \
          $(i,shutting-down) answer and in-flight work drains under the \
          deadline.")
    Term.(const stop $ socket_flag $ policy_term)

(* --- chaos proxy --------------------------------------------------------------- *)

let chaos_cmd =
  let chaos listen upstream seed rate stall =
    let t =
      try
        Mips_daemon.Chaos.start
          { Mips_daemon.Chaos.listen; upstream; seed; rate; stall_s = stall }
      with Sys_error msg ->
        Printf.eprintf "mipsd: %s\n" msg;
        exit Exit_code.usage
    in
    let stop = ref false in
    let stop_signal _ = stop := true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
    Printf.eprintf
      "mipsd: chaos proxy %s -> %s (seed %d, rate %.3f, stall %.2fs)\n%!"
      listen upstream seed rate stall;
    while not !stop do
      Thread.delay 0.1
    done;
    let c = Mips_daemon.Chaos.counts t in
    Mips_daemon.Chaos.stop t;
    print_endline (Mips_obs.Json.to_string (Mips_daemon.Chaos.counts_json c))
  in
  Cmd.v
    (Cmd.info "chaos" ~exits:Exit_code.infos
       ~doc:
         "Wire-level fault-injection proxy: relay frames between clients \
          and a daemon, damaging a seeded fraction in flight (bit flips, \
          truncations, mid-frame stalls, duplicate deliveries, abrupt \
          disconnects).  A client retrying through the proxy must finish \
          byte-identically to a clean run or fail typed — never hang, \
          never double-execute.  SIGTERM prints the injection counts as \
          JSON and exits.")
    Term.(
      const chaos
      $ Arg.(
          value & opt string "chaos.sock"
          & info [ "listen" ] ~docv:"PATH"
              ~doc:"Socket the proxy serves (default $(b,chaos.sock)).")
      $ Arg.(
          value & opt string "mipsd.sock"
          & info [ "upstream" ] ~docv:"PATH"
              ~doc:"The real daemon's socket (default $(b,mipsd.sock)).")
      $ Arg.(
          value & opt int 1
          & info [ "seed" ] ~docv:"N"
              ~doc:"Fault-schedule seed (default 1): same seed, same faults.")
      $ Arg.(
          value & opt float 0.01
          & info [ "rate" ] ~docv:"P"
              ~doc:"Per-frame fault probability in both directions \
                    (default 0.01).")
      $ Arg.(
          value & opt float 0.05
          & info [ "stall" ] ~docv:"S"
              ~doc:"Mid-frame stall duration in seconds (default 0.05)."))

(* --- journal fsck -------------------------------------------------------------- *)

let fsck_cmd =
  let fsck dir json =
    match Mips_daemon.Journal.fsck dir with
    | Error msg ->
        Printf.eprintf "mipsd: %s\n" msg;
        exit Exit_code.usage
    | Ok r ->
        if json then
          print_endline
            (Mips_obs.Json.to_string (Mips_daemon.Journal.report_json r))
        else Format.printf "%a@." Mips_daemon.Journal.pp_report r;
        if r.Mips_daemon.Journal.quarantined > 0 then
          exit Exit_code.quarantined
  in
  Cmd.v
    (Cmd.info "fsck" ~exits:Exit_code.infos
       ~doc:
         "Check and repair a daemon state directory after torn writes: \
          stale working files of finished sessions and corrupt \
          checkpoints of recoverable ones are removed, unrecoverable \
          sessions are moved into $(b,quarantine/).  Exits 10 when \
          anything was quarantined, 0 otherwise.  The daemon runs the \
          same repair on startup, so fsck is for inspection and scripted \
          health checks.")
    Term.(
      const fsck
      $ Arg.(
          required & pos 0 (some string) None
          & info [] ~docv:"STATE_DIR"
              ~doc:"The daemon's --state-dir to check.")
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Print the report as JSON."))

(* --- load generator ------------------------------------------------------------ *)

let load_cmd =
  let load socket file clients requests tenant_prefix fuel =
    let source = read_source file in
    let metrics = Mips_obs.Metrics.create () in
    let mlock = Mutex.create () in
    let ok = Atomic.make 0 and shed = Atomic.make 0 and failed = Atomic.make 0 in
    let client i () =
      let tenant = Printf.sprintf "%s-%d" tenant_prefix i in
      for _ = 1 to requests do
        let t0 = Unix.gettimeofday () in
        let outcome =
          match Client.connect socket with
          | Error _ -> `Failed
          | Ok c -> (
              Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
              match
                Client.request c
                  (Protocol.run_request ~tenant ~session:None
                     { Protocol.source; cg = Protocol.default_codegen;
                       input = ""; fuel; engine = "ref" })
              with
              | Ok (Protocol.Ran _) -> `Ok
              | Ok (Protocol.Err ((Protocol.Overloaded | Protocol.Quarantined
                                  | Protocol.Quota _ | Protocol.Shutting_down), _)) ->
                  `Shed
              | Ok _ | Error _ -> `Failed)
        in
        let dt = Unix.gettimeofday () -. t0 in
        (match outcome with
        | `Ok ->
            Atomic.incr ok;
            Mutex.lock mlock;
            Mips_obs.Metrics.observe metrics "latency" dt;
            Mutex.unlock mlock
        | `Shed -> Atomic.incr shed
        | `Failed -> Atomic.incr failed)
      done
    in
    let threads = List.init clients (fun i -> Thread.create (client i) ()) in
    List.iter Thread.join threads;
    let h = Mips_obs.Metrics.histogram metrics "latency" in
    let ms f = Mips_obs.Json.Float (f *. 1000.) in
    print_endline
      (Mips_obs.Json.to_string
         (Mips_obs.Json.Obj
            [ ("clients", Mips_obs.Json.Int clients);
              ("requests_per_client", Mips_obs.Json.Int requests);
              ("ok", Mips_obs.Json.Int (Atomic.get ok));
              ("shed", Mips_obs.Json.Int (Atomic.get shed));
              ("failed", Mips_obs.Json.Int (Atomic.get failed));
              ( "latency_ms",
                match h with
                | None -> Mips_obs.Json.Null
                | Some h ->
                    Mips_obs.Json.Obj
                      [ ("p50", ms h.Mips_obs.Metrics.p50);
                        ("p90", ms h.Mips_obs.Metrics.p90);
                        ("p99", ms h.Mips_obs.Metrics.p99);
                        ("max", ms h.Mips_obs.Metrics.max_v) ] ) ]));
    if Atomic.get failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "load" ~exits:Exit_code.infos
       ~doc:
         "Concurrent load generator: $(b,--clients) threads each issue \
          $(b,--requests) run requests (one tenant per client) and the \
          latency distribution is printed as JSON.  Shed responses \
          (overload/quota/quarantine) are counted, not errors — exits \
          non-zero only on connection or protocol failures.")
    Term.(
      const load $ socket_flag $ file_arg
      $ Arg.(
          value & opt int 8
          & info [ "clients" ] ~docv:"N" ~doc:"Concurrent clients (default 8).")
      $ Arg.(
          value & opt int 20
          & info [ "requests" ] ~docv:"N"
              ~doc:"Requests per client (default 20).")
      $ Arg.(
          value & opt string "load"
          & info [ "tenant-prefix" ] ~docv:"NAME"
              ~doc:"Tenants are named $(docv)-0 .. $(docv)-(N-1).")
      $ fuel_flag)

let () =
  let doc = "fault-tolerant multi-tenant simulation daemon" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "mipsd" ~version:"1.0.0" ~exits:Exit_code.infos ~doc)
          [ serve_cmd; ping_cmd; status_cmd; run_cmd; compile_cmd; soak_cmd;
            report_cmd; collect_cmd; stop_cmd; load_cmd; chaos_cmd;
            fsck_cmd ]))
