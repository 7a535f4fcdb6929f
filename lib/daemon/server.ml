(* Concurrency layout: the accept loop and one thread per connection do
   only I/O and bookkeeping; all compute goes through the Admission
   executor's worker domains.  One server mutex + condition guard the
   session table, the metrics registry and the stop flag; Tenants and
   Admission carry their own locks.  Every job — runs, compiles, soaks
   and reports, whose supervision state and memo tables are either owned
   by the call or safe across Domains — runs fully parallel. *)

module Snapshot = Mips_resilience.Snapshot
module Supervise = Mips_resilience.Supervise
module Cpu = Mips_machine.Cpu
module Hosted = Mips_machine.Hosted
module Json = Mips_obs.Json

type config = {
  socket : string;
  jobs : int;
  queue : int;
  max_tenants : int;
  quota : Tenants.quota;
  state_dir : string option;
  checkpoint_every : int;
  idle_evict_s : float;
  drain_s : float;
  max_frame : int;
  replay_window : int;
  test_crash_after_checkpoints : int option;
  test_crash_at_op : int option;
}

let default_config ~socket =
  {
    socket;
    jobs = 4;
    queue = 16;
    max_tenants = 64;
    quota = Tenants.default_quota;
    state_dir = None;
    checkpoint_every = 50_000;
    idle_evict_s = 300.;
    drain_s = 10.;
    max_frame = Frame.default_limit;
    replay_window = 128;
    test_crash_after_checkpoints = None;
    test_crash_at_op = None;
  }

type session_state = Running | Finished of Protocol.response

type session = {
  s_tenant : string;
  mutable s_state : session_state;
  mutable s_touched : float;
}

(* One entry per deduplicated request ID ("tenant:id").  Pending
   coalesces: a retry arriving while the first delivery is still executing
   waits on the server condition instead of re-executing. *)
type replay_state = R_pending | R_done of Protocol.response
type replay_entry = { mutable r_state : replay_state }

type t = {
  config : config;
  lock : Mutex.t;
  cond : Condition.t;
  sessions : (string, session) Hashtbl.t;
  replay : (string, replay_entry) Hashtbl.t;  (* key: "tenant:id" *)
  replay_order : (string, string Queue.t) Hashtbl.t;
      (* per-tenant FIFO of recorded keys, bounding the window *)
  crash_ops : int Atomic.t;  (* journal operations performed so far *)
  crash_fired : bool Atomic.t;
  metrics : Mips_obs.Metrics.t;
  mutable evicted : int;
  mutable stopping : bool;
  mutable closing : bool;
      (* [stopping] begins the drain — billable requests are refused with
         Shutting_down but connections are still answered; [closing] (set
         by [stop] only) ends the accept loop itself *)
  tenants : Tenants.t;
  exec : Admission.t;
  listen_fd : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  mutable janitor_thread : Thread.t option;
}

(* the in-process stand-in for SIGKILL (see config.test_crash_after_checkpoints) *)
exception Crashed

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let now () = Unix.gettimeofday ()

(* Crash-point hook: every journal operation (write or removal) bumps one
   counter, and [test_crash_at_op = Some n] turns operation [n] into a
   simulated kill {e immediately before} it lands — sweeping n = 1, 2, ...
   enumerates every write boundary the journal has.  The counter runs
   unconditionally so a clean run's total bounds the sweep. *)
let journal_op t =
  let k = Atomic.fetch_and_add t.crash_ops 1 + 1 in
  match t.config.test_crash_at_op with
  | Some n when k = n ->
      Atomic.set t.crash_fired true;
      raise Crashed
  | _ -> ()

let journal_ops t = Atomic.get t.crash_ops
let crash_point_fired t = Atomic.get t.crash_fired

(* --- session journal -------------------------------------------------------- *)

let session_file t id ext =
  match t.config.state_dir with
  | None -> None
  | Some dir -> Some (Filename.concat dir ("session-" ^ id ^ ext))

let write_meta t id req =
  match session_file t id ".meta" with
  | None -> ()
  | Some path ->
      journal_op t;
      Snapshot.write_file path
        (Snapshot.encode
           { Snapshot.kind = "mipsd-meta";
             sections = [ ("request", Protocol.encode_request req) ] })

let read_meta t id =
  match session_file t id ".meta" with
  | None -> None
  | Some path -> (
      if not (Sys.file_exists path) then None
      else
        let open Snapshot in
        match
          let* c = read_file path in
          let* () =
            if String.equal c.kind "mipsd-meta" then Ok ()
            else Error (Corrupt "not a mipsd session meta file")
          in
          let* r = section c "request" in
          match Protocol.decode_request r with
          | Ok req -> Ok req
          | Error e -> Error (Corrupt (Frame.error_to_string e))
        with
        | Ok req -> Some req
        | Error _ -> None)

let write_done t id ~tenant resp =
  match session_file t id ".done" with
  | None -> ()
  | Some path ->
      journal_op t;
      Snapshot.write_file path
        (Snapshot.encode
           { Snapshot.kind = "mipsd-done";
             sections =
               [ ("tenant", tenant);
                 ("response", Protocol.encode_response resp) ] })

let read_done t id =
  match session_file t id ".done" with
  | None -> None
  | Some path -> (
      if not (Sys.file_exists path) then None
      else
        let open Snapshot in
        match
          let* c = read_file path in
          let* () =
            if String.equal c.kind "mipsd-done" then Ok ()
            else Error (Corrupt "not a mipsd session result file")
          in
          let* tenant = section c "tenant" in
          let* r = section c "response" in
          match Protocol.decode_response r with
          | Ok resp -> Ok (tenant, resp)
          | Error e -> Error (Corrupt (Frame.error_to_string e))
        with
        | Ok v -> Some v
        | Error _ -> None)

let remove_session_files t id exts =
  List.iter
    (fun ext ->
      match session_file t id ext with
      | Some path when Sys.file_exists path ->
          journal_op t;
          (try Sys.remove path with Sys_error _ -> ())
      | _ -> ())
    exts

(* --- job bodies ------------------------------------------------------------- *)

let config_of { Protocol.byte; early_out; level = _ } =
  Mips_ir.Config.of_flags ~byte ~early_out

let compile_job ~source ~cg () =
  let config = config_of cg in
  let level = Mips_reorg.Pipeline.of_rank cg.Protocol.level in
  let p = Mips_artifact.compiled ~config ~level source in
  Protocol.Listing
    (Format.asprintf "%a@.; %d instruction words@." Mips_machine.Program.pp_listing
       p
       (Mips_machine.Program.static_count p))

(* A run request, optionally checkpointed under a session.  The quota
   watchdog rides the checkpoint-slice callback: every
   [config.checkpoint_every] steps the output-size and wall-clock budgets
   are checked, and an overrun raises Supervise.Deadline — the same
   deterministic-budget discipline the supervised pool uses — which lands
   as a typed [Quota] kill. *)
let run_job t ~req ~session ~source ~cg ~input ~fuel ~engine () =
  let quota = Tenants.quota t.tenants in
  let config = config_of cg in
  let level = Mips_reorg.Pipeline.of_rank cg.Protocol.level in
  let program = Mips_artifact.compiled ~config ~level source in
  Cpu.with_machine ~config:(Mips_codegen.Compile.machine_config config)
  @@ fun cpu ->
  Cpu.load_program cpu program;
  let budget = min fuel quota.Tenants.max_fuel in
  let req_digest = Digest.string (Protocol.encode_request req) in
  let ckpt_path = Option.bind session (fun id -> session_file t id ".ckpt") in
  let resume_state =
    match ckpt_path with
    | Some path when Sys.file_exists path -> (
        match Snapshot.restore_hosted ~kind:"mipsd-run" ~meta:req_digest cpu path
        with
        | Ok h -> Some h
        | Error _ ->
            (* a damaged checkpoint is not fatal: the run is a pure
               function of its journalled parameters, so start over *)
            None)
    | _ -> None
  in
  let budget =
    match resume_state with
    | Some h -> h.Hosted.h_fuel_left
    | None -> budget
  in
  let started = now () in
  let checkpoints = ref 0 in
  let save (h : Hosted.host_state) =
    if String.length h.Hosted.h_output > quota.Tenants.max_output then
      raise (Supervise.Deadline "memory");
    if now () -. started > quota.Tenants.max_wall_s then
      raise (Supervise.Deadline "deadline");
    (match ckpt_path with
    | None -> ()
    | Some path ->
        journal_op t;
        Snapshot.write_file path
          (Snapshot.hosted_checkpoint ~kind:"mipsd-run" ~meta:req_digest cpu h));
    incr checkpoints;
    match t.config.test_crash_after_checkpoints with
    | Some n when session <> None && !checkpoints >= n -> raise Crashed
    | _ -> ()
  in
  match
    Hosted.run ~fuel:budget ~input ~engine ?resume:resume_state
      ~checkpoint:(t.config.checkpoint_every, save) cpu
  with
  | exception Supervise.Deadline what ->
      Protocol.Err
        ( Protocol.Quota what,
          Printf.sprintf "killed by the %s watchdog" what )
  | res ->
      let stats = Cpu.stats cpu in
      if stats.Mips_machine.Stats.fuel_exhausted && fuel > quota.Tenants.max_fuel
      then
        Protocol.Err
          ( Protocol.Quota "fuel",
            Printf.sprintf "killed after %d steps (fuel quota)" budget )
      else
        Protocol.Ran
          {
            Protocol.output = res.Hosted.output;
            exit_status = res.Hosted.exit_status;
            halted = res.Hosted.halted;
            fault =
              Option.map
                (fun (c, d) ->
                  Printf.sprintf "%s (%d)" (Mips_machine.Cause.name c) d)
                res.Hosted.fault;
            cycles = stats.Mips_machine.Stats.cycles;
            retries = res.Hosted.retries;
          }

(* Same knob settings as `mipsc soak` so a collected response is
   byte-comparable with `mipsc soak --json` at equal parameters. *)
let soak_job t ~session ~seed ~steps ~programs ~segments ~differential
    ~engine () =
  let plan =
    {
      Mips_fault.Plan.seed;
      flip_reg_rate = 0.002;
      flip_data_rate = 0.002;
      irq_rate = 0.002;
      page_drop_rate = 0.002;
      flaky_rate = 0.005;
      max_injections = 0;
    }
  in
  let checkpoint = Option.bind session (fun id -> session_file t id ".soak") in
  let resume =
    match checkpoint with
    | Some path when Sys.file_exists path -> Some path
    | _ -> None
  in
  match
    Mips_soak.Soak.run_checkpointed ~programs ~segments ~quantum:500 ~steps
      ~diff_count:differential ~diff_jobs:1 ?checkpoint
      ~checkpoint_every:t.config.checkpoint_every ?resume
      ~before_write:(fun () -> journal_op t)
      ~engine ~plan ~seed ()
  with
  | Ok (Mips_soak.Soak.Complete (s, diffs)) ->
      Protocol.Soaked (Json.to_string (Mips_soak.Soak.result_json s diffs))
  | Ok Mips_soak.Soak.Interrupted ->
      (* only reachable through the in-process crash hook *)
      raise Crashed
  | Error e ->
      Protocol.Err (Protocol.Internal, Snapshot.error_to_string e)

let report_job () =
  let j = Mips_analysis.Report.json_all ~jobs:1 () in
  Protocol.Reported (Format.asprintf "%a@." Json.pp j)

(* --- status ----------------------------------------------------------------- *)

let status_json t =
  let a = Admission.stats t.exec in
  let resident, running, finished =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ s (r, ru, d) ->
            match s.s_state with
            | Running -> (r + 1, ru + 1, d)
            | Finished _ -> (r + 1, ru, d + 1))
          t.sessions (0, 0, 0))
  in
  Json.Obj
    [ ("schema", Json.Str "mipsd-status/1");
      ( "config",
        Json.Obj
          [ ("jobs", Json.Int t.config.jobs);
            ("queue", Json.Int t.config.queue);
            ("max_tenants", Json.Int t.config.max_tenants);
            ("max_fuel", Json.Int t.config.quota.Tenants.max_fuel);
            ("max_output", Json.Int t.config.quota.Tenants.max_output);
            ("max_concurrent", Json.Int t.config.quota.Tenants.max_concurrent);
            ("sessions_enabled", Json.Bool (t.config.state_dir <> None)) ] );
      ( "admission",
        Json.Obj
          [ ("running", Json.Int a.Admission.running);
            ("waiting", Json.Int a.Admission.waiting);
            ("executed", Json.Int a.Admission.executed);
            ("rejected_overloaded", Json.Int a.Admission.rejected) ] );
      ("tenants", Tenants.json t.tenants ~now:(now ()));
      ( "sessions",
        Json.Obj
          [ ("resident", Json.Int resident);
            ("running", Json.Int running);
            ("finished", Json.Int finished);
            ("evicted_total", Json.Int t.evicted) ] );
      ("metrics", locked t (fun () -> Mips_obs.Metrics.to_json t.metrics)) ]

(* --- request handling -------------------------------------------------------- *)

let observe t kind seconds =
  locked t (fun () ->
      Mips_obs.Metrics.incr t.metrics ("daemon.requests." ^ kind);
      Mips_obs.Metrics.observe t.metrics
        ("daemon.latency_seconds." ^ kind)
        seconds)

let count_reject t (reject : Protocol.reject) =
  let name =
    match reject with
    | Protocol.Bad_request -> "bad_request"
    | Protocol.Garbled -> "garbled"
    | Protocol.Overloaded -> "overloaded"
    | Protocol.Quota _ -> "quota"
    | Protocol.Quarantined -> "quarantined"
    | Protocol.Too_many_tenants -> "too_many_tenants"
    | Protocol.Unknown_session -> "unknown_session"
    | Protocol.Shutting_down -> "shutting_down"
    | Protocol.Internal -> "internal"
  in
  locked t (fun () ->
      Mips_obs.Metrics.incr t.metrics ("daemon.rejects." ^ name))

(* a response that counts against the tenant's breaker: its own requests
   failing, not the server refusing work (overload/shutdown) *)
let counts_as_failure = function
  | Protocol.Err ((Protocol.Overloaded | Protocol.Shutting_down), _) -> false
  | Protocol.Err _ -> true
  | _ -> false

let finish_session t id ~tenant resp =
  write_done t id ~tenant resp;
  remove_session_files t id [ ".ckpt"; ".soak"; ".meta" ];
  locked t (fun () ->
      (match Hashtbl.find_opt t.sessions id with
      | Some s ->
          s.s_state <- Finished resp;
          s.s_touched <- now ()
      | None -> ());
      Condition.broadcast t.cond)

let collect t ~tenant id =
  let from_memory () =
    locked t (fun () ->
        let rec go () =
          match Hashtbl.find_opt t.sessions id with
          | None -> `Not_resident
          | Some s when s.s_tenant <> tenant ->
              `Reply
                (Protocol.Err
                   (Protocol.Bad_request, "session belongs to another tenant"))
          | Some ({ s_state = Finished resp; _ } as s) ->
              s.s_touched <- now ();
              `Reply resp
          | Some { s_state = Running; _ } ->
              Condition.wait t.cond t.lock;
              go ()
        in
        go ())
  in
  match from_memory () with
  | `Reply resp -> resp
  | `Not_resident -> (
      match read_done t id with
      | Some (owner, _) when owner <> tenant ->
          Protocol.Err
            (Protocol.Bad_request, "session belongs to another tenant")
      | Some (_, resp) ->
          locked t (fun () ->
              if not (Hashtbl.mem t.sessions id) then
                Hashtbl.add t.sessions id
                  { s_tenant = tenant; s_state = Finished resp;
                    s_touched = now () });
          resp
      | None -> Protocol.Err (Protocol.Unknown_session, id))

(* register a fresh session (meta journalled before any work starts) *)
let register_session t id ~tenant req =
  locked t (fun () ->
      Hashtbl.replace t.sessions id
        { s_tenant = tenant; s_state = Running; s_touched = now () });
  write_meta t id req

let unregister_session t id =
  locked t (fun () -> Hashtbl.remove t.sessions id);
  remove_session_files t id [ ".meta" ]

let session_known t id =
  locked t (fun () -> Hashtbl.mem t.sessions id)
  ||
  match session_file t id ".done" with
  | Some path when Sys.file_exists path -> true
  | _ -> false

let job_of t req =
  match req with
  | Protocol.Compile { source; cg; _ } -> Some (compile_job ~source ~cg)
  | Protocol.Run { session; source; cg; input; fuel; engine; _ } ->
      let engine =
        match Cpu.engine_of_string engine with
        | Some e -> e
        | None -> Cpu.Ref
      in
      Some (run_job t ~req ~session ~source ~cg ~input ~fuel ~engine)
  | Protocol.Soak
      { session; seed; steps; programs; segments; differential; engine; _ } ->
      let engine =
        match Cpu.engine_of_string engine with
        | Some e -> e
        | None -> Cpu.Ref
      in
      Some
        (soak_job t ~session ~seed ~steps ~programs ~segments ~differential
           ~engine)
  | Protocol.Report _ -> Some report_job
  | _ -> None

let validate req =
  let name_ok what = function
    | Some n when not (Protocol.valid_name n) ->
        Some (Printf.sprintf "invalid %s name %S" what n)
    | _ -> None
  in
  let tenant_ok = name_ok "tenant" (Protocol.tenant_of req) in
  let session_ok =
    match req with
    | Protocol.Run { session; _ } | Protocol.Soak { session; _ } ->
        name_ok "session" session
    | Protocol.Collect { session; _ } -> name_ok "session" (Some session)
    | _ -> None
  in
  let bounds =
    match req with
    | Protocol.Run { fuel; engine; _ } ->
        if fuel <= 0 then Some "fuel must be positive"
        else if Cpu.engine_of_string engine = None then
          Some (Printf.sprintf "unknown engine %S" engine)
        else None
    | Protocol.Soak
        { steps; programs; segments; differential; engine; seed = _; _ } ->
        if steps <= 0 || programs <= 0 || segments <= 0 || differential < 0
        then Some "soak parameters must be positive"
        else if Cpu.engine_of_string engine = None then
          Some (Printf.sprintf "unknown engine %S" engine)
        else None
    | _ -> None
  in
  match (tenant_ok, session_ok, bounds) with
  | Some m, _, _ | None, Some m, _ | None, None, Some m -> Some m
  | None, None, None -> None

let session_of = function
  | Protocol.Run { session; _ } | Protocol.Soak { session; _ } -> session
  | _ -> None

(* source size is the request-side memory quota: an oversized program is
   refused before it is ever compiled *)
let oversized t req =
  match req with
  | Protocol.Run { source; _ } | Protocol.Compile { source; _ } ->
      String.length source > t.config.quota.Tenants.max_output
  | _ -> false

(* [handle_inner] executes an (untagged) request.  A [Crashed] escaping a
   connection-thread journal site lands here as the same typed answer the
   admission-worker path produces, so the crash-point harness sees one
   behaviour wherever the op counter fires. *)
let handle_inner t req =
  try
    match req with
    | Protocol.Tagged _ ->
        (* unreachable: [handle] strips one level and the decoder rejects
           nesting — but the compiler cannot know that *)
        Protocol.Err (Protocol.Bad_request, "unexpected request envelope")
    | Protocol.Ping -> Protocol.Pong
    | Protocol.Status -> Protocol.Status_r (Json.to_string (status_json t))
    | Protocol.Shutdown ->
        locked t (fun () ->
            t.stopping <- true;
            Condition.broadcast t.cond);
        Protocol.Bye
    | Protocol.Collect { tenant; session } -> (
        match validate req with
        | Some m -> Protocol.Err (Protocol.Bad_request, m)
        | None -> collect t ~tenant session)
    | Protocol.Compile _ | Protocol.Run _ | Protocol.Soak _ | Protocol.Report _
      -> (
        let tenant = Option.value ~default:"-" (Protocol.tenant_of req) in
        match validate req with
        | Some m -> Protocol.Err (Protocol.Bad_request, m)
        | None ->
            if locked t (fun () -> t.stopping) then
              Protocol.Err
                (Protocol.Shutting_down, "daemon is draining; retry later")
            else if oversized t req then
              Protocol.Err
                ( Protocol.Quota "memory",
                  "source exceeds the tenant memory quota" )
            else if
              (* session idempotency: re-submitting a known session waits
                 for (or replays) its result instead of running it twice *)
              (match session_of req with
              | Some id -> session_known t id
              | None -> false)
            then collect t ~tenant (Option.get (session_of req))
            else (
              match Tenants.admit t.tenants ~now:(now ()) tenant with
              | Error (reject, detail) -> Protocol.Err (reject, detail)
              | Ok () ->
                  let session = session_of req in
                  (match session with
                  | Some id -> register_session t id ~tenant req
                  | None -> ());
                  let job = Option.get (job_of t req) in
                  let resp =
                    match Admission.submit t.exec job with
                    | Error `Overloaded ->
                        Option.iter (unregister_session t) session;
                        Protocol.Err
                          ( Protocol.Overloaded,
                            "admission queue full; load shed" )
                    | Error `Shutting_down ->
                        Option.iter (unregister_session t) session;
                        Protocol.Err
                          (Protocol.Shutting_down, "daemon is draining")
                    | Ok ticket -> (
                        match Admission.wait ticket with
                        | Ok resp ->
                            Option.iter
                              (fun id -> finish_session t id ~tenant resp)
                              session;
                            resp
                        | Error Crashed ->
                            (* test hook: the session stays journalled, as
                               after a real SIGKILL *)
                            Protocol.Err
                              (Protocol.Internal, "simulated crash")
                        | Error e ->
                            Protocol.Err (Protocol.Internal, Printexc.to_string e))
                  in
                  Tenants.release t.tenants ~now:(now ())
                    ~failed:(counts_as_failure resp) tenant;
                  resp))
  with Crashed -> Protocol.Err (Protocol.Internal, "simulated crash")

(* A recorded response must be attributable to the request itself: results
   and the tenant's own rejections (quota kills, bad parameters) replay
   identically, but server-side refusals — shed load, drain, an open
   breaker, an internal fault — describe a moment, not the request, and a
   retry deserves a fresh attempt. *)
let should_record = function
  | Protocol.Err
      ( ( Protocol.Overloaded | Protocol.Shutting_down | Protocol.Quarantined
        | Protocol.Too_many_tenants | Protocol.Internal | Protocol.Garbled ),
        _ ) ->
      false
  | _ -> true

let handle t req =
  let t0 = now () in
  let id, inner = Protocol.untag req in
  let resp =
    match id with
    | Some id when Protocol.mutating inner -> (
        let tenant = Option.value ~default:"-" (Protocol.tenant_of inner) in
        let key = tenant ^ ":" ^ id in
        let claim =
          locked t (fun () ->
              let rec go () =
                match Hashtbl.find_opt t.replay key with
                | Some { r_state = R_done resp } ->
                    Mips_obs.Metrics.incr t.metrics "daemon.replay.hits";
                    `Hit resp
                | Some { r_state = R_pending } ->
                    (* the first delivery is still executing: coalesce *)
                    Condition.wait t.cond t.lock;
                    go ()
                | None ->
                    Hashtbl.replace t.replay key { r_state = R_pending };
                    `Execute
              in
              go ())
        in
        match claim with
        | `Hit resp -> resp
        | `Execute ->
            let resp =
              match handle_inner t inner with
              | resp -> resp
              | exception e ->
                  (* never strand a Pending entry: a coalesced retry must
                     be able to re-execute *)
                  locked t (fun () ->
                      Hashtbl.remove t.replay key;
                      Condition.broadcast t.cond);
                  raise e
            in
            locked t (fun () ->
                (if should_record resp then begin
                   (match Hashtbl.find_opt t.replay key with
                   | Some e -> e.r_state <- R_done resp
                   | None ->
                       Hashtbl.replace t.replay key { r_state = R_done resp });
                   Mips_obs.Metrics.incr t.metrics "daemon.replay.recorded";
                   let q =
                     match Hashtbl.find_opt t.replay_order tenant with
                     | Some q -> q
                     | None ->
                         let q = Queue.create () in
                         Hashtbl.replace t.replay_order tenant q;
                         q
                   in
                   Queue.push key q;
                   while Queue.length q > max 1 t.config.replay_window do
                     Hashtbl.remove t.replay (Queue.pop q);
                     Mips_obs.Metrics.incr t.metrics "daemon.replay.evicted"
                   done
                 end
                 else Hashtbl.remove t.replay key);
                Condition.broadcast t.cond);
            resp)
    | _ -> handle_inner t inner
  in
  observe t (Protocol.request_kind inner) (now () -. t0);
  (match resp with
  | Protocol.Err (reject, _) -> count_reject t reject
  | _ -> ());
  resp

(* --- connections ------------------------------------------------------------ *)

let send fd resp = Frame.write fd (Protocol.encode_response resp)

let connection t fd =
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let rec loop () =
    match Frame.read ~limit:t.config.max_frame fd with
    | Error (Frame.Closed | Frame.Truncated | Frame.Timed_out
            | Frame.Io_error _) ->
        ()
    | Error ((Frame.Bad_magic | Frame.Bad_version _ | Frame.Oversized _
             | Frame.Corrupt _) as e) ->
        (* typed refusal, then close: frame sync cannot be trusted.
           [Garbled], not [Bad_request] — no request was decoded, so a
           retrying sender knows its (well-formed) frame was damaged in
           flight and may blindly resend *)
        ignore
          (send fd (Protocol.Err (Protocol.Garbled, Frame.error_to_string e)))
    | Ok payload -> (
        match Protocol.decode_request payload with
        | Error e ->
            (* the frame boundary held, so the connection survives *)
            (match
               send fd
                 (Protocol.Err (Protocol.Bad_request, Frame.error_to_string e))
             with
            | Ok () -> loop ()
            | Error _ -> ())
        | Ok req -> (
            let resp = handle t req in
            match send fd resp with
            | Error _ -> ()
            | Ok () -> ( match req with Protocol.Shutdown -> () | _ -> loop ())))
  in
  loop ()

let accept_loop t () =
  let rec loop () =
    if locked t (fun () -> t.closing) then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ -> (
              (* a failed thread spawn must not leak the accepted fd *)
              try ignore (Thread.create (connection t) fd)
              with _ -> ( try Unix.close fd with Unix.Unix_error _ -> ()))
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

(* evict finished sessions idle past the deadline — only journalled ones,
   whose results remain collectable from disk — and wake any timed
   waiters *)
let janitor t () =
  let rec loop () =
    if locked t (fun () -> t.stopping) then ()
    else begin
      Thread.delay 0.1;
      if t.config.state_dir <> None then
        locked t (fun () ->
            let cutoff = now () -. t.config.idle_evict_s in
            let stale =
              Hashtbl.fold
                (fun id s acc ->
                  match s.s_state with
                  | Finished _ when s.s_touched < cutoff -> id :: acc
                  | _ -> acc)
                t.sessions []
            in
            List.iter
              (fun id ->
                Hashtbl.remove t.sessions id;
                t.evicted <- t.evicted + 1)
              stale;
            Condition.broadcast t.cond);
      loop ()
    end
  in
  loop ()

(* --- recovery ---------------------------------------------------------------- *)

(* Every journalled session without a recorded result is resubmitted: the
   job resumes from its checkpoint when one survived, and re-runs from its
   journalled parameters when not — both complete bit-identically to an
   uninterrupted run, because every job is a deterministic function of its
   parameters and the checkpoint codec is lossless. *)
let recover t =
  match t.config.state_dir with
  | None -> ()
  | Some dir ->
      Sys.readdir dir |> Array.to_list |> List.sort String.compare
      |> List.iter (fun file ->
             match Filename.chop_suffix_opt ~suffix:".meta" file with
             | None -> ()
             | Some base
               when String.length base > 8
                    && String.sub base 0 8 = "session-" -> (
                 let id = String.sub base 8 (String.length base - 8) in
                 match read_done t id with
                 | Some _ -> remove_session_files t id [ ".meta" ]
                 | None -> (
                     match read_meta t id with
                     | None -> ()
                     | Some req -> (
                         match (Protocol.tenant_of req, job_of t req) with
                         | Some tenant, Some job -> (
                             locked t (fun () ->
                                 Hashtbl.replace t.sessions id
                                   { s_tenant = tenant; s_state = Running;
                                     s_touched = now () });
                             match Admission.submit_unbounded t.exec job with
                             | Error `Shutting_down -> ()
                             | Ok ticket ->
                                 ignore
                                   (Thread.create
                                      (fun () ->
                                        match Admission.wait ticket with
                                        | Ok resp -> (
                                            try finish_session t id ~tenant resp
                                            with Crashed -> ())
                                        | Error _ -> ())
                                      ()))
                         | _ -> ())))
             | Some _ -> ())

(* --- lifecycle ---------------------------------------------------------------- *)

let start config =
  (* the daemon executes --engine=jit requests in-process *)
  Mips_jit.install ();
  (match config.state_dir with
  | Some dir when not (Sys.file_exists dir) -> (
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (e, _, _) ->
        raise
          (Sys_error
             (Printf.sprintf "cannot create state directory %s: %s" dir
                (Unix.error_message e))))
  | _ -> ());
  (* fsck before anything reads the journal: recovery then only ever sees
     a journal whose invariant holds, and a damaged one degrades to a
     smaller journal plus a quarantine/ directory instead of a daemon
     that cannot start *)
  let fsck_report =
    match config.state_dir with
    | Some dir -> ( match Journal.fsck dir with Ok r -> Some r | Error _ -> None)
    | None -> None
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists config.socket then Sys.remove config.socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX config.socket);
     Unix.listen listen_fd 64
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise
       (Sys_error
          (Printf.sprintf "cannot bind %s: %s" config.socket
             (Unix.error_message e))));
  let t =
    {
      config;
      lock = Mutex.create ();
      cond = Condition.create ();
      sessions = Hashtbl.create 32;
      replay = Hashtbl.create 64;
      replay_order = Hashtbl.create 16;
      crash_ops = Atomic.make 0;
      crash_fired = Atomic.make false;
      metrics = Mips_obs.Metrics.create ();
      evicted = 0;
      stopping = false;
      closing = false;
      tenants = Tenants.create ~quota:config.quota ~max_tenants:config.max_tenants ();
      exec = Admission.create ~jobs:config.jobs ~queue:config.queue;
      listen_fd;
      accept_thread = None;
      janitor_thread = None;
    }
  in
  (match fsck_report with
  | Some r ->
      Mips_obs.Metrics.set t.metrics "daemon.fsck.repaired" r.Journal.repaired;
      Mips_obs.Metrics.set t.metrics "daemon.fsck.quarantined"
        r.Journal.quarantined
  | None -> ());
  recover t;
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t.janitor_thread <- Some (Thread.create (janitor t) ());
  t

let request_stop t =
  locked t (fun () ->
      t.stopping <- true;
      Condition.broadcast t.cond)

let stop_requested t = locked t (fun () -> t.stopping)

let wait_stopped t =
  while not (stop_requested t) do
    Thread.delay 0.1
  done

let stop ?(drain = true) t =
  request_stop t;
  if drain then ignore (Admission.drain t.exec ~deadline_s:t.config.drain_s);
  Admission.shutdown t.exec;
  locked t (fun () -> t.closing <- true);
  Option.iter Thread.join t.accept_thread;
  Option.iter Thread.join t.janitor_thread;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  if Sys.file_exists t.config.socket then (
    try Sys.remove t.config.socket with Sys_error _ -> ());
  (* fail any collect waiters still parked on running sessions *)
  locked t (fun () -> Condition.broadcast t.cond)
