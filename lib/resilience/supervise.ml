(* Supervised parallel jobs: bounded retry with jittered exponential
   backoff, poison-job quarantine, and a circuit breaker (the caller's, or
   a fresh one per map) that runs a map serially while it is open.

   The attempt loop runs on the worker domains (inside Mips_par.map), but
   all bookkeeping — metrics, trace events, the breaker — is folded on the
   calling domain after the join, from the per-job outcome records.  The
   metrics registry and event sinks are not thread-safe; outcomes are. *)

module Breaker = Policy.Breaker
module Metrics = Mips_obs.Metrics

type policy = { max_attempts : int; backoff : Policy.Backoff.t }

let default_policy =
  { max_attempts = 3; backoff = { Policy.Backoff.base_s = 0.05; max_s = 2.0 } }

let default_breaker () = Breaker.create ~threshold:4 ~cooldown_s:30.

exception Deadline of string
(* raised by a job that exhausted a deterministic budget (e.g. cycle fuel):
   retrying cannot help, so the job is quarantined immediately *)

type 'b outcome = {
  label : string;
  result : ('b, string) result;  (* Error carries the last attempt's error *)
  attempts : int;
  backoffs : float list;  (* simulated seconds per retry, in order *)
  quarantined : bool;
  deadline_overrun : bool;
  duration_s : float;
}

(* --- one supervised job (worker domain) ------------------------------------ *)

let supervise_one policy ~label:lbl ~index f x =
  (* a private jitter stream per job, derived from its index, so the
     backoff sequence is deterministic whatever the scheduling *)
  let rng = Mips_fault.Rng.create (index * 0x9E3779B1) in
  let t0 = Unix.gettimeofday () in
  let finish result attempts backoffs ~quarantined ~overrun =
    {
      label = lbl;
      result;
      attempts;
      backoffs = List.rev backoffs;
      quarantined;
      deadline_overrun = overrun;
      duration_s = Unix.gettimeofday () -. t0;
    }
  in
  let rec go attempt backoffs =
    match f x with
    | v -> finish (Ok v) attempt backoffs ~quarantined:false ~overrun:false
    | exception Deadline msg ->
        finish (Error msg) attempt backoffs ~quarantined:true ~overrun:true
    | exception e ->
        if attempt >= policy.max_attempts then
          finish (Error (Printexc.to_string e)) attempt backoffs
            ~quarantined:true ~overrun:false
        else
          go (attempt + 1)
            (Policy.Backoff.delay policy.backoff rng attempt :: backoffs)
  in
  go 1 []

(* --- post-join bookkeeping (calling domain) --------------------------------- *)

(* Each quarantine is a breaker failure; a map without one is one success,
   which is what closes a half-open breaker after a probe map. *)
let note_outcomes obs metrics breaker outs =
  let emit ev =
    if obs.Mips_obs.Sink.enabled then Mips_obs.Sink.emit obs ev
  in
  let record ~ok =
    let was_open = Breaker.is_open breaker and run = Breaker.failures breaker in
    Breaker.record breaker ~now:(Unix.gettimeofday ()) ~ok;
    if Breaker.is_open breaker && not was_open then begin
      Metrics.incr metrics "supervise.circuit_open";
      emit (Mips_obs.Event.Circuit_open { failures = run + 1 })
    end
  in
  List.iter
    (fun o ->
      Metrics.incr metrics "supervise.jobs";
      Metrics.observe metrics "supervise.job_seconds" o.duration_s;
      List.iteri
        (fun i b ->
          Metrics.incr metrics "supervise.retries";
          emit
            (Mips_obs.Event.Job_retry
               { label = o.label; attempt = i + 2; backoff_s = b }))
        o.backoffs;
      if o.deadline_overrun then
        Metrics.incr metrics "supervise.deadline_overruns";
      match o.result with
      | Ok _ -> Metrics.incr metrics "supervise.ok"
      | Error err ->
          Metrics.incr metrics "supervise.failed";
          if o.quarantined then begin
            Metrics.incr metrics "supervise.quarantined";
            emit
              (Mips_obs.Event.Job_quarantined
                 { label = o.label; attempts = o.attempts; error = err });
            record ~ok:false
          end)
    outs;
  if not (List.exists (fun o -> o.quarantined) outs) then record ~ok:true

let supervised_map ?(policy = default_policy) ?(breaker = default_breaker ())
    ?(metrics = Metrics.null) ?jobs ?(obs = Mips_obs.Sink.null)
    ?(tracer = Mips_obs.Span.no_tracer) ~label f xs =
  (* breaker open: run serially instead of aborting — the work still
     completes, just without fan-out *)
  let refused =
    Breaker.admit breaker ~now:(Unix.gettimeofday ()) = Breaker.Refuse
  in
  if refused then Metrics.incr metrics "supervise.degraded_maps";
  let jobs = if refused then Some 1 else jobs in
  let items = List.mapi (fun i x -> (i, x)) xs in
  let outs =
    Mips_par.map_spans ?jobs ~tracer
      ~name:(fun (_, x) -> label x)
      (fun (i, x) -> supervise_one policy ~label:(label x) ~index:i f x)
      items
  in
  note_outcomes obs metrics breaker outs;
  outs

let oks outs =
  List.filter_map
    (fun o -> match o.result with Ok v -> Some v | Error _ -> None)
    outs

let failures outs =
  List.filter (fun o -> Result.is_error o.result) outs

let stats_json ~breaker ~metrics =
  let open Mips_obs.Json in
  Obj
    [
      ("circuit_open", Bool (Breaker.is_open breaker));
      ("quarantined_total", Int (Metrics.count metrics "supervise.quarantined"));
      ("metrics", Metrics.to_json metrics);
    ]
