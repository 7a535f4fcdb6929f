(** Supervised parallel jobs over the {!Mips_par} pool.

    A failing job is retried up to [max_attempts] times, each retry
    charged a {!Policy.Backoff} delay (recorded, not slept: the jobs are
    deterministic, so the backoff models the re-issue delay a real harness
    would pay); a job that keeps failing is {e quarantined} — its error is
    reported in its {!outcome} and the rest of the map completes.

    A caller may pass its own {!Policy.Breaker} (default: a fresh
    {!default_breaker} per map), consulted once when a map starts: each quarantine is recorded as a failure and a map without one
    as a success, and a map the breaker refuses runs serially.  Breaker
    and metrics belong to the caller; nothing here is process-global.

    On a fault-free run the supervised path is byte-identical to
    {!Mips_par.map}.  The retry loop runs on the worker domains; metrics,
    events and the breaker are folded on the calling domain after the
    join, from the outcomes. *)

type policy = {
  max_attempts : int;  (** total attempts per job (at least 1) *)
  backoff : Policy.Backoff.t;
      (** delay charged before each retry; each job draws from its own
          stream, derived from its index *)
}

val default_policy : policy
(** 3 attempts, backoff from 50 ms capped at 2 s. *)

val default_breaker : unit -> Policy.Breaker.t
(** A fresh breaker that opens after 4 consecutive quarantines and probes
    again after a 30 s cooldown. *)

exception Deadline of string
(** Raised by a job that exhausted a {e deterministic} budget (cycle fuel).
    Retrying cannot help, so the job is quarantined immediately with
    [deadline_overrun] set. *)

type 'b outcome = {
  label : string;
  result : ('b, string) result;  (** [Error] carries the last attempt's error *)
  attempts : int;
  backoffs : float list;  (** simulated backoff seconds per retry, in order *)
  quarantined : bool;
  deadline_overrun : bool;
  duration_s : float;
}

val supervised_map :
  ?policy:policy ->
  ?breaker:Policy.Breaker.t ->
  ?metrics:Mips_obs.Metrics.t ->
  ?jobs:int ->
  ?obs:Mips_obs.Sink.t ->
  ?tracer:Mips_obs.Span.tracer ->
  label:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list
(** Run [f] over [xs] on the pool under the policy; outcomes come back in
    submission order.  [obs] receives [Job_retry], [Job_quarantined] and
    [Circuit_open] events; with [tracer] each job is a span on its
    worker's lane.  [metrics] (default {!Mips_obs.Metrics.null}) receives
    [supervise.jobs], [.ok], [.failed], [.retries], [.quarantined],
    [.deadline_overruns], [.circuit_open], [.degraded_maps] and the
    [supervise.job_seconds] histogram. *)

val oks : 'b outcome list -> 'b list
(** Successful results, in order. *)

val failures : 'b outcome list -> 'b outcome list
(** Outcomes whose result is an error. *)

val stats_json :
  breaker:Policy.Breaker.t -> metrics:Mips_obs.Metrics.t -> Mips_obs.Json.t
(** [{"circuit_open", "quarantined_total", "metrics"}] from the caller's
    breaker and registry — what [--stats-json] emits. *)
