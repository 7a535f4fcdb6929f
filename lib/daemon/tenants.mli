(** Per-tenant bookkeeping: quotas, in-flight counts and circuit breakers.

    Every billable request passes {!admit} before touching the executor
    and {!release} after its response is built.  Admission enforces the
    tenant registry bound ([max_tenants]), the per-tenant concurrency
    quota, and the tenant's circuit breaker; the fuel/memory/deadline
    quotas in {!quota} are enforced {e during} execution by the server's
    watchdog callbacks and reported back here as failures.

    Each tenant owns one {!Mips_resilience.Policy.Breaker}, so one poison
    tenant is quarantined without degrading its neighbors:
    [breaker_threshold] consecutive failures open it and requests are
    refused with [Quarantined] for [breaker_cooldown_s]; after the cooldown
    one probe request is let through (half-open) once the tenant has
    nothing else in flight — success closes the breaker, failure re-opens
    it.

    All entry points are safe from any thread or domain. *)

type quota = {
  max_fuel : int;  (** machine-step budget per run request *)
  max_output : int;  (** bytes of monitor output per run request *)
  max_concurrent : int;  (** in-flight requests per tenant *)
  max_wall_s : float;  (** wall-clock watchdog per request *)
  breaker_threshold : int;  (** consecutive failures that open the breaker *)
  breaker_cooldown_s : float;
}

val default_quota : quota
(** 500M steps, 4 MB output, 4 concurrent, 120 s wall, breaker at 5
    failures with a 30 s cooldown. *)

type t

val create : ?quota:quota -> max_tenants:int -> unit -> t

val quota : t -> quota

val admit :
  t -> now:float -> string -> (unit, Protocol.reject * string) result
(** Bill one in-flight request to the tenant, or refuse with a typed
    reject ([Too_many_tenants], [Quota "concurrency"], [Quarantined]). *)

val release : t -> now:float -> failed:bool -> string -> unit
(** Return the in-flight slot and feed the breaker: [failed] counts toward
    quarantine, success resets the failure run and closes a half-open
    breaker. *)

val json : t -> now:float -> Mips_obs.Json.t
(** Per-tenant counters and breaker states, sorted by name. *)
