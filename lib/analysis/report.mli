(** Paper-style printing of every reproduced table and figure.

    Each printer takes a formatter and draws its experiment from the
    {!Mips_artifact} cache (compilations and simulations computed once and
    shared between tables), so [print_all] is the one-stop reproduction of
    the paper's evaluation.  The [mipsc report] command and the
    benchmark's report_cold workload both use these. *)

val prepare : ?jobs:int -> ?include_heavy:bool -> unit -> unit
(** Warm the artifact cache with every compilation and simulation the
    tables need, fanned out over [jobs] worker domains (default: the
    harness-wide {!Mips_par.default_jobs}).  The tables themselves always
    run serially against the warm cache, so report output is byte-identical
    for any [jobs] — the pool only decides {e when} an artifact is built.
    [print_all] and [json_all] call this themselves; exposed for harnesses
    that want to time or stage the warm-up separately. *)

val prepare_supervised :
  ?policy:Mips_resilience.Supervise.policy ->
  ?breaker:Mips_resilience.Policy.Breaker.t -> ?metrics:Mips_obs.Metrics.t ->
  ?jobs:int ->
  ?include_heavy:bool -> ?inject_poison:string list -> ?obs:Mips_obs.Sink.t ->
  ?tracer:Mips_obs.Span.tracer ->
  unit -> unit Mips_resilience.Supervise.outcome list
(** {!prepare} under the {!Mips_resilience.Supervise} policy: failing jobs
    are retried, persistent failures quarantined and attributed in the
    returned outcomes (labelled ["sim:<config>:<entry>"], ["level:..."],
    ["os:..."], ["asm:..."]) — the cache still warms for every healthy
    artifact.  The warm-up is a single supervised map, so [breaker] and
    [metrics] only record its quarantines and counters.
    [inject_poison] prepends always-failing jobs with the given labels
    (tests and the CI smoke run).  On a fault-free run the warmed cache is
    identical to {!prepare}'s. *)

(** A printer that folds over the corpus runs its fold on the
    {!Mips_par} pool of [jobs] Domains (default
    {!Mips_par.default_jobs}); [print_all] and [json_all] pass theirs
    down, so a [~jobs:1] report spawns no Domain. *)

val table1 : ?jobs:int -> Format.formatter -> unit
val table3 : Format.formatter -> unit
val table4 : ?jobs:int -> Format.formatter -> unit
val table5 : Format.formatter -> unit
val table6 : ?jobs:int -> Format.formatter -> unit

val table9 : Format.formatter -> unit
val table10 : ?jobs:int -> ?include_heavy:bool -> Format.formatter -> unit
val table11 : ?jobs:int -> Format.formatter -> unit

val figures1to3 : Format.formatter -> unit
val figure4 : Format.formatter -> unit

val free_cycles : ?jobs:int -> ?include_heavy:bool -> Format.formatter -> unit
(** Section 3.1's free-memory-cycle measurement. *)

val hotspots : ?top:int -> Format.formatter -> unit
(** Ranked hot-block tables for the kernel-workload programs, profiled on
    the fast engine — what [mipsc report --hotspots] appends. *)

val json_hotspots : unit -> Mips_obs.Json.t
(** The same profiles as one object keyed by program name. *)

val report_schema_version : int
(** Version of {!json_all}'s object shape, emitted as its
    ["schema_version"] field; bumped on structural change so downstream
    consumers can detect format drift. *)

val print_all : ?jobs:int -> ?include_heavy:bool -> Format.formatter -> unit

val json_all : ?jobs:int -> ?include_heavy:bool -> unit -> Mips_obs.Json.t
(** The whole evaluation as one JSON object, keyed ["schema_version"],
    ["table1_constants"] ... ["table11_postpass_levels"], ["figures"],
    ["free_cycles"], ["context_switches"] — the machine-readable twin of
    {!print_all} that [mipsc report --json] emits so CI and the golden
    tests can diff reproduction numbers against the paper's tables. *)
