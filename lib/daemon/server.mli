(** The [mipsd] server: a long-lived, fault-tolerant, multi-tenant
    simulation service on a Unix socket.

    Robustness is layered end to end:

    - {b Framing}: every connection speaks {!Frame}/{!Protocol}; malformed
      or truncated input yields a typed error response (or a clean close),
      never a crash — the decoder is total.
    - {b Admission control}: compute runs on a fixed pool of worker
      domains behind a bounded queue ({!Admission}); once the pool
      saturates, new work is shed immediately with a typed [Overloaded]
      response rather than queued into unbounded latency.
    - {b Quotas}: each tenant gets fuel/memory/concurrency/wall-clock
      budgets ({!Tenants.quota}).  Fuel and memory are enforced {e during}
      execution by a watchdog callback on the checkpoint-slice boundary —
      the {!Mips_resilience.Supervise.Deadline} discipline — and an
      offender is killed with a typed [Quota] reason; its neighbors'
      responses are byte-identical to solo runs.
    - {b Quarantine}: a per-tenant circuit breaker opens after repeated
      failures, refusing that tenant with [Quarantined] while everyone
      else proceeds at full service.
    - {b Crash recovery}: [run]/[soak] requests naming a session are
      checkpointed to the state directory ({!Mips_resilience.Snapshot}
      containers, written atomically).  A SIGKILL'd daemon restarted on
      the same directory resumes every in-flight checkpointed session and
      completes it {e bit-identically} to an uninterrupted run; finished
      results are journalled and survive restarts until collected.
    - {b Idempotent replay}: a {!Protocol.Tagged} request is deduplicated
      against a bounded per-tenant replay window — a retry of an executed
      request is answered from the recorded response, and a retry racing
      the first delivery coalesces onto it, so the {!Client.call} retry
      loop can resend blindly after any wire fault without double
      execution.
    - {b Journal fsck}: the session journal is checked and repaired
      ({!Journal.fsck}) before recovery reads it — torn writes are healed,
      unrecoverable sessions are quarantined, and the daemon always
      starts.
    - {b Eviction}: finished sessions idle past a deadline are dropped
      from memory (their journalled results remain collectable from disk).
    - {b Clean shutdown}: SIGTERM (or a [Shutdown] request) stops
      admission with typed [Shutting_down] refusals and drains in-flight
      work under a deadline. *)

type config = {
  socket : string;  (** Unix socket path (an existing file is replaced) *)
  jobs : int;  (** worker domains executing admitted requests *)
  queue : int;  (** admitted requests that may wait for a worker *)
  max_tenants : int;
  quota : Tenants.quota;
  state_dir : string option;
      (** session journal + checkpoint directory; [None] disables sessions *)
  checkpoint_every : int;  (** machine steps between session checkpoints *)
  idle_evict_s : float;  (** idle seconds before a finished session leaves
                             memory (journalled sessions only) *)
  drain_s : float;  (** shutdown drain deadline *)
  max_frame : int;  (** request frame payload limit *)
  replay_window : int;
      (** recorded responses kept per tenant for request-ID deduplication;
          the oldest is evicted first *)
  test_crash_after_checkpoints : int option;
      (** test hook: abort a session's job after N checkpoint writes — the
          in-process stand-in for SIGKILL (CI kills the real process) *)
  test_crash_at_op : int option;
      (** test hook: turn journal operation N (counting every journal
          write and removal, across all sessions) into a simulated kill
          just before it lands — the crash-point harness sweeps N to
          visit every write boundary *)
}

val default_config : socket:string -> config
(** 4 jobs, queue 16, 64 tenants, {!Tenants.default_quota}, no state dir,
    checkpoints every 50k steps, eviction after 300 s, 10 s drain,
    {!Frame.default_limit} frames, a 128-entry replay window. *)

type t

val journal_ops : t -> int
(** Journal operations (writes and removals) performed so far — a clean
    run's total bounds the crash-point sweep. *)

val crash_point_fired : t -> bool
(** Whether [test_crash_at_op] has triggered. *)

val start : config -> t
(** Bind the socket, recover journalled sessions from the state directory
    (resubmitting every session without a recorded result — resumed from
    its checkpoint when one exists, re-run from its journalled parameters
    when not), and spawn the accept loop.  Returns immediately.
    @raise Sys_error when the socket cannot be bound or the state
    directory cannot be used. *)

val request_stop : t -> unit
(** Begin shutdown: new billable requests are refused with
    [Shutting_down].  Idempotent; also triggered by a [Shutdown] frame. *)

val wait_stopped : t -> unit
(** Block until {!request_stop} (or a [Shutdown] frame, or {!stop}). *)

val stop : ?drain:bool -> t -> unit
(** Drain in-flight work (up to [config.drain_s]; [~drain:false] skips the
    grace period), stop the workers, close and unlink the socket. *)
