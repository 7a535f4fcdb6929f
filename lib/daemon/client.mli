(** Blocking client for the [mipsd] socket protocol.

    One connection, synchronous request/response: {!request} writes one
    frame and blocks until the reply frame arrives.  All failures are
    values — connect errors are strings, protocol failures are the typed
    {!Frame.error}s — so callers (the [mipsd] CLI and its load generator,
    [mipsc --remote]) can map each one to its own exit code.

    {!call} is the production entry point: it wraps mutating requests in
    the {!Protocol.Tagged} idempotency envelope, arms kernel receive
    deadlines so a stalled peer cannot hang it, and retries transport
    failures with {!Mips_resilience.Policy.Backoff}.  Together with
    the server's replay window this makes blind retry safe: a request
    whose response frame was lost to the wire is answered from the
    recorded first execution, never executed twice. *)

type t

val connect : string -> (t, string) result
(** Connect to the daemon's Unix socket. *)

val request : t -> Protocol.request -> (Protocol.response, Frame.error) result
(** Send one request and block for the response.  After an error the
    connection should be closed: frame sync may be lost. *)

val close : t -> unit
(** Idempotent. *)

val with_connection :
  string -> (t -> ('a, string) result) -> ('a, string) result
(** Connect, run, close (also on exception). *)

(** {2 Idempotent retrying calls} *)

type policy = {
  attempts : int;  (** maximum connect+request attempts *)
  base_backoff_s : float;  (** first retry delay *)
  max_backoff_s : float;  (** exponential backoff cap *)
  deadline_s : float;  (** total wall-clock budget across all attempts *)
}

val default_policy : policy
(** 10 attempts, 50 ms base doubling to a 2 s cap, 60 s deadline.  The
    two backoff fields become the call's {!Mips_resilience.Policy.Backoff.t};
    its jitter stream is seeded from the request bytes, and each delay is
    clamped to the time left before the deadline and then slept. *)

(** The last thing that went wrong on the wire.  [Garbled] is the
    server-reported flavour: the frame arrived but failed its digest or
    header checks ({!Protocol.Garbled}), so the request was never
    decoded. *)
type failure =
  | Connect of string
  | Transport of Frame.error
  | Garbled of string

(** Why {!call} gave up, with the evidence: the last {!failure}, how many
    attempts were made, and how long was spent. *)
type call_error = {
  failure : failure;
  call_attempts : int;
  elapsed_s : float;
  gave_up : [ `Deadline | `Attempts ];
}

val failure_to_string : failure -> string
val call_error_to_string : call_error -> string

val call :
  ?policy:policy ->
  ?id:string ->
  ?metrics:Mips_obs.Metrics.t ->
  string ->
  Protocol.request ->
  (Protocol.response, call_error) result
(** [call path req] sends [req] to the daemon at [path], retrying
    transport failures (connect refusals, torn/corrupt/stalled frames)
    under [policy] until a response frame arrives or the budget runs out.

    A {!Protocol.mutating} request is wrapped in {!Protocol.Tagged} with
    [id] (freshly minted when omitted) so every retry carries the same
    request ID and the server deduplicates re-execution.  Typed [Err]
    responses are {e answers}, not failures — shed load ([Overloaded]),
    quota kills and shutdown refusals come back as [Ok (Err _)] exactly as
    with {!request}; only the wire failing triggers a retry.

    [metrics] (default {!Mips_obs.Metrics.null}) receives
    ["client.retries"], ["client.call_failed"] counters and a
    ["client.backoff_seconds"] histogram. *)

val wait_ready :
  ?timeout_s:float -> string -> (unit, [ `Timed_out of float ]) result
(** Poll the socket with [Ping] until the daemon answers [Pong] or the
    timeout (default 10 s) expires — the startup barrier scripts use
    between launching [mipsd serve] and sending load.  Each poll carries a
    receive deadline, so a daemon that accepts connections but never
    answers still yields [`Timed_out elapsed] rather than a hang. *)
