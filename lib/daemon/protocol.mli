(** Requests and responses of the [mipsd] wire protocol.

    One frame ({!Frame}) carries one encoded request or response; a
    connection is synchronous — the client writes a request and blocks on
    the response.  Payload codecs are built from the
    {!Mips_resilience.Snapshot.Io} primitives and decoding is total:
    malformed payloads come back as typed {!Frame.error}s ([Truncated] /
    [Corrupt]), never as an escaped exception.

    Failure is part of the vocabulary: a {!response} can be [Err] with a
    typed {!reject} — overload shedding, quota kills, tenant quarantine
    and shutdown refusals are all first-class, distinguishable answers
    rather than hangs or dropped connections. *)

type codegen = { byte : bool; early_out : bool; level : int  (** 0-3 *) }

val default_codegen : codegen
(** Word-addressed, set-conditionally booleans, postpass level 3. *)

type desc = {
  source : string;  (** Pascal-subset source text *)
  cg : codegen;
  input : string;  (** the getchar stream *)
  fuel : int;  (** machine steps before the run stops out of fuel *)
  engine : string;  (** "ref", "fast" or "jit" *)
}
(** Everything one run of a program depends on: the fields a [Run]
    request carries besides its tenant and session, and what
    {!Executor.run} takes. *)

type request =
  | Ping
  | Compile of { tenant : string; source : string; cg : codegen }
  | Run of {
      tenant : string;
      session : string option;
          (** names a resumable, checkpointed session (see {!Server}) *)
      source : string;  (** [source] to [engine]: a {!desc}, field by field *)
      cg : codegen;
      input : string;
      fuel : int;
      engine : string;  (** "ref", "fast" or "jit" *)
    }
  | Soak of {
      tenant : string;
      session : string option;
      seed : int;
      steps : int;
      programs : int;
      segments : int;
      differential : int;
      engine : string;  (** "ref", "fast" or "jit" *)
    }
  | Report of { tenant : string }
  | Collect of { tenant : string; session : string }
  | Status
  | Shutdown
  | Tagged of { id : string; req : request }
      (** the idempotency envelope: [id] is a client-generated request ID
          ({!valid_name}); the server answers a replayed [id] from its
          per-tenant replay window instead of executing the request twice,
          which is what makes blind retry after a wire fault safe.  One
          level deep only — a nested [Tagged] decodes as [Corrupt]. *)

type run_reply = {
  output : string;
  exit_status : int option;
  halted : bool;
  fault : string option;
  cycles : int;
  retries : int;
}

(** Why a request was refused — the typed half of every failure path. *)
type reject =
  | Bad_request  (** malformed or unvalidatable request *)
  | Garbled
      (** what arrived was not a valid frame (bad magic, digest mismatch,
          hostile length): the request was never even decoded.  The one
          rejection a well-behaved sender may blindly retry — its request
          was damaged in flight, not refused *)
  | Overloaded  (** admission queue full: load was shed, not queued *)
  | Quota of string  (** killed with reason: "fuel", "memory", "deadline",
                         "concurrency" *)
  | Quarantined  (** the tenant's circuit breaker is open *)
  | Too_many_tenants  (** the [--max-tenants] registry is full *)
  | Unknown_session  (** collect of a session the daemon has no record of *)
  | Shutting_down  (** the daemon is draining and accepts no new work *)
  | Internal  (** an unexpected exception inside the handler *)

val reject_to_string : reject -> string

type response =
  | Pong
  | Listing of string  (** the final machine listing *)
  | Ran of run_reply
  | Soaked of string  (** the JSON text [mipsc soak --json] prints *)
  | Reported of string  (** the JSON text [mipsc report --json] prints *)
  | Status_r of string  (** daemon status as JSON text *)
  | Bye  (** shutdown acknowledged *)
  | Err of reject * string

val tenant_of : request -> string option
(** The tenant a request bills to; [None] for [Ping]/[Status]/[Shutdown]. *)

val request_kind : request -> string
(** Stable lowercase tag ("run", "soak", ...) for metrics and logs;
    [Tagged] reports its inner request's kind. *)

val mutating : request -> bool
(** Requests whose double execution would be observable (and billable):
    [Compile]/[Run]/[Soak]/[Report].  These are the ones the client tags
    with a request ID and the server deduplicates; the rest are idempotent
    reads a retry can simply re-issue. *)

val untag : request -> string option * request
(** Strip one [Tagged] envelope: [(Some id, inner)] for a tagged request,
    [(None, req)] otherwise. *)

val run_request : tenant:string -> session:string option -> desc -> request
(** The [Run] request for a description. *)

val encode_desc : desc -> string
(** A description's bytes, laid out as in a [Run] request after its
    session. *)

val valid_name : string -> bool
(** Tenant and session names: 1-64 chars of [A-Za-z0-9._-] — safe as file
    name fragments in the session journal. *)

val encode_request : request -> string
val decode_request : string -> (request, Frame.error) result
val encode_response : response -> string
val decode_response : string -> (response, Frame.error) result
