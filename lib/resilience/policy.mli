(** The resilience vocabulary shared by {!Supervise}, the daemon's
    [Client.call] and its [Tenants] table: one backoff and one circuit
    breaker.  Both are plain values owned by their caller, and time comes
    in as arguments, so tests drive them with a synthetic clock. *)

module Backoff : sig
  type t = { base_s : float; max_s : float }

  val delay : t -> Mips_fault.Rng.t -> ?left_s:float -> int -> float
  (** [delay b rng k], the wait before retry [k >= 1], is
      [min max_s (base_s * 2{^k-1}) * (0.5 + 0.5u)] for one draw [u] from
      [rng], clamped to [max 0 left_s] — the time left before a deadline —
      when given. *)
end

module Breaker : sig
  type t
  (** [Closed n] counts consecutive failures, [Open until] refuses until
      its cooldown is over, [Half_open] has let one probe through. *)

  type verdict = Pass | Probe | Refuse

  val create : threshold:int -> cooldown_s:float -> t
  (** Closed; [threshold] consecutive failures open it for [cooldown_s]. *)

  val admit : ?can_probe:bool -> t -> now:float -> verdict
  (** [Pass] while closed.  Once the cooldown is over, the first caller
      gets [Probe] and the breaker turns half-open; everyone else gets
      [Refuse] until {!record} hears how the probe went.  A caller still
      busy with work from before the trip passes [~can_probe:false] and is
      refused, leaving the probe for later. *)

  val record : t -> now:float -> ok:bool -> unit
  (** A failure extends the run and opens the breaker at the threshold; a
      failed probe re-opens it for a full cooldown; a success closes it.
      While open, outcomes change nothing. *)

  val is_open : t -> bool
  val failures : t -> int  (** the current run while closed, else 0 *)

  val to_string : t -> now:float -> string
  (** ["closed"], ["closed(N failures)"], ["half-open"], ["open"] or
      ["open(cooldown over)"]. *)
end
