(** Seed-driven transient-fault plans.

    A plan is consulted by the simulator once per instruction word: with a
    given per-step probability it injects one transient fault — a single-bit
    flip in a register or data word (a parity-style soft error), a spurious
    assertion of the external interrupt line, a simulated TLB drop (a clean
    page silently unmapped), or a {e flaky-memory} arming under which the
    next data reference transiently faults and must be restarted through
    the architectural dispatch path.

    Plans are deterministic: the same configuration always produces the
    same injection sequence at the same step counts, so a soak run is
    reproducible bit-for-bit from its seed.  The {!none} plan is disabled
    and costs the simulator a single flag test per step. *)

type config = {
  seed : int;
  flip_reg_rate : float;  (** per-step probability of a register bit flip *)
  flip_data_rate : float;  (** per-step probability of a data-word bit flip *)
  irq_rate : float;  (** per-step probability of a spurious interrupt *)
  page_drop_rate : float;  (** per-step probability of a simulated TLB drop *)
  flaky_rate : float;  (** per-step probability of arming flaky memory *)
  max_injections : int;  (** stop injecting after this many; [0] = unlimited *)
}

val quiet : config
(** Seed 0, every rate 0, unlimited — the base to override. *)

(** One injected fault, decided by the plan.  Numeric payloads are {e hints}:
    the machine reduces them into its own ranges (register index modulo 16,
    data word modulo memory size, page pick modulo the mapped-page count). *)
type injection =
  | Flip_reg of { reg : int; bit : int }
  | Flip_data of { word : int; bit : int }
  | Spurious_interrupt
  | Drop_page of { pick : int }
  | Flaky_mem

(** A plan: its configuration, stream position and injection counters.
    Concrete so the checkpoint codec
    ([Mips_resilience.Snapshot.machine_to_string]) reads and writes it
    directly: the whole dynamic state is the stream position plus the
    counters, so a restored plan continues the decision sequence exactly
    where the captured one left off.  Otherwise change it only through
    {!decide} and {!note_flaky_fired}. *)
type t = {
  enabled : bool;
  cfg : config;
  rng : Rng.t;  (** the decision stream; {!Rng.state} is its position *)
  mutable injected : int;
  mutable reg_flips : int;
  mutable data_flips : int;
  mutable irqs : int;
  mutable page_drops : int;
  mutable flaky_armed : int;
  mutable flaky_fired : int;
}

val none : t
(** The disabled plan: {!decide} always answers [None], nothing counts. *)

val make : config -> t
(** A fresh enabled plan.  Plans are stateful (stream position, counters);
    make a new one per machine and per run. *)

val enabled : t -> bool
val config : t -> config

val decide : t -> injection option
(** One per-step decision.  Advances the stream exactly once per call (plus
    payload draws when injecting), so decision [k] depends only on the seed
    and [k]. *)

val note_flaky_fired : t -> unit
(** Called by the machine when an armed flaky-memory fault actually fires
    on a data reference. *)

val injected : t -> int
(** Total injections decided so far. *)

val flaky_fired : t -> int
(** Armed flaky faults that actually fired (each is one transient
    dispatch the software must retry or attribute). *)

val counts : t -> (string * int) list
(** Per-kind injection counters, in a fixed order:
    [reg_flip, data_flip, irq, page_drop, flaky_armed, flaky_fired]. *)

val injection_kind : injection -> string
val injection_target : injection -> int
(** The primary numeric payload (register, word, pick; [0] for irq/flaky)
    — what the trace event reports. *)

val to_json : t -> Mips_obs.Json.t
(** Configuration (seed, rates) plus every counter. *)
