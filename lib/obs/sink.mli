(** Pluggable event sinks.

    Instrumentation sites are written as
    [if Sink.enabled sink then Sink.emit sink (Event.Issue {...})] — with
    the {!null} sink the guard is a single load-and-branch and the event is
    never allocated, which is what keeps the uninstrumented simulator at
    its current speed. *)

type t = {
  enabled : bool;
  emit : Event.t -> unit;
  flush : unit -> unit;
}

val null : t
(** Drops everything; [enabled = false]. *)

val enabled : t -> bool

val emit : t -> Event.t -> unit
(** No-op when the sink is disabled.  Hot paths should test {!enabled}
    first so the event itself is only constructed when someone listens. *)

val flush : t -> unit

val make : ?flush:(unit -> unit) -> (Event.t -> unit) -> t
val of_fun : (Event.t -> unit) -> t

val tee : t -> t -> t
(** Emit into both sinks (collapses to {!null}/the live side when one or
    both are disabled). *)

(** {2 Bounded ring buffer}

    Keeps the last [capacity] events; older events are overwritten, and
    {!ring_dropped} reports how many were lost.  The flight-recorder shape:
    cheap enough to leave on, inspectable after the fact. *)

type ring

val ring : capacity:int -> ring * t
(** Raises [Invalid_argument] when [capacity <= 0]. *)

val ring_capacity : ring -> int
val ring_seen : ring -> int
(** Total events emitted into the ring, including overwritten ones. *)

val ring_dropped : ring -> int
(** [max 0 (seen - capacity)]. *)

val ring_contents : ring -> Event.t list
(** The retained events, oldest first. *)

(** {2 Textual sinks} *)

val formatter : Format.formatter -> t
(** One human-readable line per event. *)

val jsonl_channel : out_channel -> t
(** One JSON object per line. *)

val jsonl_buffer : Buffer.t -> t

type format = Text | Jsonl

val to_channel : format -> out_channel -> t
