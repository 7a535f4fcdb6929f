(** Deterministic pseudo-random numbers for fault plans and program
    generation.

    A splitmix64 stream: the same seed always produces the same sequence,
    on every platform, independent of [Stdlib.Random] state.  Everything
    the fault subsystem randomises — injection timing, flipped bits,
    generated programs — draws from one of these so that a soak run is
    reproducible bit-for-bit from its seed. *)

type t

val create : int -> t
(** A fresh stream from a seed.  Equal seeds give equal streams. *)

val copy : t -> t
(** An independent stream continuing from the same state. *)

val next64 : t -> int64
(** The raw 64-bit output (advances the state). *)

val bits30 : t -> int
(** 30 uniform bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t n] is uniform-ish in [\[0, n)].  @raise Invalid_argument if
    [n <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val split : t -> t
(** A statistically independent stream derived from (and advancing) [t] —
    use to give each subsystem its own stream from one master seed. *)

(** {2 Checkpoint support}

    The stream position is exactly one 64-bit word; capturing and restoring
    it resumes the sequence with no drift. *)

val state : t -> int64

val of_state : int64 -> t
(** A stream continuing from a captured position (unlike {!create}, which
    mixes its argument as a seed). *)
