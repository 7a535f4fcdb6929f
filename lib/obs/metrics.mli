(** A registry of named counters and accumulating timers.

    The reorganizer charges per-pass wall time here, the kernel its
    bookkeeping counts; {!to_json} is the machine-readable form the
    [--stats-json] outputs carry.  Names are free-form dotted paths
    (["reorg.schedule"], ["delay.scheme1"]); output is sorted by name so
    serializations are deterministic. *)

type t

val create : unit -> t

val null : t
(** A registry that records nothing: every operation is a no-op.  Default
    sink for instrumented paths that may run concurrently on worker domains
    — a disabled registry is never written, so it is safe to share. *)

(** {2 Counters} *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val set : t -> string -> int -> unit
val count : t -> string -> int
(** 0 for a counter never touched. *)

(** {2 Timers}

    A timer accumulates processor seconds ({!Sys.time}) across calls. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, charging its duration (exceptions included). *)

val add_seconds : t -> string -> float -> unit
val seconds : t -> string -> float
val calls : t -> string -> int

(** {2 Histograms}

    A histogram records a distribution of values in 64 base-2 magnitude
    buckets with exact count/sum/min/max, giving ~1.4x-relative-error
    quantiles at O(1) cost per sample.  Because buckets hold integer
    counts, {!merge} combines histograms by bucketwise addition — exactly
    associative, so quantiles from a parallel fan-out do not depend on the
    merge order of per-worker registries. *)

type hist_view = {
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val observe : t -> string -> float -> unit
(** Record one sample.  Non-positive and non-finite values land in the
    lowest bucket (count/sum/min/max still see them exactly). *)

val quantile : t -> string -> float -> float
(** [quantile t name q] for [q] in [0, 1]: the representative value of the
    bucket holding the sample of rank [ceil (q * count)], clamped into
    [min, max].  0 for a histogram never observed. *)

val histogram : t -> string -> hist_view option

(** {2 Export} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val timers : t -> (string * float * int) list
(** (name, seconds, calls), sorted by name. *)

val histograms : t -> (string * hist_view) list
(** Sorted by name. *)

val merge : into:t -> t -> unit
(** Fold one registry into another: counters add, timers accumulate both
    seconds and calls, histograms add bucketwise.  Combines per-worker
    registries after a parallel fan-out has joined; no-op when [into] is
    {!null}. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "timers": {name: {"seconds": s, "calls": n}},
    "histograms": {name: {"count": n, "sum": s, "min": v, "max": v,
    "p50": v, "p90": v, "p99": v}}}]. *)

val pp : Format.formatter -> t -> unit
