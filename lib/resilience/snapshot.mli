(** Versioned, checksummed snapshots of execution state.

    A checkpoint is a {!container}: a magic tag, a format version, a kind
    string saying what the checkpoint is of ("soak", "run", ...), a list of
    named sections, and a trailing digest over everything before it.  The
    payload codecs below fill sections with machine state
    ({!machine_to_string}) and kernel scheduler state ({!sched_to_string}),
    and {!hosted_checkpoint} packs a whole {!Hosted.run}; callers add their
    own sections
    (parameters, progress) with the {!Io} primitives and are responsible
    for checking them on restore.

    Decoding is {e total}: any byte string either decodes or returns a
    typed {!error} — truncation, a foreign file, version skew, corruption
    and I/O failures are all distinguishable, and nothing raises.

    Instruction memory is deliberately absent from machine snapshots:
    programs are re-derived deterministically on restore (recompiled, or
    refilled from process images by {!restore_sched}), which
    keeps checkpoints small and surfaces compiler version skew instead of
    silently resurrecting stale code. *)

open Mips_machine
open Mips_os

type error =
  | Truncated  (** ran out of bytes (including an empty or cut-off file) *)
  | Bad_magic  (** not a checkpoint file at all *)
  | Bad_version of int  (** a checkpoint from an incompatible format *)
  | Checksum_mismatch  (** bytes damaged after writing *)
  | Corrupt of string  (** structurally invalid despite a good digest *)
  | Io_error of string  (** the file could not be read *)

val error_to_string : error -> string

val version : int
(** Current container format version. *)

type container = { kind : string; sections : (string * string) list }

val encode : container -> string

val decode : string -> (container, error) result
(** Total: never raises, whatever the input. *)

val section : container -> string -> (string, error) result
(** A named section's payload; [Corrupt] when absent. *)

val write_file : string -> string -> unit
(** [write_file path data] writes atomically (temporary sibling + rename),
    so a crash mid-write never leaves a torn checkpoint under [path].
    @raise Sys_error when the file cannot be written. *)

val read_file : string -> (container, error) result

(** {2 Payload codecs} *)

val machine_to_string : Cpu.t -> string
(** Registers, PC chain, EPCs, surprise, segment map, interrupt line,
    pipeline state, page map, data memory (zero-run compressed), full
    statistics and the fault plan's stream position.  The engines' per-slot
    state ({!Cpu.xword}: compiled words, jit traces and their hotness
    counts) is a derived cache and is not carried; a resumed run rebuilds
    it. *)

val restore_machine : Cpu.t -> string -> (unit, error) result
(** Write a captured machine state into [cpu] — a fresh (or
    {!Cpu.reset}) machine with the same configuration whose {e code} has
    already been loaded (the
    pipeline's previous-word text is re-derived from instruction memory).
    On an error [cpu] may be partly written: discard it. *)

val sched_to_string : Kernel.t -> string
(** What the kernel knows that the machine does not, read from its live
    records: every process control block (the installed process's saved
    copy of its registers; the live ones travel in the machine payload),
    the installed pid, frame ownership, clock hands, the backing store,
    the counters and the run loop's position.  Side-effect free: safe
    between {!Kernel.run_for} slices. *)

val restore_sched : Kernel.t -> string -> (unit, error) result
(** Decode a {!sched_to_string} payload straight into [k], a freshly
    created kernel whose processes have been re-spawned in the same order,
    then {!Kernel.refill_code_frames}.  A payload whose process count,
    pids, names or register-file sizes differ from [k]'s process table,
    whose frame index or clock hand lies outside a pool, or which names a
    pid [k] does not have is [Corrupt]; a short one is [Truncated].  Never raises.  On
    an error [k] may be partly written: discard it. *)

(** {2 Primitives}

    The length-checked little-endian readers/writers the codecs are built
    from, exposed so callers can encode their own sections (parameters,
    progress counters) in the same idiom. *)

module Io : sig
  module W : sig
    type t = Buffer.t

    val create : unit -> t
    val u8 : t -> int -> unit
    val u16 : t -> int -> unit
    val i64 : t -> int64 -> unit
    val int : t -> int -> unit
    val bool : t -> bool -> unit
    val float : t -> float -> unit
    val str : t -> string -> unit
    val opt : (t -> 'a -> unit) -> t -> 'a option -> unit
    val list : (t -> 'a -> unit) -> t -> 'a list -> unit
    val contents : t -> string
  end

  module R : sig
    type t

    exception Underflow
    (** Caught by the [*_of_string] decoders and turned into {!Truncated};
        callers using these primitives directly must do the same. *)

    val make : string -> t
    val remaining : t -> int
    val skip : t -> int -> unit
    val u8 : t -> int
    val u16 : t -> int
    val i64 : t -> int64
    val int : t -> int
    val bool : t -> bool
    val float : t -> float
    val str : t -> string
    val opt : (t -> 'a) -> t -> 'a option
    val list : (t -> 'a) -> t -> 'a list
  end
end

exception Bad of string
(** Structural failure inside a digest-valid body — raised by the {!Io}
    readers on malformed tags, turned into {!Corrupt} by the decoders. *)

(** {2 Hosted-run checkpoints} *)

val hosted_checkpoint :
  kind:string -> meta:string -> Cpu.t -> Hosted.host_state -> string
(** What a {!Hosted.run} [save] callback writes: the caller's [meta] (all
    the run depends on), the machine and the hosted-loop state. *)

val restore_hosted :
  kind:string -> meta:string -> Cpu.t -> string ->
  (Hosted.host_state, error) result
(** Read that file, refuse another [kind] or [meta] as [Corrupt], restore
    the machine and return the state for [Hosted.run ~resume]. *)

val ( let* ) :
  ('a, error) result -> ('a -> ('b, error) result) -> ('b, error) result
(** Result chaining for callers assembling multi-section restores. *)
