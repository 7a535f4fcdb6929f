(** A minimal, dependency-free JSON tree.

    The observability layer serializes events, counters and the paper's
    tables as JSON without pulling a JSON package into the build: the
    printer emits canonical one-line JSON (stable field order — whatever
    order the [Obj] list carries), and the parser accepts anything the
    printer produces (plus ordinary interchange JSON), which is what the
    round-trip tests rely on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Canonical single-line rendering.  Floats print with enough digits to
    round-trip; NaN and infinities (which JSON cannot represent) print as
    [null]. *)

val to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
(** Indented, human-oriented rendering (two-space indent). *)

val of_string : string -> (t, string) result
val of_string_exn : string -> t

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val member_exn : string -> t -> t
val to_int_exn : t -> int
val to_float_exn : t -> float
(** Accepts [Int] too (JSON does not distinguish). *)

val to_string_exn : t -> string
val to_list_exn : t -> t list
