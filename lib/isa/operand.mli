(** ALU / compare operands: a register, or the orthogonal 4-bit immediate.

    The paper: "In the MIPS instruction format every operation can optionally
    contain a four-bit constant in the range 0-15 in place of a register
    field."  Negative constants are expressed with {e reverse} operators
    rather than sign extension. *)

type t =
  | R of Reg.t
  | I4 of int  (** immediate constant, [0] .. [15] *)
[@@deriving eq, ord, show]

val reg : Reg.t -> t

val imm4 : int -> t
(** @raise Invalid_argument unless the constant fits in 4 bits unsigned. *)

val fits_imm4 : int -> bool
(** Whether a constant can be carried in a register field. *)

val add_read : Reg.Set.t -> t -> Reg.Set.t
(** [add_read s op] adds the register [op] reads, if any, to [s]. *)

val pp : Format.formatter -> t -> unit
