(** The sixteen branch/set comparisons.

    The paper: "MIPS supports conditional control flow breaks using a compare
    and branch instruction with one of 16 possible comparisons", covering
    signed and unsigned arithmetic; the same sixteen comparisons drive the
    {e set conditionally} instruction.  We use the natural complement-closed
    set: six signed relations, four strict/nonstrict unsigned relations, sign
    and parity tests, and the two constants. *)

type t =
  | Eq
  | Ne
  | Lt  (** signed < *)
  | Le  (** signed <= *)
  | Gt  (** signed > *)
  | Ge  (** signed >= *)
  | Ltu (** unsigned < *)
  | Leu (** unsigned <= *)
  | Gtu (** unsigned > *)
  | Geu (** unsigned >= *)
  | Neg    (** first operand < 0 (second operand ignored) *)
  | Nonneg (** first operand >= 0 *)
  | Even   (** low bit of first operand clear *)
  | Odd    (** low bit of first operand set *)
  | Always
  | Never
[@@deriving eq, ord, show]

val all : t list
(** All sixteen comparisons, in encoding order. *)

val eval : t -> Word32.t -> Word32.t -> bool
(** [eval c a b] decides the comparison [a c b]. *)

val negate : t -> t
(** The complementary comparison: [eval (negate c) a b = not (eval c a b)]. *)

val swap : t -> t
(** The comparison with operands exchanged:
    [eval (swap c) b a = eval c a b].  Sign/parity tests and constants are
    their own swap only when the second operand is irrelevant, so [swap] is
    defined (and tested) only for the ten relational comparisons; it returns
    the argument unchanged otherwise. *)

val to_code : t -> int
(** 4-bit encoding, [0] .. [15]. *)

val of_code : int -> t
(** @raise Invalid_argument outside [0, 15]. *)

val pp : Format.formatter -> t -> unit
