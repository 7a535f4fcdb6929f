(** General-purpose registers.

    The machine has 16 general registers, [r0] .. [r15], none of them
    hardwired (as on the Stanford MIPS).  The software conventions used by
    the code generator are exposed here so that every client agrees on them:

    - [r0] - [r9]: allocatable temporaries and user variables
    - [r10], [r11]: scratch registers reserved for the code generator
      (address computation, byte insertion staging, spill shuttling)
    - [r12]: function result
    - [r13]: link register (return address)
    - [r14]: frame pointer
    - [r15]: stack pointer *)

type t = private int [@@deriving eq, ord, show]

val of_int : int -> t
(** @raise Invalid_argument unless the argument is in [0, 15]. *)

val to_int : t -> int

val r : int -> t
(** Alias for {!of_int}, for concise literals in tests and codegen. *)

val scratch0 : t
val scratch1 : t
val result : t
val link : t
val fp : t
val sp : t

val allocatable : t list
(** Registers available to the register allocator, [r0] .. [r9]. *)

val all : t list
(** All sixteen registers in index order. *)

val name : t -> string
(** ["r0"] .. ["r15"], with the conventional aliases for the special ones
    (["rv"], ["lr"], ["fp"], ["sp"]) used by the pretty-printer. *)

val pp : Format.formatter -> t -> unit

(** Register sets as 16-bit masks: every operation is a few machine
    instructions, which the reorganizer's dependence tests rely on. *)
module Set : sig
  type elt = t
  type t [@@immediate]

  val empty : t
  val is_empty : t -> bool
  val singleton : elt -> t
  val add : elt -> t -> t
  val mem : elt -> t -> bool
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val equal : t -> t -> bool
  val of_list : elt list -> t

  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  (** Visits members in ascending register order. *)

  val iter : (elt -> unit) -> t -> unit
  (** Ascending register order, like {!fold}. *)
end
