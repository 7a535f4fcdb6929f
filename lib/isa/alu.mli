(** ALU instruction pieces.

    An ALU piece is one of the two slots of a 32-bit instruction word (the
    other being a memory or branch piece).  It covers binary operations with
    reverse variants, the 8-bit move immediate, the {e set conditionally}
    instruction, the byte insert/extract support for the word-addressed
    memory system, and the privileged special-register accesses used by the
    systems layer. *)

type binop =
  | Add
  | Sub
  | Rsub (** reverse subtract: [dst <- src2 - src1]; gives small negative
             constants without sign extension, as the paper prescribes *)
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Mul (** single-cycle here; the Stanford MIPS used multiply-step
            instructions — see DESIGN.md, substitution table *)
  | Div
  | Rem
[@@deriving eq, ord, show]

(** Special (non-general) registers accessible to ALU pieces. *)
type special =
  | Surprise (** the processor status word: privilege, enables, cause fields *)
  | Segment  (** on-chip segmentation: process id and mask width *)
  | Byte_select (** staging register for the byte-insert instruction *)
  | Epc of int  (** saved exception return addresses, [0] .. [2] *)
[@@deriving eq, ord, show]

type t =
  | Binop of binop * Operand.t * Operand.t * Reg.t
      (** [dst <- src1 op src2] *)
  | Mov of Operand.t * Reg.t
  | Movi8 of int * Reg.t  (** [dst <- c] for an 8-bit constant [0..255] *)
  | Setc of Cond.t * Operand.t * Operand.t * Reg.t
      (** set conditionally: [dst <- if a cond b then 1 else 0] *)
  | Xbyte of Operand.t * Operand.t * Reg.t
      (** extract byte: [dst <- byte (ptr land 3) of word] where the first
          operand is a byte pointer and the second the containing word *)
  | Ibyte of Operand.t * Reg.t
      (** insert byte: replace, inside [dst], the byte selected by the
          [Byte_select] special register with the low 8 bits of the source *)
  | Rd_special of special * Reg.t  (** privileged except [Byte_select] *)
  | Wr_special of special * Operand.t
  | Rfe (** return-from-exception state restore: pops the previous privilege
            and mapping-enable bits inside the surprise register; pair with
            an indirect jump through the saved return address *)
[@@deriving eq, ord, show]

val reads : t -> Reg.Set.t
(** General registers read by the piece. *)

val writes : t -> Reg.t option
(** The general register written by the piece, if any. *)

val reads_special : t -> special option
val writes_special : t -> special option

val is_privileged : t -> bool
(** Whether executing the piece at user level raises a privilege trap.
    Only surprise/segment/epc accesses and [Rfe] are privileged. *)

val pp : Format.formatter -> t -> unit
