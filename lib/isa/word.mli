(** Packed 32-bit instruction words.

    A word carries at most one ALU piece and at most one memory {e or} branch
    piece.  Within a packed word both pieces read the register file state from
    {e before} the word executes (parallel-read semantics); the memory piece
    commits before the ALU piece's register write, and a faulting memory
    reference inhibits that write — this is what makes instructions
    restartable after a page fault (paper, Section 3.3). *)

type 'lbl t =
  | Nop
  | A of Alu.t
  | M of Mem.t
  | B of 'lbl Branch.t
  | AM of Alu.t * Mem.t
  | AB of Alu.t * 'lbl Branch.t
[@@deriving eq, show]

val map : ('a -> 'b) -> 'a t -> 'b t

val of_piece : 'lbl Piece.t -> 'lbl t
(** The single-piece word (the unpacked form). *)

val pieces : 'lbl t -> 'lbl Piece.t list

val pack : 'lbl Piece.t -> 'lbl Piece.t -> 'lbl t option
(** [pack p q] combines two pieces into one word when legal, trying both
    slot orders.  Packing is legal for an ALU piece together with either a
    non-whole-word memory piece or a {e direct} branch (Cbr/Jump/Jal), and
    only when the two pieces do not write the same register. *)

val packs : 'lbl Piece.t -> 'lbl Piece.t -> bool
(** Whether {!pack} succeeds, without building the word. *)

val reads : _ t -> Reg.Set.t
(** Registers read anywhere in the word (all pieces read pre-state). *)

val writes : _ t -> Reg.Set.t
(** Registers written by the word (at most one per piece). *)

val load_writes : _ t -> Reg.Set.t
(** Registers written by a {e load} piece — these writes land one word late
    (the software-interlock rule the reorganizer must respect). *)

val branch : 'lbl t -> 'lbl Branch.t option
val alu : _ t -> Alu.t option
val mem : _ t -> Mem.t option

val references_memory : _ t -> bool
(** Whether the word makes a data-memory reference; its negation is a
    "free memory cycle" available to DMA / cache write-back. *)

val pp : (Format.formatter -> 'lbl -> unit) -> Format.formatter -> 'lbl t -> unit
val pp_sym : Format.formatter -> string t -> unit
val pp_abs : Format.formatter -> int t -> unit
