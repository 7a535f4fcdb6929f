(** Symbolic assembly — the code generator's output and the reorganizer's
    input.

    A program is a flat list of lines: labels and instruction {e pieces}
    (one prospective instruction word each, with a reference annotation).
    The reorganizer schedules, packs and assembles this into a loadable
    {!Mips_machine.Program.t}. *)

open Mips_isa

type item = {
  piece : string Piece.t;
  note : Note.t;
  fixed : bool;
      (** when set, the piece must not be moved or packed — the pseudo-op the
          paper mentions for sequences the compiler front end has already
          arranged ("it emits a pseudo-op which tells the reorganizer that
          this sequence is not to be touched") *)
}

type line = Label of string | Ins of item

type program = {
  lines : line list;
  data : (int * Word32.t) list;  (** initialized data words *)
  data_words : int;
  entry : string;  (** label where execution starts *)
}

val ins : ?note:Note.t -> ?fixed:bool -> string Piece.t -> line
val label : string -> line

val make :
  ?data:(int * Word32.t) list -> ?data_words:int -> entry:string -> line list -> program

val pp_line : Format.formatter -> line -> unit
val pp : Format.formatter -> program -> unit
