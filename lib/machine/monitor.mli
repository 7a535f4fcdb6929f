(** Monitor-call ABI.

    "The trap code for software traps is 12 bits long, allowing 4096
    different monitor calls."  These are the ones our runtime defines.
    Arguments are passed in [r10]/[r11] (the scratch registers), results
    come back in [r12] (the result register). *)

val exit_ : int  (** code 1: terminate; status in r10 *)
val putchar : int  (** code 2: write the character in r10 *)
val putint : int  (** code 3: write the decimal integer in r10 *)
val getchar : int
(** code 4: read one character into r12; 255 at end of input, a marker that
    survives both word- and byte-sized character variables *)
val yield : int  (** code 5: give up the processor (scheduling hint) *)
val putstr : int
(** code 6: write a packed string; word address of the packed byte array in
    r10, character count in r11 *)

val name : int -> string option
(** Human-readable name of a known monitor call. *)
