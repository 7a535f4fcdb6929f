(* Data memory as one flat [int array]: the representation the page table
   replaced, kept as the oracle for the data-memory property in the
   machine suite.  Reads and writes answer as the flat [Cpu.dmem] did,
   the exception an out-of-range index raises included. *)

open Mips_isa

type t = int array

let create ~words : t = Array.make words 0
let read (t : t) a = t.(a)
let write (t : t) a v = t.(a) <- Word32.norm v
let write_lane (t : t) a lane v = t.(a) <- Word32.set_byte t.(a) lane v
let clear (t : t) = Array.fill t 0 (Array.length t) 0
