(* Code-generation configuration: the two axes the paper's evaluation
   varies. *)

type target =
  | Word_addressed  (* the MIPS: word addresses, bytes via insert/extract *)
  | Byte_addressed  (* the comparison machine of Tables 9/10: byte addresses,
                       native byte loads/stores *)
[@@deriving eq, show]

type bool_strategy =
  | Setcond  (* the MIPS set-conditionally instruction: branch-free boolean
                values (Figure 3) *)
  | Early_out  (* short-circuit jumping code (Figure 1, right column) *)
[@@deriving eq, show]

type t = {
  target : target;
  bool_strategy : bool_strategy;
  stack_top : int;  (* initial stack pointer, in machine address units *)
}

let default =
  { target = Word_addressed; bool_strategy = Setcond; stack_top = 0x3FFF0 }

let byte_machine =
  (* same physical data size: 2^18 words = 2^20 bytes *)
  { default with target = Byte_addressed; stack_top = 0xFFFC0 }

(* The configuration the command-line flags select: the byte machine or
   the default one, with early-out booleans on request. *)
let of_flags ~byte ~early_out =
  let base = if byte then byte_machine else default in
  if early_out then { base with bool_strategy = Early_out } else base

(* Address unit of a word: 1 on the word machine, 4 on the byte machine. *)
let word_units t = match t.target with Word_addressed -> 1 | Byte_addressed -> 4
