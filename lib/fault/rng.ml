type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.mul (Int64.of_int seed) 0x2545F4914F6CDD1DL }
let copy t = { state = t.state }

let next64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits30 t = Int64.to_int (Int64.logand (next64 t) 0x3FFFFFFFL)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits30 t mod n

let float t = float_of_int (bits30 t) /. 1073741824.0

let split t = { state = next64 t }

(* The whole stream position is the one 64-bit state word — what
   checkpoint/restore snapshots. *)
let state t = t.state
let of_state s = { state = s }
