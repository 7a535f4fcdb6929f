type t = int [@@deriving eq, ord, show]

let of_int i =
  if i < 0 || i > 15 then invalid_arg "Reg.of_int: register out of range";
  i

let to_int t = t
let r = of_int
let scratch0 = 10
let scratch1 = 11
let result = 12
let link = 13
let fp = 14
let sp = 15
let allocatable = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
let all = List.init 16 (fun i -> i)

let name = function
  | 12 -> "rv"
  | 13 -> "lr"
  | 14 -> "fp"
  | 15 -> "sp"
  | i -> "r" ^ string_of_int i

let pp ppf t = Format.pp_print_string ppf (name t)

module Set = struct
  type elt = int
  type t = int

  let empty = 0
  let is_empty s = s = 0
  let singleton r = 1 lsl r
  let add r s = s lor (1 lsl r)
  let mem r s = s land (1 lsl r) <> 0
  let union = ( lor )
  let inter = ( land )
  let diff a b = a land lnot b
  let equal = Int.equal
  let of_list rs = List.fold_left (fun s r -> add r s) empty rs

  let fold f s acc =
    let rec go r acc = if s lsr r = 0 then acc else go (r + 1) (if mem r s then f r acc else acc) in
    go 0 acc

  let iter f s = fold (fun r () -> f r) s ()
end
