type 'lbl t =
  | Nop
  | A of Alu.t
  | M of Mem.t
  | B of 'lbl Branch.t
  | AM of Alu.t * Mem.t
  | AB of Alu.t * 'lbl Branch.t
[@@deriving eq, show]

let map f = function
  | Nop -> Nop
  | A a -> A a
  | M m -> M m
  | B b -> B (Branch.map f b)
  | AM (a, m) -> AM (a, m)
  | AB (a, b) -> AB (a, Branch.map f b)

let of_piece = function
  | Piece.Alu a -> A a
  | Piece.Mem m -> M m
  | Piece.Branch b -> B b
  | Piece.Nop -> Nop

let pieces = function
  | Nop -> []
  | A a -> [ Piece.Alu a ]
  | M m -> [ Piece.Mem m ]
  | B b -> [ Piece.Branch b ]
  | AM (a, m) -> [ Piece.Alu a; Piece.Mem m ]
  | AB (a, b) -> [ Piece.Alu a; Piece.Branch b ]

let disjoint_writes wa wb =
  match (wa, wb) with Some a, Some b -> not (Reg.equal a b) | _ -> true

let packable_branch = function
  | Branch.Cbr _ | Branch.Jump _ | Branch.Jal _ -> true
  | Branch.Jind _ | Branch.Jalind _ | Branch.Trap _ -> false

let packs_ordered p q =
  match (p, q) with
  | Piece.Alu a, Piece.Mem m ->
      (not (Mem.whole_word m)) && disjoint_writes (Alu.writes a) (Mem.writes m)
  | Piece.Alu a, Piece.Branch b ->
      packable_branch b && disjoint_writes (Alu.writes a) (Branch.writes b)
  | _ -> false

let pack_ordered p q =
  match (p, q) with
  | Piece.Alu a, Piece.Mem m when packs_ordered p q -> Some (AM (a, m))
  | Piece.Alu a, Piece.Branch b when packs_ordered p q -> Some (AB (a, b))
  | _ -> None

let packs p q = packs_ordered p q || packs_ordered q p
let pack p q = match pack_ordered p q with Some w -> Some w | None -> pack_ordered q p

let fold_pieces f acc w = List.fold_left f acc (pieces w)

(* [reads], [load_writes] and [references_memory] match the constructors
   directly rather than folding over [pieces]: the reference engine calls
   them every cycle and they must not allocate. *)
let reads = function
  | Nop -> Reg.Set.empty
  | A a -> Alu.reads a
  | M m -> Mem.reads m
  | B b -> Branch.reads b
  | AM (a, m) -> Reg.Set.union (Alu.reads a) (Mem.reads m)
  | AB (a, b) -> Reg.Set.union (Alu.reads a) (Branch.reads b)

let writes w =
  fold_pieces
    (fun acc p ->
      match Piece.writes p with None -> acc | Some r -> Reg.Set.add r acc)
    Reg.Set.empty w

let load_writes = function
  | M (Mem.Load (_, _, d)) | AM (_, Mem.Load (_, _, d)) -> Reg.Set.singleton d
  | M (Mem.Limm _ | Mem.Store _) | AM (_, (Mem.Limm _ | Mem.Store _))
  | Nop | A _ | B _ | AB _ ->
      Reg.Set.empty

let branch = function
  | B b | AB (_, b) -> Some b
  | Nop | A _ | M _ | AM _ -> None

let alu = function
  | A a | AM (a, _) | AB (a, _) -> Some a
  | Nop | M _ | B _ -> None

let mem = function
  | M m | AM (_, m) -> Some m
  | Nop | A _ | B _ | AB _ -> None

let references_memory = function
  | M m | AM (_, m) -> Mem.references_memory m
  | Nop | A _ | B _ | AB _ -> false

let pp pp_lbl ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | A a -> Alu.pp ppf a
  | M m -> Mem.pp ppf m
  | B b -> Branch.pp pp_lbl ppf b
  | AM (a, m) -> Format.fprintf ppf "%a ; %a" Alu.pp a Mem.pp m
  | AB (a, b) -> Format.fprintf ppf "%a ; %a" Alu.pp a (Branch.pp pp_lbl) b

let pp_sym ppf w = pp Format.pp_print_string ppf w
let pp_abs ppf w = pp Format.pp_print_int ppf w
