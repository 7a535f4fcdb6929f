open Mips_isa

type t = {
  labels : string list;
  body : Asm.item list;
  term : (string Branch.t * Note.t) option;
}

let partition lines =
  let blocks = ref [] in
  let labels = ref [] in
  let body = ref [] in
  let flush term =
    if !labels <> [] || !body <> [] || term <> None then
      blocks :=
        { labels = List.rev !labels; body = List.rev !body; term } :: !blocks;
    labels := [];
    body := []
  in
  List.iter
    (fun line ->
      match line with
      | Asm.Label l ->
          if !body <> [] then flush None;
          labels := l :: !labels
      | Asm.Ins ({ piece = Piece.Branch b; note; _ } : Asm.item) ->
          flush (Some (b, note))
      | Asm.Ins i -> body := i :: !body)
    lines;
  flush None;
  List.rev !blocks

let flatten blocks =
  List.concat_map
    (fun b ->
      List.map Asm.label b.labels
      @ List.map (fun i -> Asm.Ins i) b.body
      @
      match b.term with
      | None -> []
      | Some (br, note) -> [ Asm.ins ~note (Piece.Branch br) ])
    blocks

let all_regs = Reg.Set.of_list Reg.all

(* use/def of a terminator, conservatively (see .mli). *)
let term_use_def = function
  | Branch.Trap _ ->
      ( Reg.Set.of_list [ Reg.scratch0; Reg.scratch1 ],
        Reg.Set.singleton Reg.result )
  | Branch.Jal _ | Branch.Jalind _ | Branch.Jind _ -> (all_regs, Reg.Set.empty)
  | (Branch.Cbr _ | Branch.Jump _) as b -> (Branch.reads b, Reg.Set.empty)

let use_def b =
  let step (uses, defs) ~reads ~writes =
    let uses = Reg.Set.union uses (Reg.Set.diff reads defs) in
    let defs = Reg.Set.union defs writes in
    (uses, defs)
  in
  let acc =
    List.fold_left
      (fun acc (i : Asm.item) ->
        let writes =
          match Piece.writes i.piece with
          | None -> Reg.Set.empty
          | Some r -> Reg.Set.singleton r
        in
        step acc ~reads:(Piece.reads i.piece) ~writes)
      (Reg.Set.empty, Reg.Set.empty)
      b.body
  in
  match b.term with
  | None -> acc
  | Some (br, _) ->
      let u, d = term_use_def br in
      step acc ~reads:u ~writes:d

let block_uses b = fst (use_def b)
let block_defs b = snd (use_def b)

let label_index blocks =
  let index = Hashtbl.create 64 in
  Array.iteri
    (fun i b ->
      List.iter (fun l -> if not (Hashtbl.mem index l) then Hashtbl.add index l i) b.labels)
    blocks;
  index

let successors index blocks i =
  let b = blocks.(i) in
  let fallthrough = if i + 1 < Array.length blocks then [ i + 1 ] else [] in
  match b.term with
  | None -> fallthrough
  | Some (br, _) -> (
      let to_label =
        match Branch.label br with
        | None -> []
        | Some l -> Option.to_list (Hashtbl.find_opt index l)
      in
      match br with
      | Branch.Jump _ -> to_label
      | Branch.Cbr _ -> to_label @ fallthrough
      | Branch.Jal _ | Branch.Jalind _ | Branch.Trap _ ->
          (* control returns to the fall-through point *)
          to_label @ fallthrough
      | Branch.Jind _ -> [])
