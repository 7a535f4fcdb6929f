open Mips_isa

let sword_of_item (i : Asm.item) =
  Sblock.of_word ~note:i.note ~fixed:i.fixed (Word.of_piece i.piece)

let naive items =
  let emit (out, prev) (i : Asm.item) =
    let sw = sword_of_item i in
    let out =
      match prev with
      | Some (pw : Sblock.sword)
        when Hazard.load_use_conflict ~earlier:pw.Sblock.word ~later:sw.Sblock.word
        ->
          Sblock.nop :: out
      | _ -> out
    in
    (sw :: out, Some sw)
  in
  let out, _ = List.fold_left emit ([], None) items in
  List.rev out

(* note for a packed word: the memory piece's annotation wins (branch and
   ALU pieces never reference data) *)
let merge_note (a : Asm.item) (b : Asm.item) =
  match (a.piece, b.piece) with
  | Piece.Mem _, _ -> a.note
  | _, Piece.Mem _ -> b.note
  | _ -> a.note

let schedule ~pack items =
  let items = Array.of_list items in
  let dag = Dag.build items in
  let n = Array.length items in
  (* readiness, kept up to date as nodes are placed: a node is ready at
     slot [s] once no predecessor is unplaced and [earliest] <= [s] *)
  let unplaced_preds = Array.copy dag.npreds in
  let earliest = Array.make n 0 in
  let done_ = Array.make n false in
  let remaining = ref n in
  let out = ref [] in
  let slot = ref 0 in
  let place i =
    done_.(i) <- true;
    decr remaining;
    for j = i + 1 to n - 1 do
      let lat = Dag.edge dag i j in
      if lat >= 0 then begin
        unplaced_preds.(j) <- unplaced_preds.(j) - 1;
        earliest.(j) <- max earliest.(j) (!slot + lat)
      end
    done
  in
  (* the ready node of highest priority, the lowest index on ties, that
     packs with [partner] if [partner >= 0]; -1 if none *)
  let best_ready partner =
    let best = ref (-1) in
    for i = n - 1 downto 0 do
      if
        (not done_.(i))
        && unplaced_preds.(i) = 0
        && earliest.(i) <= !slot
        && (partner < 0
           || ((not items.(i).fixed) && Word.packs items.(partner).piece items.(i).piece))
        && (!best < 0 || dag.priority.(i) >= dag.priority.(!best))
      then best := i
    done;
    !best
  in
  while !remaining > 0 do
    (match best_ready (-1) with
    | -1 -> out := Sblock.nop :: !out
    | i ->
        place i;
        let item = items.(i) in
        let emitted =
          if (not pack) || item.fixed then sword_of_item item
          else
            (* look for a partner that fits in the other slot of this word *)
            match best_ready i with
            | -1 -> sword_of_item item
            | j -> (
                match Word.pack item.piece items.(j).piece with
                | None -> sword_of_item item
                | Some w ->
                    place j;
                    Sblock.of_word ~note:(merge_note item items.(j)) w)
        in
        out := emitted :: !out);
    incr slot
  done;
  List.rev !out

let try_pack_terminator body (br, note) =
  let packable_alu = function
    | Word.A a -> Some a
    | Word.Nop | Word.M _ | Word.B _ | Word.AM _ | Word.AB _ -> None
  in
  match List.rev body with
  | (last : Sblock.sword) :: rev_rest -> (
      match packable_alu last.Sblock.word with
      | Some alu when not last.Sblock.fixed -> (
          let alu_writes =
            match Alu.writes alu with
            | None -> Reg.Set.empty
            | Some r -> Reg.Set.singleton r
          in
          let branch_ok =
            (* the branch reads pre-word state: it must not consume the ALU
               result, and a link write must not collide with the ALU piece *)
            Reg.Set.is_empty (Reg.Set.inter alu_writes (Branch.reads br))
            &&
            match Branch.writes br with
            | None -> true
            | Some link ->
                (not (Reg.Set.mem link (Alu.reads alu)))
                && not (Reg.Set.mem link alu_writes)
          in
          match (branch_ok, Word.pack (Piece.Alu alu) (Piece.Branch br)) with
          | true, Some packed ->
              (* the merged word moves the branch one slot earlier: it must
                 not now sit in a preceding load's delay shadow *)
              let shadowed =
                match rev_rest with
                | prev :: _ ->
                    Hazard.load_use_conflict ~earlier:prev.Sblock.word ~later:packed
                | [] -> false
              in
              if shadowed then (body, false)
              else (List.rev (Sblock.of_word ~note packed :: rev_rest), true)
          | _ -> (body, false))
      | _ -> (body, false))
  | [] -> (body, false)
