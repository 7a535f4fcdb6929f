open Mips_isa

type stats = { scheme1 : int; scheme2 : int; scheme3 : int; unfilled : int }

let is_nop (sw : Sblock.sword) = match sw.Sblock.word with Word.Nop -> true | _ -> false

(* A word that may execute speculatively on a path that does not need it:
   a single ALU piece that cannot fault (no memory reference, no divide —
   overflow traps are assumed disabled, see DESIGN.md). *)
let safe_speculative (sw : Sblock.sword) =
  (not sw.Sblock.fixed)
  &&
  match sw.Sblock.word with
  | Word.A a -> (
      match a with
      | Alu.Binop ((Alu.Div | Alu.Rem), _, _, _) -> false
      | Alu.Binop _ | Alu.Mov _ | Alu.Movi8 _ | Alu.Setc _ | Alu.Xbyte _
      | Alu.Ibyte _ ->
          true
      | Alu.Rd_special _ | Alu.Wr_special _ | Alu.Rfe -> false)
  | Word.Nop | Word.M _ | Word.B _ | Word.AM _ | Word.AB _ -> false

(* Scheme 1: may the last body word move past the terminator into a slot? *)
let movable_past_branch ~(prev : Sblock.sword option) (sw : Sblock.sword) br =
  (not sw.Sblock.fixed)
  && Reg.Set.is_empty (Word.load_writes sw.Sblock.word)  (* no loads *)
  && Reg.Set.is_empty (Reg.Set.inter (Word.writes sw.Sblock.word) (Branch.reads br))
  && (match Branch.writes br with
     | None -> true
     | Some link ->
         (not (Reg.Set.mem link (Word.reads sw.Sblock.word)))
         && not (Reg.Set.mem link (Word.writes sw.Sblock.word)))
  &&
  (* removing it must not put the branch word in a load's delay shadow *)
  match prev with
  | None -> true
  | Some p ->
      not (Hazard.load_use_conflict ~earlier:p.Sblock.word ~later:(Word.B br))

let scheme1 (sb : Sblock.t) br =
  let rec go body_rev moved n =
    if n = 0 then (body_rev, moved)
    else
      match body_rev with
      | [] -> (body_rev, moved)
      | last :: rest ->
          let prev = match rest with p :: _ -> Some p | [] -> None in
          if movable_past_branch ~prev last br then go rest (last :: moved) (n - 1)
          else (body_rev, moved)
  in
  let need = List.length (List.filter is_nop sb.Sblock.slots) in
  (* only fill leading nop slots; anything already filled stays *)
  if need <> List.length sb.Sblock.slots then (sb, 0)
  else
    let body_rev, moved = go (List.rev sb.Sblock.body) [] need in
    let filled = List.length moved in
    if filled = 0 then (sb, 0)
    else
      let slots =
        moved @ List.init (need - filled) (fun _ -> Sblock.nop)
      in
      ({ sb with Sblock.body = List.rev body_rev; slots }, filled)

let set_target br l' = Branch.map (fun _ -> l') br

type ctx = {
  blocks : Block.t array;
  index : (string, int) Hashtbl.t;  (* Block.label_index of [blocks] *)
  live : Reg.Set.t array;
  mutable labels : int;  (* synthetic labels made so far by this fill *)
  sblocks : Sblock.t array;
  mutable s1 : int;
  mutable s2 : int;
  mutable s3 : int;
  mutable nops : int;
}

(* numbered per fill, so a compile's labels do not depend on what else the
   process (or another Domain) compiled before it *)
let fresh_label ctx =
  ctx.labels <- ctx.labels + 1;
  Printf.sprintf ".Ldelay%d" ctx.labels

(* Scheme 2: backward branch to label [l]; duplicate the target's first word
   into the slot and branch past it. *)
let scheme2 ctx i br note l =
  match Hashtbl.find_opt ctx.index l with
  | None -> false
  | Some j when j > i -> false  (* only backward (loop) branches *)
  | Some j -> (
      let tb = ctx.sblocks.(j) in
      if tb.Sblock.mid_labels <> [] then false
      else
        match tb.Sblock.body with
        | [] -> false
        | w0 :: _ ->
            let spurious_ok =
              if Branch.is_conditional br then
                (* executes spuriously when the loop exits to fall-through *)
                safe_speculative w0
                && i + 1 < Array.length ctx.blocks
                && Reg.Set.is_empty
                     (Reg.Set.inter (Word.writes w0.Sblock.word) ctx.live.(i + 1))
              else not w0.Sblock.fixed
            in
            if not spurious_ok then false
            else begin
              let l' = fresh_label ctx in
              ctx.sblocks.(j) <-
                { tb with Sblock.mid_labels = [ (1, l') ] };
              ctx.sblocks.(i) <-
                {
                  (ctx.sblocks.(i)) with
                  Sblock.term = Some (set_target br l', note);
                  slots = [ w0 ];
                };
              true
            end)

(* Scheme 3: conditional branch; move the fall-through block's first word
   into the slot (it must be dead on the taken path). *)
let scheme3 ctx i br note =
  if i + 1 >= Array.length ctx.sblocks then false
  else
    let ft = ctx.sblocks.(i + 1) in
    if ft.Sblock.labels <> [] || ft.Sblock.mid_labels <> [] then false
    else
      match (ft.Sblock.body, Branch.label br) with
      | w0 :: rest, Some l -> (
          match Hashtbl.find_opt ctx.index l with
          | None -> false
          | Some j ->
              if
                safe_speculative w0
                && Reg.Set.is_empty
                     (Reg.Set.inter (Word.writes w0.Sblock.word) ctx.live.(j))
              then begin
                ctx.sblocks.(i + 1) <- { ft with Sblock.body = rest };
                ctx.sblocks.(i) <-
                  {
                    (ctx.sblocks.(i)) with
                    Sblock.term = Some (br, note);
                    slots = [ w0 ];
                  };
                true
              end
              else false)
      | _ -> false

let fill ~blocks sblocks =
  let index = Block.label_index blocks in
  let ctx =
    { blocks; index; live = Liveness.live_in ~index blocks; labels = 0;
      sblocks = Array.copy sblocks; s1 = 0; s2 = 0; s3 = 0; nops = 0 }
  in
  Array.iteri
    (fun i _ ->
      let sb = ctx.sblocks.(i) in
      match sb.Sblock.term with
      | None -> ()
      | Some (br, note) ->
          let sb', filled = scheme1 sb br in
          ctx.sblocks.(i) <- sb';
          ctx.s1 <- ctx.s1 + filled;
          let remaining =
            List.length (List.filter is_nop ctx.sblocks.(i).Sblock.slots)
          in
          if remaining > 0 && Branch.delay br = 1 then begin
            let filled2 =
              match br with
              | Branch.Jump l | Branch.Cbr (_, _, _, l) -> scheme2 ctx i br note l
              | Branch.Jal _ | Branch.Jind _ | Branch.Jalind _ | Branch.Trap _ ->
                  false
            in
            if filled2 then ctx.s2 <- ctx.s2 + 1
            else if Branch.is_conditional br && scheme3 ctx i br note then
              ctx.s3 <- ctx.s3 + 1
            else ctx.nops <- ctx.nops + remaining
          end
          else ctx.nops <- ctx.nops + remaining)
    sblocks;
  ( ctx.sblocks,
    { scheme1 = ctx.s1; scheme2 = ctx.s2; scheme3 = ctx.s3; unfilled = ctx.nops } )
