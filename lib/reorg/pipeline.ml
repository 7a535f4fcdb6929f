open Mips_isa

type level = Naive | Reorganized | Packed | Delay_filled

let all_levels = [ Naive; Reorganized; Packed; Delay_filled ]

let level_name = function
  | Naive -> "none (no-ops inserted)"
  | Reorganized -> "reorganization"
  | Packed -> "packing"
  | Delay_filled -> "branch delay"

let rank = function Naive -> 0 | Reorganized -> 1 | Packed -> 2 | Delay_filled -> 3

let of_rank = function
  | 0 -> Naive
  | 1 -> Reorganized
  | 2 -> Packed
  | _ -> Delay_filled

let pack_terminator (sb : Sblock.t) =
  (* A synthetic mid-block label at or past the end of the body (created by
     the loop-duplication delay scheme) enters the block just before the
     terminator; absorbing the terminator into the last body word would move
     it before that entry point, so leave such blocks alone. *)
  let body_len = List.length sb.Sblock.body in
  let label_blocks_merge =
    List.exists (fun (o, _) -> o >= body_len) sb.Sblock.mid_labels
  in
  match sb.Sblock.term with
  | Some ((Branch.Cbr _ | Branch.Jump _ | Branch.Jal _) as br, note)
    when not label_blocks_merge ->
      let body, absorbed = Sched.try_pack_terminator sb.Sblock.body (br, note) in
      if absorbed then { sb with Sblock.body; term = None } else sb
  | Some _ | None -> sb

(* the default sink records nothing, so unobserved compiles are safe to run
   concurrently on worker domains *)
let no_metrics = Mips_obs.Metrics.null

let compile_with_stats ?(obs = no_metrics) ?(level = Delay_filled)
    (p : Asm.program) =
  let timed name f = Mips_obs.Metrics.time obs name f in
  let blocks =
    timed "reorg.partition" (fun () -> Array.of_list (Block.partition p.Asm.lines))
  in
  Mips_obs.Metrics.add obs "reorg.blocks" (Array.length blocks);
  let sched (b : Block.t) =
    match level with
    | Naive -> Sched.naive b.Block.body
    | Reorganized | Packed | Delay_filled ->
        Sched.schedule ~pack:(rank level >= rank Packed) b.Block.body
  in
  let sblocks =
    timed "reorg.schedule" (fun () ->
        Array.map
          (fun (b : Block.t) ->
            let slots =
              match b.Block.term with
              | None -> []
              | Some (br, _) -> List.init (Branch.delay br) (fun _ -> Sblock.nop)
            in
            {
              Sblock.labels = b.Block.labels;
              mid_labels = [];
              body = sched b;
              term = b.Block.term;
              slots;
            })
          blocks)
  in
  let sblocks, dstats =
    if rank level >= rank Delay_filled then begin
      let s, st = timed "reorg.delay_fill" (fun () -> Delay.fill ~blocks sblocks) in
      Mips_obs.Metrics.add obs "reorg.delay.scheme1_moved_before" st.Delay.scheme1;
      Mips_obs.Metrics.add obs "reorg.delay.scheme2_loop_dup" st.Delay.scheme2;
      Mips_obs.Metrics.add obs "reorg.delay.scheme3_fall_through" st.Delay.scheme3;
      Mips_obs.Metrics.add obs "reorg.delay.unfilled" st.Delay.unfilled;
      (s, Some st)
    end
    else (sblocks, None)
  in
  let sblocks =
    if rank level >= rank Packed then
      timed "reorg.pack_terminator" (fun () -> Array.map pack_terminator sblocks)
    else sblocks
  in
  let program = timed "reorg.assemble" (fun () -> Assemble.assemble p sblocks) in
  Mips_obs.Metrics.add obs "reorg.static_words"
    (Mips_machine.Program.static_count program);
  (program, dstats)

let compile ?level p = fst (compile_with_stats ?level p)

let compile_raw (p : Asm.program) =
  let sword_of_item (i : Asm.item) =
    Sblock.of_word ~note:i.Asm.note ~fixed:i.Asm.fixed (Word.of_piece i.Asm.piece)
  in
  let sblocks =
    Array.of_list (Block.partition p.Asm.lines)
    |> Array.map (fun (b : Block.t) ->
           (* delay-slot words must exist: link registers point past them
              (a jal at [a] returns to [a+2]).  The interlock hardware
              squashes them on every taken branch, so they are stall
              cycles, never executed work. *)
           let slots =
             match b.Block.term with
             | None -> []
             | Some (br, _) -> List.init (Branch.delay br) (fun _ -> Sblock.nop)
           in
           {
             Sblock.labels = b.Block.labels;
             mid_labels = [];
             body = List.map sword_of_item b.Block.body;
             term = b.Block.term;
             slots;
           })
  in
  Assemble.assemble ~pad_hazards:false p sblocks
