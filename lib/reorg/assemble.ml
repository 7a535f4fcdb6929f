open Mips_isa

exception Undefined_label of string
exception Duplicate_label of string

(* The image in order: [word sw] for every word, padding no-ops included,
   and [label l] for every label just before the word it names.  Labels
   after the last word land on a final no-op. *)
let walk ~pad_hazards ~label ~word (sblocks : Sblock.t array) =
  let pending = ref [] and prev = ref Word.Nop in
  let push (sw : Sblock.sword) =
    if pad_hazards && Hazard.load_use_conflict ~earlier:!prev ~later:sw.Sblock.word
    then word Sblock.nop;
    List.iter label (List.rev !pending);
    pending := [];
    word sw;
    prev := sw.Sblock.word
  in
  let push_label l = pending := l :: !pending in
  Array.iter
    (fun (sb : Sblock.t) ->
      List.iter push_label sb.Sblock.labels;
      let mid = sb.Sblock.mid_labels in
      List.iteri
        (fun idx sw ->
          List.iter (fun (o, l) -> if o = idx then push_label l) mid;
          push sw)
        sb.Sblock.body;
      List.iter (fun (o, l) -> if o >= List.length sb.Sblock.body then push_label l) mid;
      Option.iter (fun (br, note) -> push (Sblock.of_word ~note (Word.B br))) sb.Sblock.term;
      List.iter push sb.Sblock.slots)
    sblocks;
  (* trailing labels (e.g. an end label) attach to a final no-op *)
  if !pending <> [] then push Sblock.nop

(* One walk places the labels and counts the words; a second fills the
   image. *)
let assemble ?(pad_hazards = true) (p : Asm.program) sblocks =
  let table = Hashtbl.create 64 and n = ref 0 in
  walk ~pad_hazards sblocks
    ~label:(fun l ->
      if Hashtbl.mem table l then raise (Duplicate_label l);
      Hashtbl.add table l !n)
    ~word:(fun _ -> incr n);
  let resolve l =
    match Hashtbl.find_opt table l with
    | Some a -> a
    | None -> raise (Undefined_label l)
  in
  let code = Array.make !n Word.Nop and notes = Array.make !n Note.plain in
  let i = ref 0 in
  walk ~pad_hazards sblocks ~label:ignore ~word:(fun (sw : Sblock.sword) ->
      code.(!i) <- Word.map resolve sw.Sblock.word;
      notes.(!i) <- sw.Sblock.note;
      incr i);
  let symbols = Hashtbl.fold (fun l a acc -> (l, a) :: acc) table [] in
  Mips_machine.Program.make ~notes ~data:p.Asm.data ~data_words:p.Asm.data_words
    ~symbols ~entry:(resolve p.Asm.entry) code

let verify_hazard_free (p : Mips_machine.Program.t) =
  Hazard.sequence_hazards p.Mips_machine.Program.code
