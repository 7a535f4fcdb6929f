open Mips_ir
open Ir

let k_colors = List.length Mips_isa.Reg.allocatable

type t = {
  body : Ir.instr list;
  color : Ir.vreg -> Mips_isa.Reg.t;
  spill_words : int;
}

(* --- liveness ----------------------------------------------------------- *)

(* A set of vregs is a bit set over the dense numbers [0 .. nv-1], 32 to an
   [int] word, held at offset [o] of an [int] array. *)
let mem s o v = s.(o + (v lsr 5)) land (1 lsl (v land 31)) <> 0
let add s o v = s.(o + (v lsr 5)) <- s.(o + (v lsr 5)) lor (1 lsl (v land 31))

let remove s o v =
  s.(o + (v lsr 5)) <- s.(o + (v lsr 5)) land lnot (1 lsl (v land 31))

(* the index of a word's lowest set bit, by de Bruijn multiplication *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
     21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let rec iter_word f w v =
  if w <> 0 then begin
    let b = w land -w in
    f (v + debruijn.(((b * 0x077CB531) lsr 27) land 31));
    iter_word f (w lxor b) v
  end

(* [f v] for every member of the [nw]-word set at [o], ascending *)
let iter_set f s o nw =
  for k = 0 to nw - 1 do
    iter_word f s.(o + k) (k lsl 5)
  done

type flow = {
  instrs : instr array;
  uses : vreg list array;
  defs : vreg list array;
  nv : int;  (** every vreg of the body is below [nv] *)
  nw : int;  (** words per set *)
  starts : int array;
      (** block [b] is [starts.(b) .. starts.(b+1) - 1]: a label starts a
          block, a branch, jump or return ends one *)
  out : int array;  (** block [b]'s live-out set, at [b * nw] *)
}

let analyze body =
  let instrs = Array.of_list body in
  let n = Array.length instrs in
  let uses = Array.map uses instrs and defs = Array.map defs instrs in
  let top = List.fold_left (fun m v -> max m (v + 1)) in
  let nv = Array.fold_left top (Array.fold_left top 0 uses) defs in
  let nw = (nv + 31) lsr 5 in
  let starts = ref [ n ] in
  for i = n - 1 downto 0 do
    if
      i = 0
      || match (instrs.(i), instrs.(i - 1)) with
         | Lbl _, _ | _, (Br _ | Jmp _ | Ret _) -> true
         | _ -> false
    then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts - 1 in
  let block = Hashtbl.create 16 in
  for b = 0 to nb - 1 do
    match instrs.(starts.(b)) with Lbl l -> Hashtbl.replace block l b | _ -> ()
  done;
  let succs =
    Array.init nb (fun b ->
        let next = if b + 1 < nb then [ b + 1 ] else [] in
        match instrs.(starts.(b + 1) - 1) with
        | Jmp l -> [ Hashtbl.find block l ]
        | Br (_, _, _, l) -> Hashtbl.find block l :: next
        | Ret _ -> []
        | _ -> next)
  in
  (* live-in = gen + (live-out - kill), per block *)
  let gen = Array.make (nb * nw) 0 and kill = Array.make (nb * nw) 0 in
  for b = 0 to nb - 1 do
    for i = starts.(b + 1) - 1 downto starts.(b) do
      List.iter (fun d -> remove gen (b * nw) d; add kill (b * nw) d) defs.(i);
      List.iter (add gen (b * nw)) uses.(i)
    done
  done;
  let live_in = Array.make (nb * nw) 0 and out = Array.make (nb * nw) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      let o = b * nw in
      List.iter
        (fun s ->
          for k = 0 to nw - 1 do
            out.(o + k) <- out.(o + k) lor live_in.((s * nw) + k)
          done)
        succs.(b);
      for k = o to o + nw - 1 do
        let x = gen.(k) lor (out.(k) land lnot kill.(k)) in
        if x <> live_in.(k) then begin
          live_in.(k) <- x;
          changed := true
        end
      done
    done
  done;
  { instrs; uses; defs; nv; nw; starts; out }

(* [f i live] at every instruction, last to first, [live] being the
   instruction's live-out set (only valid during the call) *)
let walk flow f =
  let live = Array.make flow.nw 0 in
  for b = Array.length flow.starts - 2 downto 0 do
    Array.blit flow.out (b * flow.nw) live 0 flow.nw;
    for i = flow.starts.(b + 1) - 1 downto flow.starts.(b) do
      f i live;
      List.iter (remove live 0) flow.defs.(i);
      List.iter (add live 0) flow.uses.(i)
    done
  done

let live_out body =
  let flow = analyze body in
  let sets = Array.make (Array.length flow.instrs) [] in
  walk flow (fun i live ->
      iter_set (fun v -> sets.(i) <- v :: sets.(i)) live 0 flow.nw;
      sets.(i) <- List.rev sets.(i));
  sets

(* [f i d l] for every interference: [d] is defined at [i] while [l] is
   live out of it, a move's source excepted *)
let iter_interferences flow f =
  walk flow (fun i live ->
      let src = match flow.instrs.(i) with Mov (V s, _) -> s | _ -> -1 in
      List.iter
        (fun d -> iter_set (fun l -> if l <> d && l <> src then f i d l) live 0 flow.nw)
        flow.defs.(i))

(* --- spill rewriting ------------------------------------------------------ *)

let subst_operand m = function V v when Hashtbl.mem m v -> V (Hashtbl.find m v) | op -> op

let subst_vreg m v = match Hashtbl.find_opt m v with Some v' -> v' | None -> v

let subst_addr m = function
  | Based (b, d) -> Based (subst_operand m b, d)
  | Indexed (a, b) -> Indexed (subst_operand m a, subst_operand m b)
  | Shifted_a (a, b, n) -> Shifted_a (subst_operand m a, subst_operand m b, n)
  | Scaled_a (a, b, n) -> Scaled_a (subst_operand m a, subst_operand m b, n)
  | (Abs_a _ | Frame _) as a -> a

let subst_instr m = function
  | Bin (op, a, b, d) -> Bin (op, subst_operand m a, subst_operand m b, subst_vreg m d)
  | Setcond (c, a, b, d) ->
      Setcond (c, subst_operand m a, subst_operand m b, subst_vreg m d)
  | Mov (a, d) -> Mov (subst_operand m a, subst_vreg m d)
  | Lea (a, d) -> Lea (subst_addr m a, subst_vreg m d)
  | Load l -> Load { l with addr = subst_addr m l.addr; dst = subst_vreg m l.dst }
  | Store s -> Store { s with src = subst_operand m s.src; addr = subst_addr m s.addr }
  | Xbyte (p, w, d) -> Xbyte (subst_operand m p, subst_operand m w, subst_vreg m d)
  | Set_bs a -> Set_bs (subst_operand m a)
  | Ibyte (s, w) -> Ibyte (subst_operand m s, subst_vreg m w)
  | Br (c, a, b, l) -> Br (c, subst_operand m a, subst_operand m b, l)
  | Call c -> Call { c with args = List.map (subst_operand m) c.args;
                            dst = Option.map (subst_vreg m) c.dst }
  | Trapcall c -> Trapcall { c with args = List.map (subst_operand m) c.args;
                                    dst = Option.map (subst_vreg m) c.dst }
  | Ret op -> Ret (Option.map (subst_operand m) op)
  | (Lbl _ | Jmp _) as i -> i

let spill_note = Mips_isa.Note.make ~synthetic:true ~char_data:false ~byte_sized:false ()

(* Rewrite [body] so that the vregs in [slots] live in their spill slots:
   every use reloads into a fresh temporary, every def stores from one. *)
let rewrite_spills body slots next_vreg =
  let nv = ref next_vreg in
  let fresh () =
    let v = !nv in
    incr nv;
    v
  in
  let out = ref [] in
  let emit i = out := i :: !out in
  List.iter
    (fun ins ->
      let used = List.filter (Hashtbl.mem slots) (uses ins) in
      let defined = List.filter (Hashtbl.mem slots) (defs ins) in
      let m = Hashtbl.create 4 in
      List.iter
        (fun v -> if not (Hashtbl.mem m v) then Hashtbl.replace m v (fresh ()))
        (used @ defined);
      List.iter
        (fun v ->
          emit
            (Load
               {
                 addr = Frame (Spill_slot (Hashtbl.find slots v));
                 dst = Hashtbl.find m v;
                 width = W32;
                 note = spill_note;
               }))
        (List.sort_uniq compare used);
      emit (subst_instr m ins);
      List.iter
        (fun v ->
          emit
            (Store
               {
                 src = V (Hashtbl.find m v);
                 addr = Frame (Spill_slot (Hashtbl.find slots v));
                 width = W32;
                 note = spill_note;
               }))
        (List.sort_uniq compare defined))
    body;
  (List.rev !out, !nv)

(* --- interference and coloring --------------------------------------------- *)

(* The interference graph as a bit matrix whose row [v] (at [v * nw]) is
   [v]'s neighbor set, with a degree array; its nodes are every vreg the
   body mentions, in the order the pick loop breaks ties by. *)
type graph = { nw : int; adj : int array; degree : int array; order : int array }

let interference flow =
  let { nv; nw; _ } = flow in
  let adj = Array.make (nv * nw) 0 and degree = Array.make nv 0 in
  (* [first.(v)] ranks [v]'s first mention: by instruction, then its uses,
     its def, and the live vregs its def interferes with, ascending *)
  let first = Array.make nv max_int in
  let mentions = Array.map2 ( @ ) flow.uses flow.defs in
  let width = Array.fold_left (fun m l -> max m (List.length l)) 0 mentions in
  let stride = width + nv in
  let mention v key = if key < first.(v) then first.(v) <- key in
  Array.iteri
    (fun i vs -> List.iteri (fun j v -> mention v ((i * stride) + j)) vs)
    mentions;
  iter_interferences flow (fun i d l ->
      mention l ((i * stride) + width + l);
      if not (mem adj (d * nw) l) then begin
        add adj (d * nw) l;
        add adj (l * nw) d;
        degree.(d) <- degree.(d) + 1;
        degree.(l) <- degree.(l) + 1
      end);
  (* Ties go to the node first in this order: by bucket, [Hashtbl.hash v]
     modulo the size a [Hashtbl.create 64] grows to for this many nodes
     (doubled while it holds more than two per bucket), then by first
     mention.  It is the iteration order of the degree table in
     test/regalloc_oracle.ml, which made every image in test/golden. *)
  let order = Array.of_list (List.filter (fun v -> first.(v) < max_int) (List.init nv Fun.id)) in
  let rec size s = if Array.length order > 2 * s then size (2 * s) else s in
  let bucket = Array.init nv (fun v -> Hashtbl.hash v land (size 64 - 1)) in
  Array.stable_sort
    (fun a b ->
      match Int.compare bucket.(a) bucket.(b) with
      | 0 -> Int.compare first.(a) first.(b)
      | c -> c)
    order;
  { nw; adj; degree; order }

(* Simplicial elimination with optimistic spill candidates; returns each
   vreg's color ([-1]: none) and the spilled vregs. *)
let color_graph { nw; adj; degree; order } =
  let n = Array.length order in
  let stack = Array.make n 0 in
  (* [order.(0 .. left-1)] holds the nodes not yet removed, in order; a
     removed node's degree is [-1] *)
  let left = ref n in
  for s = 0 to n - 1 do
    (* prefer the highest-degree node below K; otherwise push the
       highest-degree node optimistically; ties go to the first in order *)
    let low = ref (-1) and high = ref (-1) and kept = ref 0 in
    for j = 0 to !left - 1 do
      let v = order.(j) in
      let d = degree.(v) in
      if d >= 0 then begin
        order.(!kept) <- v;
        incr kept;
        if d < k_colors then (if !low < 0 || d > degree.(!low) then low := v)
        else if !high < 0 || d > degree.(!high) then high := v
      end
    done;
    left := !kept;
    let v = if !low >= 0 then !low else !high in
    stack.(s) <- v;
    degree.(v) <- -1;
    iter_set (fun u -> if degree.(u) >= 0 then degree.(u) <- degree.(u) - 1) adj (v * nw) nw
  done;
  (* assign colors popping the stack *)
  let colors = Array.make (Array.length degree) (-1) in
  let spilled = ref [] in
  for s = n - 1 downto 0 do
    let v = stack.(s) in
    let taken = ref 0 in
    iter_set
      (fun u -> if colors.(u) >= 0 then taken := !taken lor (1 lsl colors.(u)))
      adj (v * nw) nw;
    let c = ref 0 in
    while !taken land (1 lsl !c) <> 0 do incr c done;
    if !c < k_colors then colors.(v) <- !c else spilled := v :: !spilled
  done;
  (colors, !spilled)

let allocate (f : Ir.func) =
  (* values live across a call must live in memory (caller-save world) *)
  let flow0 = analyze f.body in
  let slots = Hashtbl.create 16 in
  let add_slot v =
    if not (Hashtbl.mem slots v) then Hashtbl.replace slots v (Hashtbl.length slots)
  in
  let crossers = Array.make flow0.nw 0 in
  walk flow0 (fun i live ->
      if is_call flow0.instrs.(i) then
        iter_set
          (fun v -> if not (List.mem v flow0.defs.(i)) then add crossers 0 v)
          live 0 flow0.nw);
  iter_set add_slot crossers 0 flow0.nw;
  let rec attempt body flow next_vreg fuel =
    match color_graph (interference flow) with
    | colors, [] ->
        let color v =
          if v < Array.length colors && colors.(v) >= 0 then Mips_isa.Reg.r colors.(v)
          else Mips_isa.Reg.r 0  (* dead vreg: any register *)
        in
        { body; color; spill_words = Hashtbl.length slots }
    | _, vs ->
        if fuel = 0 then failwith "Regalloc: spilling did not converge";
        List.iter add_slot vs;
        (* restart from the body we just produced (its reload temporaries for
           other slots are harmless to respill) *)
        respill body next_vreg (fuel - 1)
  and respill body next_vreg fuel =
    let body, next_vreg = rewrite_spills body slots next_vreg in
    attempt body (analyze body) next_vreg fuel
  in
  if Hashtbl.length slots = 0 then attempt f.body flow0 f.vreg_count 32
  else respill f.body f.vreg_count 32

let check t =
  let ok = ref true in
  iter_interferences (analyze t.body) (fun _ d l ->
      if Mips_isa.Reg.equal (t.color d) (t.color l) then ok := false);
  !ok
