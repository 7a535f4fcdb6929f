(* The register allocator as it was before liveness and interference moved
   to dense bit sets: an [ISet] fixpoint over every instruction, a
   [Hashtbl] of [ISet] adjacency sets, and a pick loop that walks the
   degree table.  Kept verbatim as the oracle of the property tests in
   test_compiler.ml: the bit-set allocator must agree with it on every
   live-out set, every choice and every spill slot.  [allocate]'s
   [rounds] counts the respill rounds, so the tests can see that their
   generator reaches them. *)

open Mips_ir
open Ir
module ISet = Set.Make (Int)

let k_colors = List.length Mips_isa.Reg.allocatable

type t = {
  body : Ir.instr list;
  color : Ir.vreg -> Mips_isa.Reg.t;
  spill_words : int;
  spilled_vregs : int;
}

(* --- liveness ----------------------------------------------------------- *)

type flow = {
  instrs : instr array;
  succs : int list array;
  live_out : ISet.t array;
}

let analyze body =
  let instrs = Array.of_list body in
  let n = Array.length instrs in
  let labels = Hashtbl.create 16 in
  Array.iteri
    (fun i ins -> match ins with Lbl l -> Hashtbl.replace labels l i | _ -> ())
    instrs;
  let succs =
    Array.init n (fun i ->
        let next = if i + 1 < n then [ i + 1 ] else [] in
        match instrs.(i) with
        | Jmp l -> [ Hashtbl.find labels l ]
        | Br (_, _, _, l) -> Hashtbl.find labels l :: next
        | Ret _ -> []
        | _ -> next)
  in
  let live_in = Array.make n ISet.empty in
  let live_out = Array.make n ISet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc j -> ISet.union acc live_in.(j))
          ISet.empty succs.(i)
      in
      let ins =
        ISet.union
          (ISet.of_list (uses instrs.(i)))
          (ISet.diff out (ISet.of_list (defs instrs.(i))))
      in
      if not (ISet.equal out live_out.(i)) then begin
        live_out.(i) <- out;
        changed := true
      end;
      if not (ISet.equal ins live_in.(i)) then begin
        live_in.(i) <- ins;
        changed := true
      end
    done
  done;
  { instrs; succs; live_out }

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

let interference flow =
  let adj : (int, ISet.t) Hashtbl.t = Hashtbl.create 64 in
  let node v = match Hashtbl.find_opt adj v with Some s -> s | None -> ISet.empty in
  let edge a b =
    if a <> b then begin
      Hashtbl.replace adj a (ISet.add b (node a));
      Hashtbl.replace adj b (ISet.add a (node b))
    end
  in
  let touch v = if not (Hashtbl.mem adj v) then Hashtbl.replace adj v ISet.empty in
  Array.iteri
    (fun i ins ->
      List.iter touch (uses ins);
      List.iter touch (defs ins);
      let move_src = match ins with Mov (V s, _) -> Some s | _ -> None in
      List.iter
        (fun d ->
          ISet.iter
            (fun l -> if Some l <> move_src then edge d l)
            flow.live_out.(i))
        (defs ins))
    flow.instrs;
  adj

let color_graph adj =
  (* simplicial elimination with optimistic spill candidates *)
  let degree = Hashtbl.create 64 in
  let removed = Hashtbl.create 64 in
  Hashtbl.iter (fun v s -> Hashtbl.replace degree v (ISet.cardinal s)) adj;
  let stack = ref [] in
  let remaining = ref (Hashtbl.length adj) in
  let remove v =
    Hashtbl.replace removed v ();
    Hashtbl.remove degree v;
    stack := v :: !stack;
    decr remaining;
    ISet.iter
      (fun u ->
        match Hashtbl.find_opt degree u with
        | Some d -> Hashtbl.replace degree u (d - 1)
        | None -> ())
      (Hashtbl.find adj v)
  in
  while !remaining > 0 do
    (* prefer a node with degree < K; otherwise push the max-degree node
       optimistically *)
    let best_low = ref None and best_high = ref None in
    Hashtbl.iter
      (fun v d ->
        if d < k_colors then (
          match !best_low with
          | Some (_, d') when d' >= d -> ()
          | _ -> best_low := Some (v, d))
        else
          match !best_high with
          | Some (_, d') when d' >= d -> ()
          | _ -> best_high := Some (v, d))
      degree;
    match (!best_low, !best_high) with
    | Some (v, _), _ -> remove v
    | None, Some (v, _) -> remove v
    | None, None -> assert false
  done;
  (* assign colors popping the stack *)
  let colors = Hashtbl.create 64 in
  let spilled = ref [] in
  List.iter
    (fun v ->
      let neighbor_colors =
        ISet.fold
          (fun u acc ->
            match Hashtbl.find_opt colors u with
            | Some c -> ISet.add c acc
            | None -> acc)
          (Hashtbl.find adj v) ISet.empty
      in
      let rec first c = if ISet.mem c neighbor_colors then first (c + 1) else c in
      let c = first 0 in
      if c < k_colors then Hashtbl.replace colors v c else spilled := v :: !spilled)
    !stack;
  (colors, !spilled)

let allocate ?(rounds = ref 0) (f : Ir.func) =
  (* values live across a call must live in memory (caller-save world) *)
  let flow0 = analyze f.body in
  let call_crossers = ref ISet.empty in
  Array.iteri
    (fun i ins ->
      if is_call ins then
        call_crossers :=
          ISet.union !call_crossers
            (ISet.diff flow0.live_out.(i) (ISet.of_list (defs ins))))
    flow0.instrs;
  let slots = Hashtbl.create 16 in
  let next_slot = ref 0 in
  let add_slot v =
    if not (Hashtbl.mem slots v) then begin
      Hashtbl.replace slots v !next_slot;
      incr next_slot
    end
  in
  ISet.iter add_slot !call_crossers;
  let spilled_count = ref (ISet.cardinal !call_crossers) in
  let rec attempt body next_vreg fuel =
    let body, next_vreg = rewrite_spills body slots next_vreg in
    let flow = analyze body in
    let adj = interference flow in
    let colors, new_spills = color_graph adj in
    match new_spills with
    | [] ->
        let color v =
          match Hashtbl.find_opt colors v with
          | Some c -> Mips_isa.Reg.r c
          | None -> Mips_isa.Reg.r 0  (* dead vreg: any register *)
        in
        {
          body;
          color;
          spill_words = !next_slot;
          spilled_vregs = !spilled_count;
        }
    | vs ->
        if fuel = 0 then failwith "Regalloc: spilling did not converge";
        incr rounds;
        List.iter add_slot vs;
        spilled_count := !spilled_count + List.length vs;
        (* restart from the body we just produced (its reload temporaries for
           other slots are harmless to respill) *)
        attempt body next_vreg (fuel - 1)
  in
  attempt f.body f.vreg_count 32


(* each instruction's live-out set, ascending *)
let live_out body = Array.map ISet.elements (analyze body).live_out
