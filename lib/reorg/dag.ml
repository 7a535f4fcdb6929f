open Mips_isa

type t = {
  items : Asm.item array;
  lat : Bytes.t;
  npreds : int array;
  priority : int array;
}

(* What the dependence test needs of one item, computed once per item. *)
type summary = {
  fixed : bool;
  reads : Reg.Set.t;
  writes : Reg.Set.t;
  load : bool;
  sp_reads : Alu.special option;
  sp_writes : Alu.special option;
  mem : Mem.t option;
}

let summarize (i : Asm.item) =
  let p = i.piece in
  let sp_reads, sp_writes =
    match p with
    | Piece.Alu a -> (Alu.reads_special a, Alu.writes_special a)
    | _ -> (None, None)
  in
  {
    fixed = i.fixed;
    reads = Piece.reads p;
    writes =
      (match Piece.writes p with None -> Reg.Set.empty | Some r -> Reg.Set.singleton r);
    load = (match p with Piece.Mem (Mem.Load _) -> true | _ -> false);
    sp_reads;
    sp_writes;
    mem = (match p with Piece.Mem m -> Some m | _ -> None);
  }

let meets x y = not (Reg.Set.is_empty (Reg.Set.inter x y))
let clash x y = match (x, y) with Some s, Some s' -> Alu.equal_special s s' | _ -> false

(* Latency of the edge from [a] to a later [b], or -1 when independent: the
   largest latency any one dependence between them asks for. *)
let dep a b =
  if a.fixed || b.fixed then 1
  else if meets a.writes b.reads then if a.load then 2 else 1
  else if
    meets a.writes b.writes
    || clash a.sp_writes b.sp_reads
    || clash a.sp_writes b.sp_writes
    || match (a.mem, b.mem) with Some m, Some m' -> Hazard.mem_dependent m m' | _ -> false
  then 1
  else if meets a.reads b.writes || clash a.sp_reads b.sp_writes then 0
  else -1

let latency a b = match dep (summarize a) (summarize b) with -1 -> None | l -> Some l

let build items =
  let n = Array.length items in
  let sums = Array.map summarize items in
  let lat = Bytes.make (n * n) '\000' in
  let npreds = Array.make n 0 and priority = Array.make n 0 in
  (* walking up from the block's end, a node's critical-path priority is
     final before any of its predecessors reads it *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      let l = dep sums.(i) sums.(j) in
      if l >= 0 then begin
        Bytes.set lat ((i * n) + j) (Char.chr (l + 1));
        npreds.(j) <- npreds.(j) + 1;
        priority.(i) <- max priority.(i) (priority.(j) + max l 1)
      end
    done
  done;
  { items; lat; npreds; priority }

let edge t i j = Char.code (Bytes.get t.lat ((i * Array.length t.items) + j)) - 1
