open Mips_isa

type entry = {
  word : int Word.t;
  alu : Alu.t option;
  mem : Mem.t option;
  branch : int Branch.t option;
  reads : Reg.Set.t;
  writes : Reg.Set.t;
  load_writes : Reg.Set.t;
  may_stall : bool;
  is_trap : bool;
  privileged : bool;
  may_arith_fault : bool;
  may_fault : bool;
  render : string lazy_t;
}

(* Division faults on a zero divisor regardless of the overflow enable;
   the overflow-trappable ops fault only when the enable is up.  Either
   way the word can reach the dispatch path. *)
let arith_can_fault = function
  | Alu.Binop ((Alu.Add | Alu.Sub | Alu.Rsub | Alu.Mul | Alu.Div | Alu.Rem), _, _, _)
    ->
      true
  | Alu.Binop _ | Alu.Mov _ | Alu.Movi8 _ | Alu.Setc _ | Alu.Xbyte _
  | Alu.Ibyte _ | Alu.Rd_special _ | Alu.Wr_special _ | Alu.Rfe ->
      false

let lower (w : int Word.t) =
  let alu = Word.alu w in
  let mem = Word.mem w in
  let branch = Word.branch w in
  let reads = Word.reads w in
  let is_trap = match branch with Some (Branch.Trap _) -> true | _ -> false in
  let privileged =
    match alu with Some a -> Alu.is_privileged a | None -> false
  in
  let may_arith_fault =
    match alu with Some a -> arith_can_fault a | None -> false
  in
  {
    word = w;
    alu;
    mem;
    branch;
    reads;
    writes = Word.writes w;
    load_writes = Word.load_writes w;
    may_stall = not (Reg.Set.is_empty reads);
    is_trap;
    privileged;
    may_arith_fault;
    may_fault =
      (mem <> None) || is_trap || privileged || may_arith_fault
      (* Rfe also redirects control through the EPCs, but it is privileged,
         so it is already in the guarded class *);
    render = lazy (Format.asprintf "%a" Word.pp_abs w);
  }

let nop = lower Word.Nop

let of_program (p : Program.t) =
  Array.map
    (fun w -> match w with Word.Nop -> nop | _ -> lower w)
    p.Program.code

(* Block-structure helpers for the profiler: a branch piece terminates a
   basic block; direct branches expose a static target, and the delay count
   tells how many shadow words follow the terminator in delayed mode. *)
let ends_block e = e.branch <> None
let branch_target e = Option.bind e.branch Branch.label
let branch_delay e = Option.map Branch.delay e.branch
