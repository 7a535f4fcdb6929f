(* QCheck generators for ISA values, shared by the property tests. *)

open Mips_isa
module G = QCheck2.Gen

let reg : Reg.t G.t = G.map Reg.of_int (G.int_range 0 15)
let operand : Operand.t G.t =
  G.oneof [ G.map Operand.reg reg; G.map Operand.imm4 (G.int_range 0 15) ]

let cond : Cond.t G.t = G.oneofl Cond.all

let binop : Alu.binop G.t =
  G.oneofl
    [ Alu.Add; Alu.Sub; Alu.Rsub; Alu.And; Alu.Or; Alu.Xor; Alu.Sll; Alu.Srl;
      Alu.Sra; Alu.Mul; Alu.Div; Alu.Rem ]

let special : Alu.special G.t =
  G.oneofl
    [ Alu.Surprise; Alu.Segment; Alu.Byte_select; Alu.Epc 0; Alu.Epc 1; Alu.Epc 2 ]

let alu : Alu.t G.t =
  G.oneof
    [ G.map (fun (op, a, b, d) -> Alu.Binop (op, a, b, d))
        (G.quad binop operand operand reg);
      G.map (fun (a, d) -> Alu.Mov (a, d)) (G.pair operand reg);
      G.map (fun (c, d) -> Alu.Movi8 (c, d)) (G.pair (G.int_range 0 255) reg);
      G.map (fun (c, a, b, d) -> Alu.Setc (c, a, b, d))
        (G.quad cond operand operand reg);
      G.map (fun (p, v, d) -> Alu.Xbyte (p, v, d)) (G.triple operand operand reg);
      G.map (fun (s, d) -> Alu.Ibyte (s, d)) (G.pair operand reg);
      G.map (fun (s, d) -> Alu.Rd_special (s, d)) (G.pair special reg);
      G.map (fun (s, a) -> Alu.Wr_special (s, a)) (G.pair special operand);
      G.return Alu.Rfe ]

let addr : Mem.addr G.t =
  G.oneof
    [ G.map (fun a -> Mem.Abs a) (G.int_range 0 0xFFFFFF);
      G.map (fun (b, d) -> Mem.Disp (b, d)) (G.pair reg (G.int_range (-32768) 32767));
      G.map (fun (b, i) -> Mem.Idx (b, i)) (G.pair reg reg);
      G.map (fun (b, i, n) -> Mem.Shifted (b, i, n))
        (G.triple reg reg (G.int_range 0 7));
      G.map (fun (b, i, n) -> Mem.Scaled (b, i, n))
        (G.triple reg reg (G.int_range 0 3)) ]

let width : Mem.width G.t = G.oneofl [ Mem.W32; Mem.W8 ]

let word32 : Word32.t G.t =
  G.map Word32.norm (G.oneof [ G.int_range (-70000) 70000; G.int ])

let mem : Mem.t G.t =
  G.oneof
    [ G.map (fun (w, a, d) -> Mem.Load (w, a, d)) (G.triple width addr reg);
      G.map (fun (w, s, a) -> Mem.Store (w, s, a)) (G.triple width reg addr);
      G.map (fun (c, d) -> Mem.Limm (c, d)) (G.pair word32 reg) ]

let target : int G.t = G.int_range 0 Encode.code_address_max

let branch : int Branch.t G.t =
  G.oneof
    [ G.map (fun (c, a, b, t) -> Branch.Cbr (c, a, b, t))
        (G.quad cond operand operand target);
      G.map (fun t -> Branch.Jump t) target;
      G.map (fun (t, l) -> Branch.Jal (t, l)) (G.pair target reg);
      G.map (fun r -> Branch.Jind r) reg;
      G.map (fun (r, l) -> Branch.Jalind (r, l)) (G.pair reg reg);
      G.map (fun c -> Branch.Trap c) (G.int_range 0 Branch.trap_code_max) ]

let piece : int Piece.t G.t =
  G.oneof
    [ G.return Piece.Nop;
      G.map (fun a -> Piece.Alu a) alu;
      G.map (fun m -> Piece.Mem m) mem;
      G.map (fun b -> Piece.Branch b) branch ]

let ( let* ) x f = G.bind x f
let ( and* ) a b = G.pair a b

(* Only structurally valid packings are generated (same side conditions as
   Word.pack). *)
let word : int Word.t G.t =
  let am =
    let* a, m = G.pair alu mem in
    match Word.pack (Piece.Alu a) (Piece.Mem m) with
    | Some w -> G.return w
    | None -> G.return (Word.A a)
  and ab =
    let* a, b = G.pair alu branch in
    match Word.pack (Piece.Alu a) (Piece.Branch b) with
    | Some w -> G.return w
    | None -> G.return (Word.B b)
  in
  G.oneof
    [ G.return Word.Nop; G.map (fun a -> Word.A a) alu; G.map (fun m -> Word.M m) mem;
      G.map (fun b -> Word.B b) branch; am; ab ]

let _ = ( and* )

(* --- whole programs ------------------------------------------------------ *)

(* Closed, terminating whole programs in symbolic assembly, via the seeded
   soak generator (Mips_soak.Progen): every draw is a program that assembles
   both raw and reorganized and exits through the monitor.  The generator is
   deterministic in the drawn seed, so failures shrink to a seed. *)
let program_seed : int G.t = G.int_range 0 1_000_000

let whole_program : Mips_reorg.Asm.program G.t =
  G.map (fun seed -> Mips_soak.Progen.generate ~seed ()) program_seed

(* --- IR functions for the register allocator ----------------------------- *)

(* A function over vregs [0 .. nv-1], all defined up front and most used
   again at the end, so that more than ten are live at once through a body
   of arithmetic, memory references and [Br]/[Jmp] to labels placed
   anywhere (forward, backward, into unreachable code or endless loops:
   the allocator must not care).  About half the functions also call, with
   every value still to be summed live across the call.  [nv] is the
   accumulator of the closing sum. *)
let ir_func : Mips_ir.Ir.func G.t =
  let open Mips_ir.Ir in
  let* nv = G.int_range 2 28 in
  let* nl = G.int_range 1 4 in
  let* calls = G.bool in
  let v = G.int_range 0 (nv - 1) in
  let op =
    G.frequency
      [ (4, G.map (fun x -> V x) v); (1, G.map (fun c -> C c) (G.int_range 0 20)) ]
  in
  let label = G.map (Printf.sprintf "L%d") (G.int_range 0 (nl - 1)) in
  let note = Note.plain in
  let call =
    G.map
      (fun (func, args, dst) -> Call { func; args; dst })
      (G.triple (G.return "g") (G.list_size (G.int_range 0 3) op) (G.opt v))
  in
  let instr =
    G.frequency
      ([ (6, G.map (fun (o, a, b, d) -> Bin (o, a, b, d))
               (G.quad (G.oneofl [ Alu.Add; Alu.Sub; Alu.And ]) op op v));
         (2, G.map (fun (a, d) -> Mov (a, d)) (G.pair op v));
         (1, G.map (fun (c, a, b, d) -> Setcond (c, a, b, d)) (G.quad cond op op v));
         (1, G.map (fun (b, d) -> Load { addr = Based (V b, 1); dst = d; width = W32; note })
               (G.pair v v));
         (1, G.map (fun (s, b, i) -> Store { src = s; addr = Indexed (V b, i); width = W32; note })
               (G.triple op v op));
         (1, G.map (fun (b, i, d) -> Lea (Shifted_a (V b, i, 2), d)) (G.triple v op v));
         (1, G.map (fun (args, dst) -> Trapcall { code = 1; args; dst })
               (G.pair (G.list_size (G.int_range 0 2) op) (G.opt v)));
         (2, G.map (fun (c, a, b, l) -> Br (c, a, b, l)) (G.quad cond op op label));
         (1, G.map (fun l -> Jmp l) label);
         (1, G.map (fun a -> Ret (Some a)) op) ]
      @ if calls then [ (3, call) ] else [])
  in
  let* body = G.list_size (G.int_range 0 50) instr in
  let* at = G.list_repeat nl (G.int_range 0 (List.length body)) in
  let* summed = G.list_repeat nv (G.frequency [ (4, G.return true); (1, G.return false) ]) in
  let labels_at p =
    List.concat (List.mapi (fun l q -> if q = p then [ Lbl (Printf.sprintf "L%d" l) ] else []) at)
  in
  let body =
    List.concat (List.mapi (fun p i -> labels_at p @ [ i ]) body)
    @ labels_at (List.length body)
  in
  let prologue = List.init (nv + 1) (fun x -> Mov (C x, x)) in
  let sum =
    List.concat (List.mapi (fun x s -> if s then [ Bin (Alu.Add, V nv, V x, nv) ] else []) summed)
  in
  G.return
    { name = "gen"; body = prologue @ body @ sum @ [ Ret (Some (V nv)) ]; nparams = 0;
      local_units = 0; ret_vreg = Some nv; vreg_count = nv + 1 }
