(* Unit and property tests for the ISA library. *)

open Mips_isa
open Testutil

(* --- Word32 ------------------------------------------------------------ *)

let test_norm_range () =
  List.iter
    (fun x ->
      let w = Word32.norm x in
      check "in range" true (w >= -0x80000000 && w < 0x80000000))
    [ 0; 1; -1; max_int; min_int; 0x7FFFFFFF; 0x80000000; -0x80000001 ]

let test_wraparound () =
  check_int "max+1 wraps" (-0x80000000) (Word32.add 0x7FFFFFFF 1);
  check_int "min-1 wraps" 0x7FFFFFFF (Word32.sub (-0x80000000) 1);
  check "overflow detected" true (Word32.add_overflows 0x7FFFFFFF 1);
  check "no overflow" false (Word32.add_overflows 5 7);
  check "sub overflow" true (Word32.sub_overflows (-0x80000000) 1);
  check "mul overflow" true (Word32.mul_overflows 0x10000 0x10000)

let test_bytes () =
  let w = Word32.norm 0x12345678 in
  check_int "byte 0" 0x78 (Word32.get_byte w 0);
  check_int "byte 3" 0x12 (Word32.get_byte w 3);
  check_int "set byte" 0x12AB5678 (Word32.set_byte w 2 0xAB);
  check_int "unsigned" 0xFFFFFFFF (Word32.to_unsigned (-1))

let test_shifts () =
  check_int "sll" 16 (Word32.shift_left 1 4);
  check_int "srl of -1" 0x7FFFFFFF (Word32.shift_right_logical (-1) 1);
  check_int "sra of -2" (-1) (Word32.shift_right_arith (-2) 1);
  check_int "shift masks to 5 bits" 2 (Word32.shift_left 1 33)

(* --- Cond -------------------------------------------------------------- *)

let prop_negate_complements =
  QCheck2.Test.make ~name:"cond: negate complements eval" ~count:500
    QCheck2.Gen.(triple Gen.cond Gen.word32 Gen.word32)
    (fun (c, a, b) -> Cond.eval c a b = not (Cond.eval (Cond.negate c) a b))

let prop_negate_involutive =
  QCheck2.Test.make ~name:"cond: negate involutive" ~count:100 Gen.cond (fun c ->
      Cond.equal c (Cond.negate (Cond.negate c)))

let prop_swap =
  QCheck2.Test.make ~name:"cond: swap exchanges operands" ~count:500
    QCheck2.Gen.(triple (oneofl Cond.[ Eq; Ne; Lt; Le; Gt; Ge; Ltu; Leu; Gtu; Geu ])
                   Gen.word32 Gen.word32)
    (fun (c, a, b) -> Cond.eval c a b = Cond.eval (Cond.swap c) b a)

let prop_cond_code_roundtrip =
  QCheck2.Test.make ~name:"cond: code roundtrip" ~count:100 Gen.cond (fun c ->
      Cond.equal c (Cond.of_code (Cond.to_code c)))

let test_sixteen_conds () = check_int "16 comparisons" 16 (List.length Cond.all)

(* --- Operand / Reg ------------------------------------------------------ *)

let test_imm4_bounds () =
  check "15 ok" true (Operand.fits_imm4 15);
  check "16 rejected" false (Operand.fits_imm4 16);
  Alcotest.check_raises "imm4 16 raises" (Invalid_argument "Operand.imm4: constant out of range")
    (fun () -> ignore (Operand.imm4 16));
  Alcotest.check_raises "reg 16 raises" (Invalid_argument "Reg.of_int: register out of range")
    (fun () -> ignore (Reg.of_int 16))

let test_reg_conventions () =
  check_int "sp is r15" 15 (Reg.to_int Reg.sp);
  check_int "ten allocatable" 10 (List.length Reg.allocatable);
  Alcotest.(check string) "sp name" "sp" (Reg.name Reg.sp);
  Alcotest.(check string) "plain name" "r3" (Reg.name (Reg.r 3))

(* --- Word packing ------------------------------------------------------- *)

let ld r a = Piece.Mem (Mem.Load (Mem.W32, Mem.Disp (Reg.r a, 0), Reg.r r))
let add d = Piece.Alu (Alu.Binop (Alu.Add, Operand.reg (Reg.r 1), Operand.imm4 1, Reg.r d))

let test_pack_alu_mem () =
  match Word.pack (add 2) (ld 3 4) with
  | Some (Word.AM _) -> ()
  | _ -> Alcotest.fail "expected AM packing"

let test_pack_swapped_order () =
  match Word.pack (ld 3 4) (add 2) with
  | Some (Word.AM _) -> ()
  | _ -> Alcotest.fail "pack should try both orders"

let test_pack_same_dest_rejected () =
  check "same dest" true (Word.pack (add 2) (ld 2 4) = None)

let test_pack_whole_word_rejected () =
  let limm = Piece.Mem (Mem.Limm (123456, Reg.r 5)) in
  check "limm unpackable" true (Word.pack (add 2) limm = None);
  let abs = Piece.Mem (Mem.Load (Mem.W32, Mem.Abs 100, Reg.r 5)) in
  check "abs unpackable" true (Word.pack (add 2) abs = None)

let test_pack_indirect_rejected () =
  let jind = Piece.Branch (Branch.Jind (Reg.r 7)) in
  check "jind unpackable" true (Word.pack (add 2) jind = None);
  let cbr =
    Piece.Branch (Branch.Cbr (Cond.Eq, Operand.reg (Reg.r 0), Operand.imm4 0, "L"))
  in
  (match Word.pack (add 2) cbr with
  | Some (Word.AB _) -> ()
  | _ -> Alcotest.fail "expected AB packing");
  check "two alus unpackable" true (Word.pack (add 2) (add 3) = None)

let test_word_reads_writes () =
  match Word.pack (add 2) (ld 3 4) with
  | Some w ->
      check "reads r1,r4" true
        (Reg.Set.equal (Word.reads w) (Reg.Set.of_list [ Reg.r 1; Reg.r 4 ]));
      check "writes r2,r3" true
        (Reg.Set.equal (Word.writes w) (Reg.Set.of_list [ Reg.r 2; Reg.r 3 ]));
      check "load_writes r3" true
        (Reg.Set.equal (Word.load_writes w) (Reg.Set.singleton (Reg.r 3)))
  | None -> Alcotest.fail "pack failed"

let prop_packs_agrees =
  QCheck2.Test.make ~name:"word: packs agrees with pack" ~count:2000
    QCheck2.Gen.(pair Gen.piece Gen.piece)
    (fun (p, q) -> Word.packs p q = Option.is_some (Word.pack p q))

(* --- Hazard ------------------------------------------------------------- *)

let test_load_use_hazard () =
  let load = Word.M (Mem.Load (Mem.W32, Mem.Disp (Reg.r 4, 0), Reg.r 3)) in
  let use = Word.A (Alu.Mov (Operand.reg (Reg.r 3), Reg.r 5)) in
  let other = Word.A (Alu.Mov (Operand.reg (Reg.r 6), Reg.r 5)) in
  check "conflict" true (Hazard.load_use_conflict ~earlier:load ~later:use);
  check "no conflict" false (Hazard.load_use_conflict ~earlier:load ~later:other);
  check_int "one hazard found" 1 (List.length (Hazard.sequence_hazards [| load; use |]));
  check_int "gap removes hazard" 0
    (List.length (Hazard.sequence_hazards [| load; other; use |]))

(* Independence is the reorganizer's one dependence rule, Dag.latency,
   answering None: only then may the scheduler reorder two pieces. *)
let item ?(fixed = false) piece = { Mips_reorg.Asm.piece; note = Note.plain; fixed }
let independent p q = Mips_reorg.Dag.latency p q = None

let test_independent () =
  let a = add 2 and b = Piece.Alu (Alu.Mov (Operand.imm4 3, Reg.r 5)) in
  check "independent alus" true (independent (item a) (item b));
  check "dep via write-read" false
    (independent (item a) (item (Piece.Alu (Alu.Mov (Operand.reg (Reg.r 2), Reg.r 6)))));
  let st1 = Piece.Mem (Mem.Store (Mem.W32, Reg.r 1, Mem.Abs 10)) in
  let st2 = Piece.Mem (Mem.Store (Mem.W32, Reg.r 2, Mem.Abs 11)) in
  let st_unknown = Piece.Mem (Mem.Store (Mem.W32, Reg.r 2, Mem.Disp (Reg.r 3, 0))) in
  let ld_abs = Piece.Mem (Mem.Load (Mem.W32, Mem.Abs 10, Reg.r 4)) in
  check "distinct abs stores commute" true (independent (item st1) (item st2));
  check "aliasing store blocks" false (independent (item st1) (item st_unknown));
  check "load vs same-abs store" false (independent (item st1) (item ld_abs));
  check "fixed pieces never move" false (independent (item a) (item ~fixed:true b))

let prop_independent_symmetric =
  let piece =
    QCheck2.Gen.oneof
      [ QCheck2.Gen.map (fun a -> Piece.Alu a) Gen.alu;
        QCheck2.Gen.map (fun m -> Piece.Mem m) Gen.mem;
        QCheck2.Gen.return Piece.Nop ]
  in
  QCheck2.Test.make ~name:"hazard: independence symmetric" ~count:1000
    QCheck2.Gen.(pair piece piece)
    (fun (p, q) -> independent (item p) (item q) = independent (item q) (item p))

(* --- Reg.Set ------------------------------------------------------------- *)

module IntSet = Set.Make (Int)

let prop_reg_set_model =
  let set = QCheck2.Gen.(list_size (int_range 0 6) Gen.reg) in
  QCheck2.Test.make ~name:"reg set: agrees with a Set.Make(Int) model"
    ~count:2000
    QCheck2.Gen.(triple set set Gen.reg)
    (fun (xs, ys, r) ->
      let s = Reg.Set.of_list xs and t = Reg.Set.of_list ys in
      let model rs = IntSet.of_list (List.map Reg.to_int rs) in
      let m = model xs and m' = model ys in
      let elements s = List.rev (Reg.Set.fold (fun r acc -> Reg.to_int r :: acc) s []) in
      let iterated s =
        let acc = ref [] in
        Reg.Set.iter (fun r -> acc := Reg.to_int r :: !acc) s;
        List.rev !acc
      in
      let agrees s m = elements s = IntSet.elements m && iterated s = IntSet.elements m in
      agrees s m
      && agrees (Reg.Set.union s t) (IntSet.union m m')
      && agrees (Reg.Set.inter s t) (IntSet.inter m m')
      && agrees (Reg.Set.diff s t) (IntSet.diff m m')
      && agrees (Reg.Set.add r s) (IntSet.add (Reg.to_int r) m)
      && agrees (Reg.Set.singleton r) (IntSet.singleton (Reg.to_int r))
      && agrees Reg.Set.empty IntSet.empty
      && Reg.Set.mem r s = IntSet.mem (Reg.to_int r) m
      && Reg.Set.is_empty s = IntSet.is_empty m
      && Reg.Set.equal s t = IntSet.equal m m'
      && Reg.Set.equal s (Reg.Set.of_list (List.rev xs)))

(* --- Predecode (fast-engine lowering) ------------------------------------ *)

module Predecode = Mips_machine.Predecode
module Stats = Mips_machine.Stats

let word_of_piece = function
  | Piece.Nop -> Word.Nop
  | Piece.Alu a -> Word.A a
  | Piece.Mem m -> Word.M m
  | Piece.Branch b -> Word.B b

let prop_predecode_sets =
  QCheck2.Test.make ~name:"predecode: register sets match Word" ~count:2000
    Gen.word (fun w ->
      let e = Predecode.lower w in
      Reg.Set.equal e.Predecode.reads (Word.reads w)
      && Reg.Set.equal e.Predecode.writes (Word.writes w)
      && Reg.Set.equal e.Predecode.load_writes (Word.load_writes w))

(* the fast engine executes from predecoded entries of *decoded* words, so
   the contract must survive the encode/decode roundtrip too *)
let prop_predecode_roundtrip =
  QCheck2.Test.make ~name:"predecode: encode-decode-predecode roundtrip"
    ~count:2000 Gen.word (fun w ->
      let e = Predecode.lower (Encode.decode (Encode.encode w)) in
      Reg.Set.equal e.Predecode.reads (Word.reads w)
      && Reg.Set.equal e.Predecode.writes (Word.writes w)
      && e.Predecode.alu = Word.alu w
      && e.Predecode.mem = Word.mem w
      && e.Predecode.branch = Word.branch w)

(* What one execution of [w] adds to a zero record. *)
let charged w =
  let s = Stats.zero () in
  Stats.charge s w Note.plain 1 ~weighted:true;
  s

let prop_predecode_piece_counts =
  QCheck2.Test.make ~name:"predecode: piece counts and classification"
    ~count:1000 Gen.piece (fun p ->
      let w = word_of_piece p in
      let c = charged w in
      let count f = List.length (List.filter f (Word.pieces w)) in
      c.Stats.alu_pieces
        = count (function Piece.Alu _ -> true | _ -> false)
      && c.Stats.mem_pieces
         = count (function Piece.Mem _ -> true | _ -> false)
      && c.Stats.branch_pieces
         = count (function Piece.Branch _ -> true | _ -> false)
      && (c.Stats.nops = 1) = (match Word.pieces w with [] -> true | _ -> false)
      && (c.Stats.mem_busy_cycles = 1) = Word.references_memory w
      && c.Stats.mem_busy_cycles + c.Stats.free_cycles = 1
      && Stats.total_loads c + Stats.total_stores c = c.Stats.mem_busy_cycles)

let prop_predecode_hazard_flags =
  QCheck2.Test.make ~name:"predecode: hazard flags" ~count:2000 Gen.word
    (fun w ->
      let e = Predecode.lower w in
      e.Predecode.may_stall = not (Reg.Set.is_empty (Word.reads w))
      && e.Predecode.is_trap
         = (match Word.branch w with Some (Branch.Trap _) -> true | _ -> false)
      && ((charged w).Stats.packed_words = 1)
         = (match w with Word.AM _ | Word.AB _ -> true | _ -> false)
      (* every memory reference, trap, privileged or overflow-capable op
         must be in the guarded (may_fault) class *)
      && ((not (e.Predecode.mem <> None || e.Predecode.is_trap
                || e.Predecode.privileged))
         || e.Predecode.may_fault))

(* --- Encode ------------------------------------------------------------- *)

let prop_encode_roundtrip =
  QCheck2.Test.make ~name:"encode: decode inverts encode" ~count:2000 Gen.word
    (fun w -> Word.equal ( = ) w (Encode.decode (Encode.encode w)))

let test_unencodable () =
  let bad = Word.B (Branch.Jump (Encode.code_address_max + 1)) in
  check "code address too large" true
    (try
       ignore (Encode.encode bad);
       false
     with Encode.Unencodable _ -> true)

let suite =
  [ ( "isa:word32",
      [ Alcotest.test_case "norm range" `Quick test_norm_range;
        Alcotest.test_case "wraparound + overflow" `Quick test_wraparound;
        Alcotest.test_case "byte access" `Quick test_bytes;
        Alcotest.test_case "shifts" `Quick test_shifts ] );
    ( "isa:cond",
      Alcotest.test_case "sixteen comparisons" `Quick test_sixteen_conds
      :: qsuite
           [ prop_negate_complements; prop_negate_involutive; prop_swap;
             prop_cond_code_roundtrip ] );
    ( "isa:operand",
      [ Alcotest.test_case "imm4 bounds" `Quick test_imm4_bounds;
        Alcotest.test_case "reg conventions" `Quick test_reg_conventions ] );
    ( "isa:word",
      [ Alcotest.test_case "pack alu+mem" `Quick test_pack_alu_mem;
        Alcotest.test_case "pack order-insensitive" `Quick test_pack_swapped_order;
        Alcotest.test_case "same dest rejected" `Quick test_pack_same_dest_rejected;
        Alcotest.test_case "whole-word mem rejected" `Quick test_pack_whole_word_rejected;
        Alcotest.test_case "indirect branch rejected" `Quick test_pack_indirect_rejected;
        Alcotest.test_case "reads/writes" `Quick test_word_reads_writes ]
      @ qsuite [ prop_packs_agrees ] );
    ( "isa:hazard",
      [ Alcotest.test_case "load-use" `Quick test_load_use_hazard;
        Alcotest.test_case "independence" `Quick test_independent ]
      @ qsuite [ prop_independent_symmetric ] );
    ("isa:reg", qsuite [ prop_reg_set_model ]);
    ( "isa:encode",
      Alcotest.test_case "unencodable rejected" `Quick test_unencodable
      :: qsuite [ prop_encode_roundtrip ] );
    ( "isa:predecode",
      qsuite
        [ prop_predecode_sets; prop_predecode_roundtrip;
          prop_predecode_piece_counts; prop_predecode_hazard_flags ] ) ]
