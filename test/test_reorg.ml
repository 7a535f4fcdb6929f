(* Tests for the reorganizer: scheduling, packing, branch-delay schemes, and
   semantic equivalence of all optimization levels on the simulator. *)

open Mips_isa
open Mips_machine
open Mips_reorg

open Testutil
let rr i = Operand.reg (Reg.r i)
let i4 = Operand.imm4

(* terse Asm line builders *)
let a x = Asm.ins (Piece.Alu x)
let m x = Asm.ins (Piece.Mem x)
let b x = Asm.ins (Piece.Branch x)
let lbl = Asm.label
let movi8 c d = a (Alu.Movi8 (c, Reg.r d))
let add x y d = a (Alu.Binop (Alu.Add, x, y, Reg.r d))
let ld addr d = m (Mem.Load (Mem.W32, addr, Reg.r d))
let st s addr = m (Mem.Store (Mem.W32, Reg.r s, addr))
let trap c = b (Branch.Trap c)
let halt = [ movi8 0 10; trap Monitor.exit_ ]

let compile_all prog =
  List.map (fun l -> (l, Pipeline.compile ~level:l prog)) Pipeline.all_levels

let run p = Hosted.run_program p

let machine_state p =
  let cpu = Cpu.create () in
  Cpu.load_program cpu p;
  let res = Hosted.run cpu in
  check "halted" true res.Hosted.halted;
  check "no fault" true (res.Hosted.fault = None);
  ( List.map (fun r -> Cpu.get_reg cpu (Reg.r r)) [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ],
    List.init 16 (Cpu.read_data cpu),
    res.Hosted.output )

let assert_equivalent prog =
  let compiled = compile_all prog in
  let reference = machine_state (List.assoc Pipeline.Naive compiled) in
  List.iter
    (fun (level, p) ->
      let state = machine_state p in
      if state <> reference then
        Alcotest.failf "level %s diverges from naive" (Pipeline.level_name level);
      let residual = Assemble.verify_hazard_free p in
      if residual <> [] then
        Alcotest.failf "level %s leaves %d straight-line hazards"
          (Pipeline.level_name level) (List.length residual))
    compiled

(* --- unit: block partitioning ------------------------------------------- *)

let test_partition () =
  let lines =
    [ lbl "main"; movi8 1 0; b (Branch.Jump "l2"); lbl "l2"; movi8 2 1 ] @ halt
  in
  let blocks = Block.partition lines in
  check_int "two blocks" 2 (List.length blocks);
  (match blocks with
  | [ b1; b2 ] ->
      check "b1 label" true (b1.Block.labels = [ "main" ]);
      check "b1 has term" true (b1.Block.term <> None);
      check "b2 label" true (b2.Block.labels = [ "l2" ]);
      check_int "b2 body" 2 (List.length b2.Block.body);
      check "b2 trap-terminated" true (b2.Block.term <> None)
  | _ -> Alcotest.fail "partition shape");
  (* flatten inverts *)
  let lines' = Block.flatten blocks in
  check_int "flatten preserves length" (List.length lines) (List.length lines')

(* --- unit: dag latencies ------------------------------------------------- *)

let item p = { Asm.piece = p; note = Note.plain; fixed = false }

let test_dag_latencies () =
  let load = item (Piece.Mem (Mem.Load (Mem.W32, Mem.Abs 0, Reg.r 1))) in
  let use = item (Piece.Alu (Alu.Mov (rr 1, Reg.r 2))) in
  let alu = item (Piece.Alu (Alu.Movi8 (5, Reg.r 3))) in
  let war = item (Piece.Mem (Mem.Load (Mem.W32, Mem.Abs 1, Reg.r 4))) in
  let reads_r4 = item (Piece.Alu (Alu.Mov (rr 4, Reg.r 5))) in
  Alcotest.(check (option int)) "load->use = 2" (Some 2) (Dag.latency load use);
  Alcotest.(check (option int)) "alu->use independent" None (Dag.latency alu use);
  Alcotest.(check (option int)) "war = 0" (Some 0) (Dag.latency reads_r4 war);
  let alu_raw = item (Piece.Alu (Alu.Binop (Alu.Add, rr 3, i4 1, Reg.r 6))) in
  Alcotest.(check (option int)) "alu raw = 1" (Some 1) (Dag.latency alu alu_raw);
  let st1 = item (Piece.Mem (Mem.Store (Mem.W32, Reg.r 1, Mem.Disp (Reg.r 2, 0)))) in
  let ld2 = item (Piece.Mem (Mem.Load (Mem.W32, Mem.Abs 3, Reg.r 5))) in
  Alcotest.(check (option int)) "aliasing mem = 1" (Some 1) (Dag.latency st1 ld2)

(* --- unit: naive no-op insertion ----------------------------------------- *)

let test_naive_inserts_noop () =
  let items =
    [ { Asm.piece = Piece.Mem (Mem.Load (Mem.W32, Mem.Abs 0, Reg.r 1)); note = Note.plain; fixed = false };
      { Asm.piece = Piece.Alu (Alu.Mov (rr 1, Reg.r 2)); note = Note.plain; fixed = false } ]
  in
  let words = Sched.naive items in
  check_int "noop inserted" 3 (List.length words);
  (match List.nth words 1 with
  | { Sblock.word = Word.Nop; _ } -> ()
  | _ -> Alcotest.fail "expected nop in slot 1");
  (* scheduling fills the slot with an independent instruction instead *)
  let items2 =
    items
    @ [ { Asm.piece = Piece.Alu (Alu.Movi8 (9, Reg.r 3)); note = Note.plain; fixed = false } ]
  in
  let scheduled = Sched.schedule ~pack:false items2 in
  check_int "no noop needed" 3 (List.length scheduled);
  check "no nops in schedule" true
    (List.for_all (fun w -> w.Sblock.word <> Word.Nop) scheduled)

let test_packing_merges () =
  let items =
    [ item (Piece.Alu (Alu.Movi8 (1, Reg.r 1)));
      item (Piece.Mem (Mem.Load (Mem.W32, Mem.Disp (Reg.r 6, 0), Reg.r 2))) ]
  in
  let packed = Sched.schedule ~pack:true items in
  check_int "packed into one word" 1 (List.length packed);
  match (List.hd packed).Sblock.word with
  | Word.AM _ -> ()
  | _ -> Alcotest.fail "expected AM word"

let test_fixed_not_packed () =
  let items =
    [ { Asm.piece = Piece.Alu (Alu.Movi8 (1, Reg.r 1)); note = Note.plain; fixed = true };
      { Asm.piece = Piece.Mem (Mem.Load (Mem.W32, Mem.Disp (Reg.r 6, 0), Reg.r 2)); note = Note.plain; fixed = false } ]
  in
  let packed = Sched.schedule ~pack:true items in
  check_int "fixed piece stays alone" 2 (List.length packed)

(* --- delay slot schemes --------------------------------------------------- *)

(* Scheme 1: the add before the jump can move into the delay slot. *)
let scheme1_prog =
  Asm.make ~entry:"main"
    ([ lbl "main"; movi8 3 0; add (rr 0) (i4 2) 1; b (Branch.Jump "out"); lbl "out" ]
    @ [ a (Alu.Mov (rr 1, Reg.r 2)) ]
    @ halt)

let test_scheme1 () =
  let _, stats = Pipeline.compile_with_stats ~level:Pipeline.Delay_filled scheme1_prog in
  match stats with
  | Some s -> check "scheme1 used" true (s.Delay.scheme1 >= 1)
  | None -> Alcotest.fail "expected delay stats"

(* Scheme 2: a backward unconditional loop jump duplicates the loop head. *)
let scheme2_prog =
  (* while true do r0++ until trap-exit via overflow of counter check *)
  Asm.make ~entry:"main"
    ([ lbl "main"; movi8 0 0; movi8 20 1; lbl "loop";
       add (rr 0) (i4 1) 0;
       b (Branch.Cbr (Cond.Ge, rr 0, rr 1, "done"));
       b (Branch.Jump "loop"); lbl "done" ]
    @ [ a (Alu.Mov (rr 0, Reg.scratch0)); trap Monitor.putint ]
    @ halt)

let test_scheme2 () =
  let p, stats = Pipeline.compile_with_stats ~level:Pipeline.Delay_filled scheme2_prog in
  (match stats with
  | Some s -> check "scheme2 used" true (s.Delay.scheme2 >= 1)
  | None -> Alcotest.fail "expected delay stats");
  let res = run p in
  Alcotest.(check string) "loop result" "20" res.Hosted.output

(* Scheme 3: conditional branch over a dead-on-taken-path computation. *)
let scheme3_prog =
  Asm.make ~entry:"main"
    ([ lbl "main"; movi8 5 0;
       b (Branch.Cbr (Cond.Eq, rr 0, i4 5, "skip"));
       (* fall-through work, r1 dead at "skip" because it is re-written *)
       add (rr 0) (i4 1) 1;
       add (rr 1) (i4 1) 1;
       lbl "skip"; movi8 9 1 ]
    @ [ a (Alu.Mov (rr 1, Reg.scratch0)); trap Monitor.putint ]
    @ halt)

let test_scheme3 () =
  let p, stats = Pipeline.compile_with_stats ~level:Pipeline.Delay_filled scheme3_prog in
  (match stats with
  | Some s -> check "scheme3 used" true (s.Delay.scheme3 >= 1)
  | None -> Alcotest.fail "expected delay stats");
  let res = run p in
  Alcotest.(check string) "result" "9" res.Hosted.output

(* --- integration: loops and calls at all levels --------------------------- *)

let sum_loop_prog =
  Asm.make ~entry:"main"
    ([ lbl "main"; movi8 0 0; movi8 1 1; movi8 10 2; lbl "loop";
       add (rr 0) (rr 1) 0;
       add (rr 1) (i4 1) 1;
       b (Branch.Cbr (Cond.Le, rr 1, rr 2, "loop"));
       a (Alu.Mov (rr 0, Reg.scratch0)); trap Monitor.putint ]
    @ halt)

let test_sum_loop_all_levels () =
  List.iter
    (fun (level, p) ->
      let res = run p in
      if res.Hosted.output <> "55" then
        Alcotest.failf "level %s: expected 55, got %s" (Pipeline.level_name level)
          res.Hosted.output)
    (compile_all sum_loop_prog)

let call_prog =
  Asm.make ~entry:"main"
    ([ lbl "main"; movi8 7 10;
       b (Branch.Jal ("double", Reg.link));
       a (Alu.Mov (Operand.reg Reg.result, Reg.scratch0));
       trap Monitor.putint ]
    @ halt
    @ [ lbl "double";
        a (Alu.Binop (Alu.Add, Operand.reg Reg.scratch0, Operand.reg Reg.scratch0, Reg.result));
        b (Branch.Jind Reg.link) ])

let test_call_all_levels () =
  List.iter
    (fun (level, p) ->
      let res = run p in
      if res.Hosted.output <> "14" then
        Alcotest.failf "level %s: expected 14, got %s" (Pipeline.level_name level)
          res.Hosted.output)
    (compile_all call_prog)

let test_static_counts_improve () =
  let counts =
    List.map (fun (_, p) -> Program.static_count p) (compile_all sum_loop_prog)
  in
  match counts with
  | [ naive; reorg; packed; delay ] ->
      check "reorg <= naive" true (reorg <= naive);
      check "packed <= reorg" true (packed <= reorg);
      check "delay <= packed" true (delay <= packed);
      check "delay < naive" true (delay < naive)
  | _ -> Alcotest.fail "level count"

(* --- assembler ------------------------------------------------------------ *)

let test_undefined_label () =
  let p = Asm.make ~entry:"main" [ lbl "main"; b (Branch.Jump "nowhere") ] in
  check "raises" true
    (try
       ignore (Pipeline.compile p);
       false
     with Assemble.Undefined_label "nowhere" -> true)

let test_cross_block_hazard_noop () =
  (* a fall-through block boundary with a load-use hazard across it *)
  let p =
    Asm.make ~entry:"main"
      ([ lbl "main"; ld (Mem.Abs 0) 1; lbl "next"; a (Alu.Mov (rr 1, Reg.r 2)) ]
      @ halt)
  in
  let img = Pipeline.compile ~level:Pipeline.Naive p in
  check "no residual hazards" true (Assemble.verify_hazard_free img = []);
  let res = Hosted.run_program img in
  check "clean run" true (res.Hosted.fault = None)

let test_duplicate_label () =
  let p =
    Asm.make ~entry:"main"
      ([ lbl "main"; movi8 1 0; lbl "twice"; movi8 2 1; lbl "twice" ] @ halt)
  in
  List.iter
    (fun level ->
      check "raises" true
        (try
           ignore (Pipeline.compile ~level p);
           false
         with Assemble.Duplicate_label "twice" -> true))
    Pipeline.all_levels

let test_trailing_labels () =
  let p = Asm.make ~entry:"main" ([ lbl "main"; movi8 1 0 ] @ halt @ [ lbl "end"; lbl "end2" ]) in
  List.iter
    (fun img ->
      let last = Array.length img.Program.code - 1 in
      check "final word is a no-op" true (img.Program.code.(last) = Word.Nop);
      check_int "end on it" last (Program.lookup img "end");
      check_int "end2 on it" last (Program.lookup img "end2");
      check "both in the symbol table" true
        (List.filter (fun (l, _) -> l = "end" || l = "end2") img.Program.symbols
         |> List.map snd = [ last; last ]))
    (Pipeline.compile_raw p :: List.map snd (compile_all p))

(* Synthetic labels inside a block: one per body offset, one at the end of
   the body and one past it; both of the last two enter just before the
   terminator.  In a block without a terminator they fall to the next
   block's first word, or to the final no-op after the last block. *)
let test_mid_labels () =
  let sw w = Sblock.of_word w in
  let word i = Word.A (Alu.Movi8 (i, Reg.r 1)) in
  let blk ?term labels mid body =
    { Sblock.labels; mid_labels = mid; body = List.map sw body; term;
      slots = (match term with None -> [] | Some _ -> [ Sblock.nop ]) }
  in
  let halt_blk =
    blk ~term:(Branch.Trap Monitor.exit_, Note.plain) [ "h" ] [] [ word 0 ]
  in
  let sblocks =
    [| blk ~term:(Branch.Jump "h", Note.plain) [ "main" ]
         [ (0, "m0"); (1, "m1"); (2, "at_end"); (7, "past_end") ]
         [ word 1; word 2 ];
       blk [ "open" ] [ (1, "open_end"); (4, "open_past") ] [ word 3 ];
       halt_blk;
       blk [ "tail" ] [ (0, "tail_past"); (1, "tail_far") ] [] |]
  in
  let img = Assemble.assemble (Asm.make ~entry:"main" []) sblocks in
  let at l = Program.lookup img l in
  check_int "m0" 0 (at "m0");
  check_int "m1" 1 (at "m1");
  check_int "at end: the terminator" 2 (at "at_end");
  check_int "past end: the terminator" 2 (at "past_end");
  check "terminator word" true (img.Program.code.(2) = Word.B (Branch.Jump (at "h")));
  check_int "open block" 4 (at "open");
  check_int "open end falls to the next block" 5 (at "open_end");
  check_int "open past falls too" 5 (at "open_past");
  check_int "h" 5 (at "h");
  check_int "image length" 9 (Array.length img.Program.code);
  check_int "empty last block" 8 (at "tail");
  check_int "its mid labels on the final no-op" 8 (at "tail_past");
  check_int "far past" 8 (at "tail_far");
  check "final no-op" true (img.Program.code.(8) = Word.Nop)

(* compile_raw assembles with [pad_hazards:false]: a load-use pair stays
   adjacent there, and the padded naive level separates it. *)
let test_raw_no_padding () =
  let p =
    Asm.make ~entry:"main"
      ([ lbl "main"; ld (Mem.Abs 0) 1; a (Alu.Mov (rr 1, Reg.r 2)) ] @ halt)
  in
  let raw = Pipeline.compile_raw p in
  let naive = Pipeline.compile ~level:Pipeline.Naive p in
  check_int "one residual hazard" 1 (List.length (Assemble.verify_hazard_free raw));
  check "padded is hazard-free" true (Assemble.verify_hazard_free naive = []);
  check_int "one pad word" (Array.length raw.Program.code + 1)
    (Array.length naive.Program.code);
  check "raw keeps program order" true
    (Array.sub raw.Program.code 0 2
    = [| Word.M (Mem.Load (Mem.W32, Mem.Abs 0, Reg.r 1));
         Word.A (Alu.Mov (rr 1, Reg.r 2)) |])

(* --- property: random straight-line programs are level-invariant ---------- *)

let gen_item : Asm.line QCheck2.Gen.t =
  let open QCheck2.Gen in
  let reg05 = map Reg.r (int_range 0 5) in
  let op05 = oneof [ map Operand.reg reg05; map Operand.imm4 (int_range 0 15) ] in
  let binop = oneofl Alu.[ Add; Sub; And; Or; Xor; Sll ] in
  oneof
    [ map (fun (op, x, y, d) -> a (Alu.Binop (op, x, y, d))) (quad binop op05 op05 reg05);
      map (fun (c, d) -> a (Alu.Movi8 (c, d))) (pair (int_range 0 255) reg05);
      map (fun (c, x, y, d) -> a (Alu.Setc (c, x, y, d)))
        (quad (oneofl Cond.[ Eq; Ne; Lt; Gtu ]) op05 op05 reg05);
      map (fun (x, w, d) -> a (Alu.Xbyte (x, w, d))) (triple op05 op05 reg05);
      map (fun (addr, d) -> ld (Mem.Abs addr) d) (pair (int_range 0 15) (int_range 0 5));
      map (fun (s, addr) -> st s (Mem.Abs addr)) (pair (int_range 0 5) (int_range 0 15));
      map (fun (d, off, dst) -> ld (Mem.Disp (Reg.r 6, off)) dst |> fun l -> ignore d; l)
        (triple unit (int_range 0 7) (int_range 0 5)) ]

let gen_straightline =
  let open QCheck2.Gen in
  let* n = int_range 1 25 in
  let* items = list_repeat n gen_item in
  return
    (Asm.make
       ~data:(List.init 16 (fun i -> (i, (i * 3) + 1)))
       ~data_words:16 ~entry:"main"
       ((lbl "main" :: movi8 4 6 :: items) @ halt))

let prop_levels_equivalent =
  QCheck2.Test.make ~name:"reorg: all levels semantically equivalent" ~count:300
    gen_straightline (fun prog ->
      let compiled = compile_all prog in
      let reference = machine_state (List.assoc Pipeline.Naive compiled) in
      List.for_all
        (fun (_, p) ->
          machine_state p = reference && Assemble.verify_hazard_free p = [])
        compiled)

let prop_interlock_agrees =
  QCheck2.Test.make ~name:"reorg: interlocked machine agrees on scheduled code"
    ~count:150 gen_straightline (fun prog ->
      let p = Pipeline.compile ~level:Pipeline.Delay_filled prog in
      let state cfg =
        let cpu = Cpu.create ~config:cfg () in
        Cpu.load_program cpu p;
        let res = Hosted.run cpu in
        assert res.Hosted.halted;
        ( List.map (fun r -> Cpu.get_reg cpu (Reg.r r)) [ 0; 1; 2; 3; 4; 5 ],
          List.init 16 (Cpu.read_data cpu) )
      in
      state Cpu.default_config = state Cpu.interlocked_config)

(* --- properties: the DAG and the schedule against their definitions ------ *)

(* Dag.build agrees with the pairwise rule on every pair i < j, and its
   priority with the critical-path recurrence computed from that rule. *)
let dag_agrees_pairwise items =
  let items = Array.of_list items in
  let n = Array.length items in
  let dag = Dag.build items in
  let pairs = ref [] in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      match Dag.latency items.(i) items.(j) with
      | Some l -> pairs := (i, j, l) :: !pairs
      | None -> ()
    done
  done;
  let priority = Array.make n 0 in
  List.iter
    (fun (i, j, l) -> priority.(i) <- max priority.(i) (priority.(j) + max l 1))
    (List.sort (fun (_, j, _) (_, j', _) -> compare j' j) !pairs);
  let edges = ref [] and npreds = Array.make n 0 in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      match Dag.edge dag i j with
      | -1 -> ()
      | l ->
          edges := (i, j, l) :: !edges;
          npreds.(j) <- npreds.(j) + 1
    done
  done;
  List.sort compare !edges = List.sort compare !pairs
  && dag.Dag.npreds = npreds
  && dag.Dag.priority = priority

(* The slot of every item in a schedule, matching each emitted piece to the
   first unplaced item carrying it; -1 for an item that never appears. *)
let slots_of items words =
  let slot = Array.make (Array.length items) (-1) in
  List.iteri
    (fun s (sw : Sblock.sword) ->
      List.iter
        (fun p ->
          let rec find i =
            if i >= Array.length items then Alcotest.fail "piece not in block"
            else if slot.(i) < 0 && items.(i).Asm.piece = p then slot.(i) <- s
            else find (i + 1)
          in
          find 0)
        (Word.pieces sw.Sblock.word))
    words;
  slot

(* every item is placed once, and every edge's latency is respected *)
let schedule_respects_edges ~pack items =
  let arr = Array.of_list items in
  let dag = Dag.build arr in
  let slot = slots_of arr (Sched.schedule ~pack items) in
  let n = Array.length arr in
  Array.for_all (fun s -> s >= 0) slot
  && List.for_all
       (fun j ->
         List.for_all
           (fun i -> Dag.edge dag i j < 0 || slot.(j) >= slot.(i) + Dag.edge dag i j)
           (List.init j Fun.id))
       (List.init n Fun.id)

let corpus_blocks =
  lazy
    (List.concat_map
       (fun (e : Mips_corpus.Corpus.entry) ->
         List.concat_map
           (fun config ->
             let asm = Mips_codegen.Compile.to_asm ~config e.source in
             List.map (fun (b : Block.t) -> b.Block.body) (Block.partition asm.Asm.lines))
           [ Mips_ir.Config.default; Mips_ir.Config.byte_machine ])
       Mips_corpus.Corpus.all)

let test_corpus_dags () =
  List.iter
    (fun items ->
      check "dag agrees with pairwise latency" true (dag_agrees_pairwise items);
      check "unpacked schedule respects edges" true
        (schedule_respects_edges ~pack:false items);
      check "packed schedule respects edges" true (schedule_respects_edges ~pack:true items))
    (Lazy.force corpus_blocks)

(* random blocks, with some items fixed in place *)
let gen_block =
  let open QCheck2.Gen in
  list_size (int_range 0 25)
    (map2
       (fun line fixed ->
         match line with
         | Asm.Ins i -> { i with Asm.fixed }
         | Asm.Label _ -> assert false)
       gen_item
       (map (fun k -> k = 0) (int_range 0 7)))

let prop_dag_pairwise =
  QCheck2.Test.make ~name:"dag: build agrees with pairwise latency" ~count:300
    gen_block dag_agrees_pairwise

let prop_schedule_edges =
  QCheck2.Test.make ~name:"schedule: every edge latency respected" ~count:300
    QCheck2.Gen.(pair bool gen_block)
    (fun (pack, items) -> schedule_respects_edges ~pack items)

(* --- delay labels: deterministic and safe on several Domains ------------- *)

let corpus_images () =
  List.concat_map
    (fun (e : Mips_corpus.Corpus.entry) ->
      List.map
        (fun config -> Mips_codegen.Compile.compile ~config e.source)
        [ Mips_ir.Config.default; Mips_ir.Config.byte_machine ])
    Mips_corpus.Corpus.all

let test_labels_deterministic () =
  check "two compiles give equal images, symbols included" true
    (corpus_images () = corpus_images ())

let test_labels_domain_safe () =
  let serial = corpus_images () in
  let workers = List.init 2 (fun _ -> Domain.spawn corpus_images) in
  List.iter
    (fun d -> check "concurrent compile equals serial" true (Domain.join d = serial))
    workers

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests
let tc n f = Alcotest.test_case n `Quick f

let suite =
  [ ( "reorg:blocks",
      [ tc "partition/flatten" test_partition; tc "dag latencies" test_dag_latencies;
        tc "corpus dags and schedules" test_corpus_dags ]
      @ qsuite [ prop_dag_pairwise; prop_schedule_edges ] );
    ( "reorg:schedule",
      [ tc "naive inserts noop" test_naive_inserts_noop;
        tc "packing merges" test_packing_merges;
        tc "fixed never packed" test_fixed_not_packed ] );
    ( "reorg:delay",
      [ tc "scheme1: move before branch" test_scheme1;
        tc "scheme2: loop duplication" test_scheme2;
        tc "scheme3: fall-through move" test_scheme3;
        tc "labels deterministic" test_labels_deterministic;
        tc "labels domain-safe" test_labels_domain_safe ] );
    ( "reorg:integration",
      [ tc "sum loop at all levels" test_sum_loop_all_levels;
        tc "call at all levels" test_call_all_levels;
        tc "static counts improve" test_static_counts_improve;
        tc "undefined label" test_undefined_label;
        tc "cross-block hazard" test_cross_block_hazard_noop;
        tc "duplicate label" test_duplicate_label;
        tc "trailing labels on a final no-op" test_trailing_labels;
        tc "mid labels at and past the body's end" test_mid_labels;
        tc "raw assembly pads nothing" test_raw_no_padding ] );
    ("reorg:properties", qsuite [ prop_levels_equivalent; prop_interlock_agrees ]) ]
