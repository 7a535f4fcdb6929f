(* Tests for the compiler: frontend, IR generation, register allocation,
   emission, and whole-corpus integration across machine variants,
   optimization levels, and boolean strategies. *)

open Mips_frontend
open Mips_ir
open Mips_codegen

open Testutil
let check_str = Alcotest.(check string)

(* --- lexer --------------------------------------------------------------- *)

let toks src = List.map fst (Lexer.tokenize src)

let test_lexer_basics () =
  check "keywords fold case" true
    (toks "BEGIN End" = [ Token.Begin; Token.End; Token.Eof ]);
  check "symbols" true
    (toks ":= <= <> .." = [ Token.Assign; Token.Le; Token.Ne; Token.Dotdot; Token.Eof ]);
  check "char vs string" true
    (toks "'x' 'xy'" = [ Token.CharLit 'x'; Token.StrLit "xy"; Token.Eof ]);
  check "quote escape" true (toks "'don''t'" = [ Token.StrLit "don't"; Token.Eof ]);
  check "comments" true
    (toks "a { skip } b (* also * skip *) c"
    = [ Token.Ident "a"; Token.Ident "b"; Token.Ident "c"; Token.Eof ])

let test_lexer_errors () =
  check "unterminated comment" true
    (try
       ignore (Lexer.tokenize "{ never closed");
       false
     with Lexer.Error _ -> true);
  check "bad char" true
    (try
       ignore (Lexer.tokenize "a ? b");
       false
     with Lexer.Error _ -> true)

(* A NUL byte is an ordinary character to the lexer, not an end of input. *)
let test_lexer_nul () =
  let err what expected src =
    Alcotest.(check (option (triple int int string)))
      what expected
      (match Lexer.tokenize src with
      | _ -> None
      | exception Lexer.Error (l, msg) -> Some (l.Loc.line, l.Loc.col, msg))
  in
  err "stray NUL" (Some (1, 3, "unexpected character '\\000'")) "a \000 b";
  err "trailing NUL" (Some (2, 2, "unexpected character '\\000'")) "x\ny\000";
  err "NUL in an open comment" (Some (1, 1, "unterminated comment")) "(* \000";
  err "NUL in an open string" (Some (1, 1, "unterminated string literal")) "'a\000";
  check "NUL in a comment" true (toks "{ \000 } x" = [ Token.Ident "x"; Token.Eof ]);
  check "NUL in literals" true
    (toks "'\000' 'a\000b'"
    = [ Token.CharLit '\000'; Token.StrLit "a\000b"; Token.Eof ])

(* --- parser -------------------------------------------------------------- *)

let test_parser_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3" in
  match e.Ast.e with
  | Ast.Ebin (Ast.Add, { Ast.e = Ast.Enum 1; _ }, { Ast.e = Ast.Ebin (Ast.Mul, _, _); _ })
    ->
      ()
  | _ -> Alcotest.fail "expected 1 + (2 * 3)"

let test_parser_relation_binds_loosest () =
  let e = Parser.parse_expr "a + 1 = b * 2" in
  match e.Ast.e with
  | Ast.Erel (Ast.Req, { Ast.e = Ast.Ebin (Ast.Add, _, _); _ }, { Ast.e = Ast.Ebin (Ast.Mul, _, _); _ })
    ->
      ()
  | _ -> Alcotest.fail "expected (a+1) = (b*2)"

let test_parser_program_shape () =
  let p =
    Parser.parse
      "program t; var x : integer; procedure q; begin x := 1 end; begin q end."
  in
  check_str "name" "t" p.Ast.pname;
  check_int "decls" 2 (List.length p.Ast.decls);
  check_int "main stmts" 1 (List.length p.Ast.main)

let test_parser_error () =
  check "missing then" true
    (try
       ignore (Parser.parse "program t; begin if x begin end end.");
       false
     with Parser.Error _ -> true)

(* --- semantic analysis ---------------------------------------------------- *)

let expect_semantic_error src =
  try
    ignore (Semant.check_string src);
    false
  with Semant.Error _ -> true

let test_semant_errors () =
  check "type mismatch" true
    (expect_semantic_error "program t; var x : integer; begin x := 'a' end.");
  check "unknown variable" true
    (expect_semantic_error "program t; begin y := 1 end.");
  check "array by value rejected" true
    (expect_semantic_error
       "program t; type v = array [0..3] of integer; var a : v; \
        procedure q(x : v); begin end; begin q(a) end.");
  check "procedure as function" true
    (expect_semantic_error
       "program t; var x : integer; procedure q; begin end; begin x := q end.");
  check "arity" true
    (expect_semantic_error
       "program t; function f(a : integer) : integer; begin f := a end; \
        var x : integer; begin x := f(1, 2) end.");
  check "bad index type" true
    (expect_semantic_error
       "program t; var a : array [0..3] of integer; b : boolean; begin a[b] := 1 end.");
  check "nested procedures rejected" true
    (expect_semantic_error
       "program t; procedure outer; procedure inner; begin end; begin end; begin end.")

let test_semant_accepts_forward_call () =
  let p =
    Semant.check_string
      "program t; var x : integer; \
       function g(n : integer) : integer; begin g := f(n) end; \
       function f(n : integer) : integer; begin f := n + 1 end; \
       begin x := g(1) end."
  in
  check_int "two functions" 2 (List.length p.Tast.funcs)

let test_semant_const_folding () =
  let p =
    Semant.check_string
      "program t; const n = 4; m = n * 2 + 1; var a : array [1..m] of integer; \
       begin a[m] := n end."
  in
  let v = List.hd p.Tast.globals in
  match (Tast.var p v).Tast.ty with
  | Types.Array { lo = 1; hi = 9; _ } -> ()
  | _ -> Alcotest.fail "const-folded array bound"

(* --- trap-code agreement --------------------------------------------------- *)

let test_trap_codes_agree () =
  List.iter
    (fun (name, code) ->
      let machine_code =
        match name with
        | "exit" -> Mips_machine.Monitor.exit_
        | "putchar" -> Mips_machine.Monitor.putchar
        | "putint" -> Mips_machine.Monitor.putint
        | "getchar" -> Mips_machine.Monitor.getchar
        | "putstr" -> Mips_machine.Monitor.putstr
        | other -> Alcotest.failf "unknown trap name %s" other
      in
      check_int name machine_code code)
    Irgen.trap_codes

(* --- layout ---------------------------------------------------------------- *)

let test_layout_word_machine () =
  let l = Layout.create Config.default in
  check_int "int" 1 (Layout.size_of l Types.Int);
  check_int "char takes a word" 1 (Layout.size_of l Types.Char);
  let unpacked = { Types.lo = 0; hi = 9; elem = Types.Char; packed = false } in
  let packed = { unpacked with Types.packed = true } in
  check_int "unpacked char array" 10 (Layout.size_of l (Types.Array unpacked));
  check_int "packed char array: 4 per word" 3 (Layout.size_of l (Types.Array packed));
  check "packed is byte" true (Layout.is_packed_byte l packed);
  check "unpacked is not" false (Layout.is_packed_byte l unpacked)

let test_layout_byte_machine () =
  let l = Layout.create Config.byte_machine in
  check_int "int is 4 bytes" 4 (Layout.size_of l Types.Int);
  check_int "char is 1 byte" 1 (Layout.size_of l Types.Char);
  let arr = { Types.lo = 0; hi = 9; elem = Types.Char; packed = false } in
  check_int "char array is 10 bytes" 10 (Layout.size_of l (Types.Array arr));
  check "all char arrays byte-packed" true (Layout.is_packed_byte l arr);
  let rcd = Types.Record [ ("c", Types.Char); ("n", Types.Int) ] in
  check_int "record with padding" 8 (Layout.size_of l rcd);
  check_int "aligned field offset" 4
    (Layout.field_offset l [ ("c", Types.Char); ("n", Types.Int) ] 1)

(* --- register allocation ---------------------------------------------------- *)

let funcs_of src =
  let tast = Semant.check_string src in
  (Irgen.lower Config.default tast).Irgen.funcs

let test_regalloc_valid_on_corpus () =
  List.iter
    (fun (e : Mips_corpus.Corpus.entry) ->
      let tast = Semant.check_string e.Mips_corpus.Corpus.source in
      List.iter
        (fun f ->
          let alloc = Regalloc.allocate f in
          if not (Regalloc.check alloc) then
            Alcotest.failf "invalid coloring in %s of %s" f.Ir.name
              e.Mips_corpus.Corpus.name)
        (Irgen.lower Config.default tast).Irgen.funcs)
    Mips_corpus.Corpus.all

let test_regalloc_spills_under_pressure () =
  (* an expression wide enough to exceed ten registers *)
  let src =
    "program t; var a,b,c,d,e,f,g,h,i,j,k,l,m : integer; x : integer; begin \
     a:=1; b:=2; c:=3; d:=4; e:=5; f:=6; g:=7; h:=8; i:=9; j:=10; k:=11; l:=12; m:=13; \
     x := (a*b + c*d) * (e*f + g*h) * (i*j + k*l) * m + a + b + c + d + e + f + g + h + i + j + k + l; \
     writeln(x) end."
  in
  List.iter
    (fun f ->
      let alloc = Regalloc.allocate f in
      check "coloring valid" true (Regalloc.check alloc))
    (funcs_of src);
  let res = Compile.run src in
  (* (1*2+3*4)*(5*6+7*8)*(9*10+11*12)*13 + 78 = 14*86*222*13 + 78 *)
  check_str "spilled program still correct" "3474822\n" res.Mips_machine.Hosted.output

(* --- register allocation against the oracle (test/regalloc_oracle.ml) ---- *)

let body_vregs body =
  List.sort_uniq compare (List.concat_map (fun i -> Ir.uses i @ Ir.defs i) body)

let same_allocation (f : Ir.func) =
  let a = Regalloc.allocate f and o = Regalloc_oracle.allocate f in
  a.Regalloc.body = o.Regalloc_oracle.body
  && a.spill_words = o.spill_words
  && a.spill_words = o.spilled_vregs
  && List.for_all
       (fun v -> Mips_isa.Reg.equal (a.color v) (o.color v))
       (body_vregs a.body)

(* on the input body and on the allocated one, spill code included *)
let same_liveness (f : Ir.func) =
  Regalloc.live_out f.body = Regalloc_oracle.live_out f.body
  &&
  let body = (Regalloc.allocate f).body in
  Regalloc.live_out body = Regalloc_oracle.live_out body

let corpus_funcs () =
  List.concat_map
    (fun (e : Mips_corpus.Corpus.entry) ->
      let tast = Semant.check_string e.source in
      List.concat_map
        (fun cfg -> (Irgen.lower cfg tast).Irgen.funcs)
        [ Config.default; Config.byte_machine ])
    Mips_corpus.Corpus.all

let test_regalloc_oracle_corpus () =
  List.iter
    (fun (f : Ir.func) ->
      if not (same_liveness f) then
        Alcotest.failf "%s: live-out sets differ from the oracle's" f.name;
      if not (same_allocation f) then
        Alcotest.failf "%s: allocation differs from the oracle" f.name)
    (corpus_funcs ())

let print_func (f : Ir.func) =
  String.concat "\n" (List.map (Format.asprintf "%a" Ir.pp_instr) f.body)

let prop_liveness_oracle =
  QCheck2.Test.make ~name:"regalloc: live-out sets equal the oracle's" ~count:300
    ~print:print_func Gen.ir_func same_liveness

let prop_regalloc_oracle =
  QCheck2.Test.make ~name:"regalloc: allocation equals the oracle's" ~count:300
    ~print:print_func Gen.ir_func same_allocation

(* The generator reaches what the oracle property needs: more than ten
   vregs live at once, values live across calls, and respill rounds. *)
let test_ir_gen_reach () =
  let fs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:200 Gen.ir_func
  in
  let wide (f : Ir.func) =
    Array.exists (fun l -> List.length l > 10) (Regalloc_oracle.live_out f.body)
  in
  let crosses (f : Ir.func) =
    let live = Regalloc_oracle.live_out f.body in
    List.exists Fun.id
      (List.mapi
         (fun i ins -> Ir.is_call ins && List.exists (fun v -> not (List.mem v (Ir.defs ins))) live.(i))
         f.body)
  in
  let respills (f : Ir.func) =
    let rounds = ref 0 in
    ignore (Regalloc_oracle.allocate ~rounds f);
    !rounds > 0
  in
  check "more than ten live" true (List.exists wide fs);
  check "values live across calls" true (List.exists crosses fs);
  check "respill rounds" true (List.exists respills fs);
  check "respill after call spills" true
    (List.exists (fun f -> crosses f && respills f) fs)

(* --- allocation tripwire ------------------------------------------------- *)

(* Minor words are a count, not a timing: the same on every run of one
   compiler, so a bound holds on any host.  One pass shaped like the
   benchmark's compile_corpus (every corpus program, word and byte, front
   end through all four postpass levels), and [Regalloc.allocate] over
   every corpus function.  Before the allocator moved to bit sets, the
   assembler to pre-sized arrays and the DAG to a latency matrix, OCaml
   5.1.1 counted 6,954,037 and 2,212,346 words here, and 3,753,981 and
   589,744 after it.  The lexer then stopped boxing each character it
   peeks: a compile pass went from 3,753,877 to 3,595,789 words.  The
   bounds are the latest counts plus 10%. *)
let test_minor_words () =
  let configs = [ Config.default; Config.byte_machine ] in
  let pass () =
    List.iter
      (fun (e : Mips_corpus.Corpus.entry) ->
        List.iter
          (fun config ->
            let asm =
              Emit.emit_program config (Irgen.lower config (Semant.check_string e.source))
            in
            List.iter
              (fun level -> ignore (Mips_reorg.Pipeline.compile ~level asm))
              Mips_reorg.Pipeline.all_levels)
          configs)
      Mips_corpus.Corpus.all
  in
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let funcs = corpus_funcs () in
  let pass_words = words pass in
  let regalloc_words = words (fun () -> List.iter (fun f -> ignore (Regalloc.allocate f)) funcs) in
  let bound name limit w =
    if w > limit then Alcotest.failf "%s allocates %.0f minor words, bound %.0f" name w limit
  in
  bound "a compile pass" 3_955_368. pass_words;
  bound "regalloc over the corpus" 648_718. regalloc_words

let test_call_crossing_values_survive () =
  let src =
    "program t; var r : integer; \
     function id(x : integer) : integer; begin id := x end; \
     function sum3(a, b, c : integer) : integer; \
     var t1, t2, t3 : integer; \
     begin t1 := id(a); t2 := id(b); t3 := id(c); sum3 := t1 + t2 + t3 end; \
     begin r := sum3(100, 20, 3); writeln(r) end."
  in
  let res = Compile.run src in
  check_str "values live across calls" "123\n" res.Mips_machine.Hosted.output

(* --- whole-corpus integration ----------------------------------------------- *)

let heavy name = String.length name >= 6 && String.sub name 0 6 = "puzzle"

let run_config (e : Mips_corpus.Corpus.entry) config level =
  let res =
    Compile.run ~config ~level ~fuel:120_000_000 ~input:e.Mips_corpus.Corpus.input
      e.Mips_corpus.Corpus.source
  in
  if not res.Mips_machine.Hosted.halted then
    Alcotest.failf "%s did not halt" e.Mips_corpus.Corpus.name;
  (match res.Mips_machine.Hosted.fault with
  | Some (c, d) ->
      Alcotest.failf "%s faulted: %s/%d" e.Mips_corpus.Corpus.name
        (Mips_machine.Cause.show c) d
  | None -> ());
  res.Mips_machine.Hosted.output

let test_corpus_level_invariance () =
  List.iter
    (fun (e : Mips_corpus.Corpus.entry) ->
      if not (heavy e.Mips_corpus.Corpus.name) then begin
        let reference = run_config e Config.default Mips_reorg.Pipeline.Naive in
        check "nonempty output" true (String.length reference > 0);
        List.iter
          (fun level ->
            let out = run_config e Config.default level in
            if out <> reference then
              Alcotest.failf "%s diverges at %s" e.Mips_corpus.Corpus.name
                (Mips_reorg.Pipeline.level_name level))
          Mips_reorg.Pipeline.all_levels
      end)
    Mips_corpus.Corpus.all

let test_corpus_machine_invariance () =
  List.iter
    (fun (e : Mips_corpus.Corpus.entry) ->
      if not (heavy e.Mips_corpus.Corpus.name) then begin
        let word = run_config e Config.default Mips_reorg.Pipeline.Delay_filled in
        let byte = run_config e Config.byte_machine Mips_reorg.Pipeline.Delay_filled in
        if word <> byte then
          Alcotest.failf "%s: word and byte machines disagree"
            e.Mips_corpus.Corpus.name
      end)
    Mips_corpus.Corpus.all

let test_corpus_strategy_invariance () =
  List.iter
    (fun (e : Mips_corpus.Corpus.entry) ->
      if not (heavy e.Mips_corpus.Corpus.name) then begin
        let setc = run_config e Config.default Mips_reorg.Pipeline.Delay_filled in
        let eo =
          run_config e
            { Config.default with Config.bool_strategy = Config.Early_out }
            Mips_reorg.Pipeline.Delay_filled
        in
        if setc <> eo then
          Alcotest.failf "%s: boolean strategies disagree" e.Mips_corpus.Corpus.name
      end)
    Mips_corpus.Corpus.all

let test_corpus_hazard_free () =
  List.iter
    (fun (e : Mips_corpus.Corpus.entry) ->
      List.iter
        (fun level ->
          let p = Compile.compile ~level e.Mips_corpus.Corpus.source in
          if Mips_reorg.Assemble.verify_hazard_free p <> [] then
            Alcotest.failf "%s has hazards at %s" e.Mips_corpus.Corpus.name
              (Mips_reorg.Pipeline.level_name level))
        Mips_reorg.Pipeline.all_levels)
    Mips_corpus.Corpus.all

let test_known_outputs () =
  let cases =
    [ ("fib", "0 1 1 2 3 5 8 13 21 34 55 89 144 233 377 610 \n");
      ("sieve", "primes below 1000: 168\n");
      ("hanoi", "moves=4095\n");
      ("queens", "solutions=92\n");
      ("ackermann", "ack(2,6)=15\n");
      ("wordcount", "1155 240 45\n") ]
  in
  List.iter
    (fun (name, expected) ->
      let e = Mips_corpus.Corpus.find name in
      let out = run_config e Config.default Mips_reorg.Pipeline.Delay_filled in
      check_str name expected out)
    cases

let test_puzzles () =
  (* the heavy Table 11 pair, once each: the exhaustive search ends in
     failure (see the corpus comment) with identical behaviour in both
     variants *)
  List.iter
    (fun name ->
      let e = Mips_corpus.Corpus.find name in
      let out = run_config e Config.default Mips_reorg.Pipeline.Delay_filled in
      check_str name "failure\n" out)
    [ "puzzle0"; "puzzle1" ]

let test_static_improvement_on_corpus () =
  List.iter
    (fun (e : Mips_corpus.Corpus.entry) ->
      let count level =
        Mips_machine.Program.static_count (Compile.compile ~level e.Mips_corpus.Corpus.source)
      in
      let naive = count Mips_reorg.Pipeline.Naive in
      let best = count Mips_reorg.Pipeline.Delay_filled in
      if best >= naive then
        Alcotest.failf "%s: no static improvement (%d -> %d)"
          e.Mips_corpus.Corpus.name naive best)
    Mips_corpus.Corpus.all

let tc n f = Alcotest.test_case n `Quick f
let tc_slow n f = Alcotest.test_case n `Slow f

let suite =
  [ ( "compiler:lexer",
      [ tc "basics" test_lexer_basics; tc "errors" test_lexer_errors;
        tc "NUL bytes" test_lexer_nul ] );
    ( "compiler:parser",
      [ tc "precedence" test_parser_precedence;
        tc "relations" test_parser_relation_binds_loosest;
        tc "program shape" test_parser_program_shape;
        tc "errors" test_parser_error ] );
    ( "compiler:semant",
      [ tc "rejections" test_semant_errors;
        tc "forward calls" test_semant_accepts_forward_call;
        tc "const folding" test_semant_const_folding;
        tc "trap codes agree" test_trap_codes_agree ] );
    ( "compiler:layout",
      [ tc "word machine" test_layout_word_machine;
        tc "byte machine" test_layout_byte_machine ] );
    ( "compiler:regalloc",
      [ tc "corpus colorings valid" test_regalloc_valid_on_corpus;
        tc "spills under pressure" test_regalloc_spills_under_pressure;
        tc "values survive calls" test_call_crossing_values_survive;
        tc "corpus liveness and allocations equal the oracle"
          test_regalloc_oracle_corpus;
        tc "ir generator reaches spills and calls" test_ir_gen_reach;
        tc "minor words of a compile pass and of regalloc" test_minor_words ]
      @ qsuite [ prop_liveness_oracle; prop_regalloc_oracle ] );
    ( "compiler:integration",
      [ tc "known outputs" test_known_outputs;
        tc "levels agree" test_corpus_level_invariance;
        tc "machines agree" test_corpus_machine_invariance;
        tc "strategies agree" test_corpus_strategy_invariance;
        tc "hazard free" test_corpus_hazard_free;
        tc "static counts improve" test_static_improvement_on_corpus;
        tc_slow "puzzle pair" test_puzzles ] ) ]
