(* Word addressing vs byte addressing (the paper's Section 4.1).

   The same text-handling program is compiled for the word-addressed MIPS
   (characters packed four to a word, reached with base-shifted addressing
   plus insert/extract byte) and for the byte-addressed comparison machine
   (native byte loads and stores, but a 15 % operand-fetch overhead on the
   critical path).

     dune exec examples/byte_vs_word.exe *)

let () =
  let entry = Mips_corpus.Corpus.find "strops" in
  let run name config =
    let res, cpu =
      Mips_codegen.Compile.run_with_machine ~config
        ~input:entry.Mips_corpus.Corpus.input entry.Mips_corpus.Corpus.source
    in
    assert res.Mips_machine.Hosted.halted;
    let s = Mips_machine.Cpu.stats cpu in
    Format.printf
      "  %-14s %8d instruction words, %10.1f weighted cycles,@.  %14s %6d byte refs, %6d word refs, %5.1f%% free memory cycles@."
      name s.Mips_machine.Stats.cycles (Mips_machine.Stats.weighted_cycles s) ""
      (s.Mips_machine.Stats.byte_refs.Mips_machine.Stats.loads
      + s.Mips_machine.Stats.byte_refs.Mips_machine.Stats.stores
      + s.Mips_machine.Stats.byte_char_refs.Mips_machine.Stats.loads
      + s.Mips_machine.Stats.byte_char_refs.Mips_machine.Stats.stores)
      (s.Mips_machine.Stats.word_refs.Mips_machine.Stats.loads
      + s.Mips_machine.Stats.word_refs.Mips_machine.Stats.stores
      + s.Mips_machine.Stats.word_char_refs.Mips_machine.Stats.loads
      + s.Mips_machine.Stats.word_char_refs.Mips_machine.Stats.stores)
      (100. *. Mips_machine.Stats.free_cycle_fraction s)
  in
  Format.printf "strops (packed-string workload) on the two memory systems:@.";
  run "word machine" Mips_ir.Config.default;
  run "byte machine" Mips_ir.Config.byte_machine;
  Format.printf
    "@.The word machine executes more instructions for byte work (insert/@.\
     extract sequences) but each cycle is cheaper; the byte machine's@.\
     operand fetches all pay the decoder overhead.  Tables 9 and 10 weigh@.\
     this tradeoff; run `dune exec bin/mipsc.exe -- report`.@.";
  Mips_analysis.Report.table9 Format.std_formatter
