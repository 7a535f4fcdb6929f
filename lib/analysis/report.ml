let line ppf fmt = Format.fprintf ppf (fmt ^^ "@,")
let header ppf title = Format.fprintf ppf "@,=== %s ===@," title
let vbox ppf f =
  Format.fprintf ppf "@[<v>";
  f ();
  Format.fprintf ppf "@]@."

(* --- parallel warm-up ------------------------------------------------------ *)

(* The kernel measurement compiles its workload with user stacks below the
   kernel's reserved region; one definition, shared by the text and JSON
   printers, keyed into the artifact cache like every other config. *)
let os_config =
  { Mips_ir.Config.default with
    Mips_ir.Config.stack_top = Mips_os.Kernel.user_stack_top }

let os_workload = [ "fib"; "sieve"; "strops" ]

(* Every expensive artifact the tables below will ask for, as one flat bag of
   jobs for the worker pool.  The tables then run serially on the calling
   domain against a warm cache, so the report is byte-for-byte identical
   whatever the pool size: workers only decide {e when} an artifact is
   built, never {e what} it contains.  Simulations go first — they dwarf the
   compile-only jobs, and the pool's work stealing fills the tail with the
   cheap ones. *)
let prepare_jobs ?(include_heavy = false) () =
  let sim_jobs cname config =
    List.filter_map
      (fun (e : Mips_corpus.Corpus.entry) ->
        if Refpatterns.heavy e && not include_heavy then None
        else
          Some
            ( Printf.sprintf "sim:%s:%s" cname e.Mips_corpus.Corpus.name,
              fun () ->
                (* compile failures re-surface as per-program table rows *)
                try ignore (Mips_artifact.entry_sim ~config e) with _ -> () ))
      Mips_corpus.Corpus.all
  in
  let level_jobs =
    List.concat_map
      (fun (e : Mips_corpus.Corpus.entry) ->
        List.map
          (fun level ->
            ( Printf.sprintf "level:%d:%s" (Mips_reorg.Pipeline.rank level)
                e.Mips_corpus.Corpus.name,
              fun () ->
                ignore
                  (Mips_artifact.compiled ~level e.Mips_corpus.Corpus.source) ))
          Mips_reorg.Pipeline.all_levels)
      Mips_corpus.Corpus.table11
  in
  let os_jobs =
    List.map
      (fun name ->
        ( "os:" ^ name,
          fun () ->
            let e = Mips_corpus.Corpus.find name in
            ignore
              (Mips_artifact.compiled ~config:os_config
                 e.Mips_corpus.Corpus.source) ))
      os_workload
  in
  let asm_jobs =
    List.map
      (fun (e : Mips_corpus.Corpus.entry) ->
        ( "asm:" ^ e.Mips_corpus.Corpus.name,
          fun () -> ignore (Mips_artifact.asm e.Mips_corpus.Corpus.source) ))
      Mips_corpus.Corpus.reference
  in
  sim_jobs "default" Mips_ir.Config.default
  @ sim_jobs "byte" Mips_ir.Config.byte_machine
  @ level_jobs @ os_jobs @ asm_jobs

let prepare ?jobs ?include_heavy () =
  ignore
    (Mips_par.map ?jobs ~label:fst
       (fun (_, job) -> job ())
       (prepare_jobs ?include_heavy ()))

(* The resilient warm-up: the same bag of jobs as one supervised map.  A
   poisoned job (injected by tests and the CI smoke run) is retried,
   quarantined and attributed in its outcome; the cache still ends up warm
   for every healthy artifact, so the tables render with at worst per-row
   failures instead of the report aborting.  The quarantines land in
   [breaker]; being consulted only when a map starts, it cannot change how
   this one runs. *)
let prepare_supervised ?policy ?breaker ?metrics ?jobs ?include_heavy
    ?(inject_poison = []) ?obs ?tracer () =
  let poison =
    List.map
      (fun lbl ->
        (lbl, fun () -> failwith (Printf.sprintf "injected poison job %s" lbl)))
      inject_poison
  in
  Mips_resilience.Supervise.supervised_map ?policy ?breaker ?metrics ?jobs
    ?obs ?tracer
    ~label:fst
    (fun (_, job) -> job ())
    (poison @ prepare_jobs ?include_heavy ())

(* --- Table 1 ----------------------------------------------------------- *)

let table1 ppf =
  vbox ppf (fun () ->
      header ppf "Table 1: Constant distribution in compiled programs";
      let d = Constants.of_corpus () in
      line ppf "%-12s %10s %10s" "magnitude" "count" "percent";
      List.iter
        (fun (label, n, p) -> line ppf "%-12s %10d %9.1f%%" label n p)
        (Constants.rows d);
      line ppf "total constants: %d" d.Constants.total;
      line ppf "4-bit inline immediate covers  %5.1f%%  (paper: ~70%%)"
        (100. *. Constants.coverage_imm4 d);
      line ppf "8-bit move immediate covers    %5.1f%%  (paper: ~95%%)"
        (100. *. Constants.coverage_imm8 d))

(* --- Table 2 ----------------------------------------------------------- *)

let table2 ppf =
  vbox ppf (fun () ->
      header ppf "Table 2: Condition code operations (taxonomy)";
      line ppf "%-10s %-30s %-20s" "machine" "condition code" "access";
      List.iter
        (fun m ->
          let name, cc, access = Mips_cc.Taxonomy.row m in
          line ppf "%-10s %-30s %-20s" name cc access)
        Mips_cc.Taxonomy.machines)

(* --- Table 3 ----------------------------------------------------------- *)

let table3 ppf =
  vbox ppf (fun () ->
      header ppf "Table 3: Use of condition codes (static, over the corpus)";
      let s = Mips_cc.Ccstats.of_corpus Mips_cc.Cc.vax_style in
      let pct n =
        100. *. float_of_int n /. float_of_int (max 1 s.Mips_cc.Ccstats.compares)
      in
      line ppf "compares without condition codes        %6d"
        s.Mips_cc.Ccstats.compares;
      line ppf "compares saved, CC set by operators     %6d  (%.1f%%; paper: 1.1%%)"
        s.Mips_cc.Ccstats.saved_by_ops
        (pct s.Mips_cc.Ccstats.saved_by_ops);
      line ppf "compares saved, CC set by ops and moves %6d"
        s.Mips_cc.Ccstats.saved_by_ops_and_moves;
      line ppf "moves used only to set condition code   %6d"
        s.Mips_cc.Ccstats.moves_only_for_cc;
      line ppf "total compares genuinely saved          %6d  (%.1f%%; paper: 2.1%%)"
        s.Mips_cc.Ccstats.genuinely_saved
        (pct s.Mips_cc.Ccstats.genuinely_saved))

(* --- Table 4 ----------------------------------------------------------- *)

let table4 ppf =
  vbox ppf (fun () ->
      header ppf "Table 4: Boolean expressions (corpus shape)";
      let b = Bool_stats.of_corpus () in
      line ppf "boolean expressions                     %6d" b.Bool_stats.expressions;
      line ppf "average operators/boolean expression    %6.2f  (paper: 1.66)"
        (Bool_stats.avg_operators b);
      line ppf "ending in jumps                         %5.1f%%  (paper: 80.9%%)"
        (100. *. Bool_stats.jump_fraction b);
      line ppf "ending in stores                        %5.1f%%  (paper: 19.1%%)"
        (100. *. Bool_stats.store_fraction b);
      line ppf "complex (more than one operator)        %6d" b.Bool_stats.complex)

(* --- Tables 5 and 6 ------------------------------------------------------ *)

let table5 ppf =
  vbox ppf (fun () ->
      header ppf "Table 5: Compare/Register/Branch instructions per boolean operator";
      line ppf "%-44s %-10s %-10s" "support" "static" "dynamic";
      List.iter
        (fun (s, p) ->
          let f (c : Snippets.classes) =
            Printf.sprintf "%d/%d/%d" c.Snippets.compares c.Snippets.regs
              c.Snippets.branches
          in
          line ppf "%-44s %-10s %-10s" (Bool_cost.support_name s)
            (f p.Bool_cost.static_classes)
            (f p.Bool_cost.dynamic_classes))
        (Bool_cost.table5 ()))

let table6 ppf =
  vbox ppf (fun () ->
      header ppf "Table 6: Cost of evaluating boolean expressions (reg=1 cmp=2 br=4)";
      let stats = Bool_stats.of_corpus () in
      let rows = Bool_cost.table6 ~stats () in
      line ppf "%-44s %8s %8s %8s" "support" "store" "jump" "total";
      List.iter
        (fun (r : Bool_cost.cost_row) ->
          line ppf "%-44s %8.1f %8.1f %8.1f"
            (Bool_cost.support_name r.Bool_cost.support)
            r.Bool_cost.store_cost r.Bool_cost.jump_cost r.Bool_cost.total_cost)
        rows;
      line ppf "improvement, conditional set over CC+branch:  %5.1f%%  (paper: 33.0%%)"
        (Bool_cost.improvement rows Bool_cost.Cc_condset Bool_cost.Cc_branch_full);
      line ppf "improvement, set conditionally over CC+branch: %5.1f%% (paper: 53.5%%)"
        (Bool_cost.improvement rows Bool_cost.Mips_setcond Bool_cost.Cc_branch_full);
      line ppf "improvement, set conditionally over early-out: %5.1f%% (paper: 36.5%%)"
        (Bool_cost.improvement rows Bool_cost.Mips_setcond Bool_cost.Cc_branch_early))

(* --- Tables 7 and 8 ------------------------------------------------------ *)

let pattern_table title paper_lines ppf (p : Refpatterns.pattern) =
  header ppf title;
  let pct = Refpatterns.pct p in
  line ppf "all data references: %.1f%% loads, %.1f%% stores  (paper: 71.2 / 28.7)"
    (pct p.Refpatterns.loads) (pct p.Refpatterns.stores);
  line ppf "  8-bit loads   %5.1f%%    32-bit loads   %5.1f%%"
    (pct p.Refpatterns.byte_loads) (pct p.Refpatterns.word_loads);
  line ppf "  8-bit stores  %5.1f%%    32-bit stores  %5.1f%%"
    (pct p.Refpatterns.byte_stores) (pct p.Refpatterns.word_stores);
  let creftotal = p.Refpatterns.char_loads + p.Refpatterns.char_stores in
  if creftotal > 0 then begin
    let cpct n = 100. *. float_of_int n /. float_of_int creftotal in
    line ppf "character references: %.1f%% loads, %.1f%% stores"
      (cpct p.Refpatterns.char_loads) (cpct p.Refpatterns.char_stores);
    line ppf "  8-bit char loads  %5.1f%%   32-bit char loads  %5.1f%% (of all refs)"
      (pct p.Refpatterns.char_byte_loads)
      (pct (p.Refpatterns.char_loads - p.Refpatterns.char_byte_loads));
    line ppf "  8-bit char stores %5.1f%%   32-bit char stores %5.1f%%"
      (pct p.Refpatterns.char_byte_stores)
      (pct (p.Refpatterns.char_stores - p.Refpatterns.char_byte_stores))
  end;
  line ppf "%s" paper_lines

let pattern_failures ppf failures =
  List.iter
    (fun (f : Refpatterns.failure) ->
      line ppf "!! %s excluded from the aggregate: %s" f.Refpatterns.program
        f.Refpatterns.reason)
    failures

let table7 ?include_heavy ppf =
  vbox ppf (fun () ->
      let p, failures = Refpatterns.word_allocated ?include_heavy () in
      pattern_table "Table 7: Data reference patterns, word-allocated programs"
        "(paper: 8-bit loads 2.6%, 32-bit loads 68.6%, 8-bit stores 2.6%, 32-bit stores 26.2%)"
        ppf p;
      pattern_failures ppf failures)

let table8 ?include_heavy ppf =
  vbox ppf (fun () ->
      let p, failures = Refpatterns.byte_allocated ?include_heavy () in
      pattern_table "Table 8: Data reference patterns, byte-allocated programs"
        "(paper: 8-bit loads 6.6%, 32-bit loads 64.6%, 8-bit stores 5.9%, 32-bit stores 22.9%)"
        ppf p;
      pattern_failures ppf failures)

(* --- Tables 9 and 10 ------------------------------------------------------ *)

let table9 ppf =
  vbox ppf (fun () ->
      header ppf "Table 9: Cost of byte operations (cycles; mem=4, alu=2)";
      line ppf "%-18s %12s %12s %12s" "operation" "byte machine" "byte +15%"
        "MIPS (word)";
      List.iter
        (fun (op, (c : Byte_cost.op_cost)) ->
          line ppf "%-18s %12.1f %12.1f %12.1f" (Byte_cost.op_name op)
            c.Byte_cost.byte_machine c.Byte_cost.byte_machine_overhead
            c.Byte_cost.word_machine)
        (Byte_cost.table9 ()))

let table10 ?include_heavy ppf =
  vbox ppf (fun () ->
      header ppf "Table 10: Cost per average data reference, word vs byte addressing";
      let wp, _ = Refpatterns.word_allocated ?include_heavy () in
      let bp, _ = Refpatterns.byte_allocated ?include_heavy () in
      let t = Byte_cost.table10 ~word_pattern:wp ~byte_pattern:bp in
      let row name (m : Byte_cost.machine_cost) =
        line ppf "%-34s %6.3f + %6.3f + %6.3f + %6.3f = %6.3f" name
          m.Byte_cost.m_byte_loads m.Byte_cost.m_byte_stores
          m.Byte_cost.m_word_loads m.Byte_cost.m_word_stores m.Byte_cost.m_total
      in
      line ppf "%-34s %s" ""
        "byte-lds  byte-sts  word-lds  word-sts   total";
      row "word-allocated mix on MIPS" t.Byte_cost.word_alloc_on_mips;
      row "byte-allocated mix on MIPS" t.Byte_cost.byte_alloc_on_mips;
      row "word-allocated mix on byte machine" t.Byte_cost.word_alloc_on_byte_machine;
      row "byte-allocated mix on byte machine" t.Byte_cost.byte_alloc_on_byte_machine;
      line ppf "byte-addressing penalty, word-allocated mix: %5.1f%%  (paper: 9 - 11.8%%)"
        t.Byte_cost.penalty_word_alloc_pct;
      line ppf "byte-addressing penalty, byte-allocated mix: %5.1f%%  (paper: 7.7 - 14.6%%)"
        t.Byte_cost.penalty_byte_alloc_pct)

(* --- Table 11 ------------------------------------------------------------- *)

let table11 ppf =
  vbox ppf (fun () ->
      header ppf "Table 11: Cumulative static improvements with postpass optimization";
      line ppf "%-12s %8s %8s %8s %8s %12s" "program" "none" "reorg" "pack"
        "delay" "improvement";
      List.iter
        (fun (r : Table11.row) ->
          match List.map snd r.Table11.counts with
          | [ a; b; c; d ] ->
              line ppf "%-12s %8d %8d %8d %8d %11.1f%%" r.Table11.program a b c d
                r.Table11.improvement_pct
          | _ -> ())
        (Table11.run ());
      line ppf "(paper: fib 20.6%%, puzzle-subscript 24.8%%, puzzle-pointer 35.1%%)")

(* --- figures ---------------------------------------------------------------- *)

let bool_fig ppf (f : Figures.bool_fig) =
  header ppf f.Figures.title;
  line ppf "%s" f.Figures.code;
  line ppf "%d static instructions, %d static branches" f.Figures.static_instructions
    f.Figures.static_branches;
  line ppf "average %.2f instructions, %.2f branches executed" f.Figures.avg_dynamic
    f.Figures.avg_branches

let figures1to3 ppf =
  vbox ppf (fun () ->
      bool_fig ppf (Figures.figure1_full ());
      line ppf "(paper: 8 static, 2 branches, average 7 executed)";
      bool_fig ppf (Figures.figure1_early_out ());
      line ppf "(paper: 6 static, average 4.25 executed, one branch on average)";
      bool_fig ppf (Figures.figure2_cond_set ());
      line ppf "(paper: 5 instructions, no branches)";
      bool_fig ppf (Figures.figure3_mips ());
      line ppf "(paper: 3 instructions, no branches)")

let figure4 ppf =
  vbox ppf (fun () ->
      header ppf "Figure 4: Reorganization, packing, and branch delay";
      let f = Figures.figure4 () in
      line ppf "-- legal code with no-ops (%d words):" f.Figures.before_words;
      line ppf "%s" f.Figures.before;
      line ppf "-- reorganized code (%d words):" f.Figures.after_words;
      line ppf "%s" f.Figures.after)

(* --- systems measurements ------------------------------------------------------ *)

let free_cycles ?include_heavy ppf =
  vbox ppf (fun () ->
      header ppf "Section 3.1: free memory cycles";
      let p, _ = Refpatterns.word_allocated ?include_heavy () in
      line ppf "fraction of issue slots with an idle data-memory port: %.1f%%"
        (100. *. p.Refpatterns.free_cycle_fraction);
      line ppf "(paper: \"the wasted bandwidth came close to 40%%\")")

let context_switches ppf =
  vbox ppf (fun () ->
      header ppf "Section 3.2: context switches";
      let k = Mips_os.Kernel.create ~quantum:400 () in
      List.iter
        (fun name ->
          let e = Mips_corpus.Corpus.find name in
          Mips_os.Kernel.spawn k ~input:e.Mips_corpus.Corpus.input ~name
            (Mips_artifact.compiled ~config:os_config e.Mips_corpus.Corpus.source))
        os_workload;
      let r = Mips_os.Kernel.run k in
      line ppf "processes run to completion: %d" (List.length r.Mips_os.Kernel.procs);
      line ppf "context switches: %d (timer interrupts %d)" r.Mips_os.Kernel.switches
        r.Mips_os.Kernel.interrupts;
      line ppf "page faults: %d, evictions: %d" r.Mips_os.Kernel.page_faults
        r.Mips_os.Kernel.evictions;
      line ppf "cycles per switch (16 saves + 16 restores at full bandwidth + dispatch): %d"
        r.Mips_os.Kernel.switch_cycle_cost;
      line ppf "page-map changes performed during switches: %d"
        r.Mips_os.Kernel.map_changes_during_switches;
      line ppf
        "(paper: \"the on-chip segmentation means that most context switches do \
         not require changes to the memory map\")")

(* --- machine-readable report ------------------------------------------------ *)

module J = Mips_obs.Json

let json_table1 () =
  let d = Constants.of_corpus () in
  J.Obj
    [ ( "rows",
        J.List
          (List.map
             (fun (label, n, p) ->
               J.Obj
                 [ ("magnitude", J.Str label);
                   ("count", J.Int n);
                   ("percent", J.Float p) ])
             (Constants.rows d)) );
      ("total_constants", J.Int d.Constants.total);
      ("coverage_imm4", J.Float (Constants.coverage_imm4 d));
      ("coverage_imm8", J.Float (Constants.coverage_imm8 d)) ]

let json_table2 () =
  J.List
    (List.map
       (fun m ->
         let name, cc, access = Mips_cc.Taxonomy.row m in
         J.Obj
           [ ("machine", J.Str name);
             ("condition_code", J.Str cc);
             ("access", J.Str access) ])
       Mips_cc.Taxonomy.machines)

let json_table3 () =
  let s = Mips_cc.Ccstats.of_corpus Mips_cc.Cc.vax_style in
  J.Obj
    [ ("compares", J.Int s.Mips_cc.Ccstats.compares);
      ("saved_by_ops", J.Int s.Mips_cc.Ccstats.saved_by_ops);
      ("saved_by_ops_and_moves", J.Int s.Mips_cc.Ccstats.saved_by_ops_and_moves);
      ("moves_only_for_cc", J.Int s.Mips_cc.Ccstats.moves_only_for_cc);
      ("genuinely_saved", J.Int s.Mips_cc.Ccstats.genuinely_saved) ]

let json_table4 () =
  let b = Bool_stats.of_corpus () in
  J.Obj
    [ ("expressions", J.Int b.Bool_stats.expressions);
      ("avg_operators", J.Float (Bool_stats.avg_operators b));
      ("jump_fraction", J.Float (Bool_stats.jump_fraction b));
      ("store_fraction", J.Float (Bool_stats.store_fraction b));
      ("complex", J.Int b.Bool_stats.complex) ]

let json_classes (c : Snippets.classes) =
  J.Obj
    [ ("compares", J.Int c.Snippets.compares);
      ("regs", J.Int c.Snippets.regs);
      ("branches", J.Int c.Snippets.branches) ]

let json_table5 () =
  J.List
    (List.map
       (fun (s, (p : Bool_cost.per_operator)) ->
         J.Obj
           [ ("support", J.Str (Bool_cost.support_name s));
             ("static", json_classes p.Bool_cost.static_classes);
             ("dynamic", json_classes p.Bool_cost.dynamic_classes) ])
       (Bool_cost.table5 ()))

let json_table6 () =
  let stats = Bool_stats.of_corpus () in
  let rows = Bool_cost.table6 ~stats () in
  J.Obj
    [ ( "rows",
        J.List
          (List.map
             (fun (r : Bool_cost.cost_row) ->
               J.Obj
                 [ ("support", J.Str (Bool_cost.support_name r.Bool_cost.support));
                   ("store_cost", J.Float r.Bool_cost.store_cost);
                   ("jump_cost", J.Float r.Bool_cost.jump_cost);
                   ("total_cost", J.Float r.Bool_cost.total_cost) ])
             rows) );
      ( "improvement_condset_over_cc_branch_pct",
        J.Float (Bool_cost.improvement rows Bool_cost.Cc_condset Bool_cost.Cc_branch_full) );
      ( "improvement_setcond_over_cc_branch_pct",
        J.Float (Bool_cost.improvement rows Bool_cost.Mips_setcond Bool_cost.Cc_branch_full) );
      ( "improvement_setcond_over_early_out_pct",
        J.Float (Bool_cost.improvement rows Bool_cost.Mips_setcond Bool_cost.Cc_branch_early) ) ]

let json_failures failures =
  J.List
    (List.map
       (fun (f : Refpatterns.failure) ->
         J.Obj
           [ ("program", J.Str f.Refpatterns.program);
             ("reason", J.Str f.Refpatterns.reason) ])
       failures)

let json_pattern ((p : Refpatterns.pattern), failures) =
  let pct = Refpatterns.pct p in
  J.Obj
    [ ("loads", J.Int p.Refpatterns.loads);
      ("stores", J.Int p.Refpatterns.stores);
      ("byte_loads", J.Int p.Refpatterns.byte_loads);
      ("byte_stores", J.Int p.Refpatterns.byte_stores);
      ("word_loads", J.Int p.Refpatterns.word_loads);
      ("word_stores", J.Int p.Refpatterns.word_stores);
      ("char_loads", J.Int p.Refpatterns.char_loads);
      ("char_stores", J.Int p.Refpatterns.char_stores);
      ("char_byte_loads", J.Int p.Refpatterns.char_byte_loads);
      ("char_byte_stores", J.Int p.Refpatterns.char_byte_stores);
      ("load_pct", J.Float (pct p.Refpatterns.loads));
      ("store_pct", J.Float (pct p.Refpatterns.stores));
      ("byte_load_pct", J.Float (pct p.Refpatterns.byte_loads));
      ("byte_store_pct", J.Float (pct p.Refpatterns.byte_stores));
      ("word_load_pct", J.Float (pct p.Refpatterns.word_loads));
      ("word_store_pct", J.Float (pct p.Refpatterns.word_stores));
      ("free_cycle_fraction", J.Float p.Refpatterns.free_cycle_fraction);
      ("cycles", J.Int p.Refpatterns.cycles);
      ("failures", json_failures failures) ]

let json_table9 () =
  J.List
    (List.map
       (fun (op, (c : Byte_cost.op_cost)) ->
         J.Obj
           [ ("operation", J.Str (Byte_cost.op_name op));
             ("byte_machine", J.Float c.Byte_cost.byte_machine);
             ("byte_machine_overhead", J.Float c.Byte_cost.byte_machine_overhead);
             ("word_machine", J.Float c.Byte_cost.word_machine) ])
       (Byte_cost.table9 ()))

let json_machine_cost (m : Byte_cost.machine_cost) =
  J.Obj
    [ ("byte_loads", J.Float m.Byte_cost.m_byte_loads);
      ("byte_stores", J.Float m.Byte_cost.m_byte_stores);
      ("word_loads", J.Float m.Byte_cost.m_word_loads);
      ("word_stores", J.Float m.Byte_cost.m_word_stores);
      ("total", J.Float m.Byte_cost.m_total) ]

let json_table10 ~word_pattern ~byte_pattern =
  let t = Byte_cost.table10 ~word_pattern ~byte_pattern in
  J.Obj
    [ ("word_alloc_on_mips", json_machine_cost t.Byte_cost.word_alloc_on_mips);
      ("byte_alloc_on_mips", json_machine_cost t.Byte_cost.byte_alloc_on_mips);
      ( "word_alloc_on_byte_machine",
        json_machine_cost t.Byte_cost.word_alloc_on_byte_machine );
      ( "byte_alloc_on_byte_machine",
        json_machine_cost t.Byte_cost.byte_alloc_on_byte_machine );
      ("penalty_word_alloc_pct", J.Float t.Byte_cost.penalty_word_alloc_pct);
      ("penalty_byte_alloc_pct", J.Float t.Byte_cost.penalty_byte_alloc_pct) ]

let json_table11 () =
  J.List
    (List.map
       (fun (r : Table11.row) ->
         J.Obj
           [ ("program", J.Str r.Table11.program);
             ( "static_words",
               J.Obj
                 (List.map
                    (fun (level, n) ->
                      (Mips_reorg.Pipeline.level_name level, J.Int n))
                    r.Table11.counts) );
             ("improvement_pct", J.Float r.Table11.improvement_pct) ])
       (Table11.run ()))

let json_bool_fig (f : Figures.bool_fig) =
  J.Obj
    [ ("title", J.Str f.Figures.title);
      ("static_instructions", J.Int f.Figures.static_instructions);
      ("static_branches", J.Int f.Figures.static_branches);
      ("avg_dynamic", J.Float f.Figures.avg_dynamic);
      ("avg_branches", J.Float f.Figures.avg_branches) ]

let json_figures () =
  let f4 = Figures.figure4 () in
  J.Obj
    [ ("figure1_full", json_bool_fig (Figures.figure1_full ()));
      ("figure1_early_out", json_bool_fig (Figures.figure1_early_out ()));
      ("figure2_cond_set", json_bool_fig (Figures.figure2_cond_set ()));
      ("figure3_mips", json_bool_fig (Figures.figure3_mips ()));
      ( "figure4",
        J.Obj
          [ ("before_words", J.Int f4.Figures.before_words);
            ("after_words", J.Int f4.Figures.after_words) ] ) ]

let json_context_switches () =
  let k = Mips_os.Kernel.create ~quantum:400 () in
  List.iter
    (fun name ->
      let e = Mips_corpus.Corpus.find name in
      Mips_os.Kernel.spawn k ~input:e.Mips_corpus.Corpus.input ~name
        (Mips_artifact.compiled ~config:os_config e.Mips_corpus.Corpus.source))
    os_workload;
  Mips_os.Kernel.report_json (Mips_os.Kernel.run k)

(* --- guest hotspots -------------------------------------------------------- *)

(* Bumped when the shape of [json_all]'s object changes, so downstream
   trace/metrics consumers can detect format drift.  Version 1 was the
   unversioned PR 3-5 object; 2 added this field. *)
let report_schema_version = 2

(* Profile one kernel-workload program on the fast engine: the report-level
   view of `mipsc profile run`, and the feedstock for trace-level fusion
   work.  The compile comes from the artifact cache; only the profiled run
   itself is redone (a profiled machine is private by construction). *)
let profile_of name =
  let e = Mips_corpus.Corpus.find name in
  let program = Mips_artifact.compiled e.Mips_corpus.Corpus.source in
  let cpu = Mips_machine.Cpu.create () in
  Mips_machine.Cpu.set_profiling cpu true;
  ignore
    (Mips_machine.Hosted.run_program_on ~fuel:Mips_artifact.default_fuel
       ~input:e.Mips_corpus.Corpus.input ~engine:Mips_machine.Cpu.Fast cpu
       program);
  Mips_profile.capture ~program:name cpu

let hotspots ?(top = 8) ppf =
  vbox ppf (fun () ->
      header ppf "Guest hot blocks (per-program profile, fast engine)";
      List.iter
        (fun name ->
          Format.fprintf ppf "@,";
          Mips_profile.pp_hotspots ~top ppf (profile_of name);
          Format.fprintf ppf "@,")
        os_workload)

let json_hotspots () =
  J.Obj
    (List.map
       (fun name -> (name, Mips_profile.to_json (profile_of name)))
       os_workload)

let json_all ?jobs ?include_heavy () =
  prepare ?jobs ?include_heavy ();
  let word_pattern = Refpatterns.word_allocated ?include_heavy () in
  let byte_pattern = Refpatterns.byte_allocated ?include_heavy () in
  J.Obj
    [ ("schema_version", J.Int report_schema_version);
      ("table1_constants", json_table1 ());
      ("table2_cc_taxonomy", json_table2 ());
      ("table3_cc_savings", json_table3 ());
      ("table4_bool_shapes", json_table4 ());
      ("table5_bool_operators", json_table5 ());
      ("table6_bool_costs", json_table6 ());
      ("table7_word_refpatterns", json_pattern word_pattern);
      ("table8_byte_refpatterns", json_pattern byte_pattern);
      ("table9_byte_op_costs", json_table9 ());
      ( "table10_addressing_penalty",
        json_table10 ~word_pattern:(fst word_pattern)
          ~byte_pattern:(fst byte_pattern) );
      ("table11_postpass_levels", json_table11 ());
      ("figures", json_figures ());
      ( "free_cycles",
        J.Obj
          [ ( "free_cycle_fraction",
              J.Float (fst word_pattern).Refpatterns.free_cycle_fraction ) ] );
      ("context_switches", json_context_switches ()) ]

let print_all ?jobs ?include_heavy ppf =
  prepare ?jobs ?include_heavy ();
  table1 ppf;
  table2 ppf;
  table3 ppf;
  table4 ppf;
  table5 ppf;
  table6 ppf;
  table7 ?include_heavy ppf;
  table8 ?include_heavy ppf;
  table9 ppf;
  table10 ?include_heavy ppf;
  table11 ppf;
  figures1to3 ppf;
  figure4 ppf;
  free_cycles ?include_heavy ppf;
  context_switches ppf
