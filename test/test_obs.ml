(* The observability layer: JSON round-trips, sink semantics, and the
   instrumented simulator/kernel actually telling the truth. *)

open Mips_obs

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let event = Alcotest.testable Event.pp Event.equal

(* ---------- Json ---------- *)

let roundtrip j = Json.of_string_exn (Json.to_string j)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.1;
      Json.Float (-1.5e300);
      Json.Float 3.0;
      Json.Str "";
      Json.Str "plain";
      Json.Str "esc \" \\ \n \t \r \x00 \x1f";
      Json.Str "unicode: \xc3\xa9 \xe2\x86\x92";
      Json.List [];
      Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      checkb (Json.to_string j) true (roundtrip j = j))
    cases

let test_json_nonfinite () =
  check Alcotest.string "nan" "null" (Json.to_string (Json.Float Float.nan));
  check Alcotest.string "inf" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_json_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parser accepted %S" s)
    bad

(* ---------- Event ---------- *)

let test_event_samples_cover () =
  (* every constructor appears in [samples] — guards the round-trip test
     against silently losing coverage when a constructor is added *)
  let kinds =
    List.sort_uniq compare (List.map Event.kind_name Event_reader.samples)
  in
  checki "distinct kinds" 23 (List.length kinds)

let test_event_jsonl_roundtrip () =
  List.iter
    (fun e ->
      let line = Json.to_string (Event.to_json e) in
      match Json.of_string line with
      | Error msg -> Alcotest.failf "%s: unparseable %s" msg line
      | Ok j -> (
          match Event_reader.of_json j with
          | Error msg -> Alcotest.failf "%s: undecodable %s" msg line
          | Ok e' -> check event line e e'))
    Event_reader.samples

let test_event_text_one_line () =
  List.iter
    (fun e ->
      let s = Event.to_text e in
      checkb (Printf.sprintf "no newline in %S" s) false
        (String.contains s '\n'))
    Event_reader.samples

(* ---------- Sink ---------- *)

let ev i = Event.Fetch { pc = i }

let test_null_sink () =
  checkb "disabled" false (Sink.enabled Sink.null);
  Sink.emit Sink.null (ev 0);
  Sink.flush Sink.null

let test_ring_overflow () =
  let ring, sink = Sink.ring ~capacity:4 in
  for i = 0 to 9 do
    Sink.emit sink (ev i)
  done;
  checki "capacity" 4 (Sink.ring_capacity ring);
  checki "seen" 10 (Sink.ring_seen ring);
  checki "dropped" 6 (Sink.ring_dropped ring);
  Alcotest.(check (list event))
    "last four, oldest first"
    [ ev 6; ev 7; ev 8; ev 9 ]
    (Sink.ring_contents ring)

let test_ring_underfill () =
  let ring, sink = Sink.ring ~capacity:8 in
  Sink.emit sink (ev 1);
  Sink.emit sink (ev 2);
  checki "dropped" 0 (Sink.ring_dropped ring);
  Alcotest.(check (list event)) "in order" [ ev 1; ev 2 ]
    (Sink.ring_contents ring);
  Alcotest.check_raises "capacity 0" (Invalid_argument "Sink.ring: capacity must be positive")
    (fun () -> ignore (Sink.ring ~capacity:0))

let test_tee () =
  let r1, s1 = Sink.ring ~capacity:4 in
  let r2, s2 = Sink.ring ~capacity:4 in
  let both = Sink.tee s1 s2 in
  checkb "enabled" true (Sink.enabled both);
  Sink.emit both (ev 7);
  checki "left" 1 (Sink.ring_seen r1);
  checki "right" 1 (Sink.ring_seen r2);
  (* a disabled side collapses away *)
  checkb "null+null" false (Sink.enabled (Sink.tee Sink.null Sink.null))

let test_jsonl_buffer_sink () =
  let buf = Buffer.create 256 in
  let sink = Sink.jsonl_buffer buf in
  List.iter (Sink.emit sink) Event_reader.samples;
  Sink.flush sink;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  checki "one line per event" (List.length Event_reader.samples) (List.length lines);
  List.iter2
    (fun e line ->
      match Event_reader.of_json (Json.of_string_exn line) with
      | Ok e' -> check event line e e'
      | Error msg -> Alcotest.failf "%s: %s" msg line)
    Event_reader.samples lines

(* ---------- Metrics ---------- *)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.add m "a" 2;
  Metrics.set m "b" 7;
  checki "a" 3 (Metrics.count m "a");
  checki "b" 7 (Metrics.count m "b");
  checki "absent" 0 (Metrics.count m "zzz");
  let x = Metrics.time m "t" (fun () -> 41 + 1) in
  checki "thunk result" 42 x;
  checki "calls" 1 (Metrics.calls m "t");
  Metrics.add_seconds m "t" 0.25;
  checkb "accumulates" true (Metrics.seconds m "t" >= 0.25);
  checki "add_seconds counts a call" 2 (Metrics.calls m "t");
  Alcotest.(check (list string))
    "sorted counters" [ "a"; "b" ]
    (List.map fst (Metrics.counters m));
  (* JSON shape round-trips through the parser *)
  let j = roundtrip (Metrics.to_json m) in
  checki "counter via json" 3
    Json.(to_int_exn (member_exn "a" (member_exn "counters" j)));
  checki "timer calls via json" 2
    Json.(
      to_int_exn (member_exn "calls" (member_exn "t" (member_exn "timers" j))))

(* ---------- the instrumented simulator ---------- *)

let run_traced ?(config = Mips_ir.Config.default) name =
  let entry = Mips_corpus.Corpus.find name in
  let buf = Buffer.create (1 lsl 16) in
  let sink = Sink.jsonl_buffer buf in
  let res, cpu =
    Mips_codegen.Compile.run_with_machine ~config
      ~input:entry.Mips_corpus.Corpus.input ~trace:sink
      entry.Mips_corpus.Corpus.source
  in
  Sink.flush sink;
  checkb (name ^ " halted") true res.Mips_machine.Hosted.halted;
  let events =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match Event_reader.of_json (Json.of_string_exn l) with
           | Ok e -> e
           | Error msg -> Alcotest.failf "bad trace line (%s): %s" msg l)
  in
  (res, cpu, events)

let test_fib_trace_golden () =
  let res, cpu, events = run_traced "fib" in
  let stats = Mips_machine.Cpu.stats cpu in
  let count p = List.length (List.filter p events) in
  (* one Fetch and one Issue per executed instruction word *)
  checki "issues = words" stats.Mips_machine.Stats.words
    (count (function Event.Issue _ -> true | _ -> false));
  checki "fetches = words" stats.Mips_machine.Stats.words
    (count (function Event.Fetch _ -> true | _ -> false));
  checki "branch events = branches taken"
    stats.Mips_machine.Stats.branches_taken
    (count (function Event.Branch_taken _ -> true | _ -> false));
  (* fib writes its output through the monitor *)
  checkb "monitor calls traced" true
    (count (function Event.Monitor_call _ -> true | _ -> false) > 0);
  checkb "memory references traced" true
    (count (function Event.Mem_ref _ -> true | _ -> false) > 0);
  (* traps reach the trace as architectural dispatches *)
  checki "trap dispatches"
    (Mips_machine.Stats.exception_count stats Mips_machine.Cause.Trap)
    (count (function
      | Event.Exception_dispatch { cause = "Trap"; _ } -> true
      | _ -> false));
  checkb "output unchanged by tracing" true
    (String.length res.Mips_machine.Hosted.output > 0)

let test_trace_does_not_change_execution () =
  let entry = Mips_corpus.Corpus.find "qsort" in
  let plain =
    Mips_codegen.Compile.run ~input:entry.Mips_corpus.Corpus.input
      entry.Mips_corpus.Corpus.source
  in
  let traced, cpu, _ = run_traced "qsort" in
  check Alcotest.string "same output" plain.Mips_machine.Hosted.output
    traced.Mips_machine.Hosted.output;
  checkb "cycles tallied" true
    ((Mips_machine.Cpu.stats cpu).Mips_machine.Stats.cycles > 0)

let test_stats_json_valid () =
  let _, cpu, _ = run_traced "fib" in
  let stats = Mips_machine.Cpu.stats cpu in
  let j = roundtrip (Mips_machine.Stats.to_json stats) in
  checki "cycles" stats.Mips_machine.Stats.cycles
    Json.(to_int_exn (member_exn "cycles" j));
  checki "words" stats.Mips_machine.Stats.words
    Json.(to_int_exn (member_exn "words" j));
  checkb "free fraction in [0,1]" true
    (let f = Json.(to_float_exn (member_exn "free_cycle_fraction" j)) in
     f >= 0. && f <= 1.)

(* ---------- raw code on the interlocked machine ---------- *)

let test_raw_interlocked_equivalence () =
  (* the conventional-machine baseline must compute the same results: the
     hardware stalls stand in for the software no-ops *)
  List.iter
    (fun name ->
      let entry = Mips_corpus.Corpus.find name in
      let expected =
        Mips_codegen.Compile.run ~input:entry.Mips_corpus.Corpus.input
          entry.Mips_corpus.Corpus.source
      in
      let raw =
        Mips_reorg.Pipeline.compile_raw
          (Mips_codegen.Compile.to_asm entry.Mips_corpus.Corpus.source)
      in
      let cpu =
        Mips_machine.Cpu.create ~config:Mips_machine.Cpu.interlocked_config ()
      in
      let res =
        Mips_machine.Hosted.run_program_on
          ~input:entry.Mips_corpus.Corpus.input cpu raw
      in
      checkb (name ^ " halted") true res.Mips_machine.Hosted.halted;
      check Alcotest.string (name ^ " output")
        expected.Mips_machine.Hosted.output res.Mips_machine.Hosted.output)
    [ "fib"; "qsort"; "sieve"; "strops" ]

let test_raw_interlocked_stall_pairs () =
  let entry = Mips_corpus.Corpus.find "fib" in
  let raw =
    Mips_reorg.Pipeline.compile_raw
      (Mips_codegen.Compile.to_asm entry.Mips_corpus.Corpus.source)
  in
  let cpu =
    Mips_machine.Cpu.create ~config:Mips_machine.Cpu.interlocked_config ()
  in
  let _ =
    Mips_machine.Hosted.run_program_on ~input:entry.Mips_corpus.Corpus.input
      cpu raw
  in
  let stats = Mips_machine.Cpu.stats cpu in
  checkb "raw code stalls" true (stats.Mips_machine.Stats.load_use_stall_cycles > 0);
  let pairs = Mips_machine.Stats.stall_pairs stats in
  checkb "pairs attributed" true (pairs <> []);
  (* the pair table accounts for every load-use stall *)
  checki "pair totals"
    stats.Mips_machine.Stats.load_use_stall_cycles
    (List.fold_left (fun acc (_, n) -> acc + n) 0 pairs);
  (* sorted most-stalls-first *)
  let counts = List.map snd pairs in
  checkb "sorted desc" true (List.sort (fun a b -> compare b a) counts = counts)

(* ---------- the instrumented kernel ---------- *)

let test_kernel_trace () =
  (* an unbounded collector: the per-word machine events would overflow any
     reasonable ring and take the early Spawn events with them *)
  let collected = ref [] in
  let sink = Sink.of_fun (fun e -> collected := e :: !collected) in
  let k = Mips_os.Kernel.create ~quantum:500 ~trace:sink () in
  let compile name =
    let e = Mips_corpus.Corpus.find name in
    ( Mips_codegen.Compile.compile
        ~config:
          {
            Mips_ir.Config.default with
            Mips_ir.Config.stack_top = Mips_os.Kernel.user_stack_top;
          }
        e.Mips_corpus.Corpus.source,
      e.Mips_corpus.Corpus.input )
  in
  let p1, i1 = compile "fib" in
  let p2, i2 = compile "sieve" in
  Mips_os.Kernel.spawn k ~input:i1 ~name:"fib" p1;
  Mips_os.Kernel.spawn k ~input:i2 ~name:"sieve" p2;
  let report = Mips_os.Kernel.run k in
  let events = List.rev !collected in
  let count p = List.length (List.filter p events) in
  checki "spawns" 2 (count (function Event.Spawn _ -> true | _ -> false));
  checki "exits" 2 (count (function Event.Proc_exit _ -> true | _ -> false));
  checki "switch events" report.Mips_os.Kernel.switches
    (count (function Event.Context_switch _ -> true | _ -> false));
  checki "fault events" report.Mips_os.Kernel.page_faults
    (count (function Event.Page_fault _ -> true | _ -> false));
  (* report JSON parses and agrees *)
  let j = roundtrip (Mips_os.Kernel.report_json report) in
  checki "switches via json" report.Mips_os.Kernel.switches
    Json.(to_int_exn (member_exn "switches" j));
  checki "procs via json" 2
    (List.length Json.(to_list_exn (member_exn "procs" j)))

(* ---------- Histograms ---------- *)

let test_hist_single_value () =
  let m = Metrics.create () in
  Metrics.observe m "h" 0.125;
  match Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some v ->
      checki "count" 1 v.Metrics.count;
      (* single-valued histograms are exact: the bucket midpoint clamps
         into [min, max], which here is a point *)
      check (Alcotest.float 0.) "sum" 0.125 v.Metrics.sum;
      check (Alcotest.float 0.) "p50" 0.125 v.Metrics.p50;
      check (Alcotest.float 0.) "p90" 0.125 v.Metrics.p90;
      check (Alcotest.float 0.) "p99" 0.125 v.Metrics.p99

let test_hist_percentiles () =
  let m = Metrics.create () in
  for i = 1 to 1000 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  match Metrics.histogram m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some v ->
      checki "count" 1000 v.Metrics.count;
      check (Alcotest.float 0.) "min" 1. v.Metrics.min_v;
      check (Alcotest.float 0.) "max" 1000. v.Metrics.max_v;
      (* base-2 buckets: every quantile within ~sqrt 2 relative error *)
      let near q est = est >= q /. 1.5 && est <= q *. 1.5 in
      checkb "p50 near 500" true (near 500. v.Metrics.p50);
      checkb "p90 near 900" true (near 900. v.Metrics.p90);
      checkb "p99 near 990" true (near 990. v.Metrics.p99);
      checkb "quantiles monotone" true
        (v.Metrics.p50 <= v.Metrics.p90 && v.Metrics.p90 <= v.Metrics.p99)

let test_hist_odd_values () =
  (* non-positive and non-finite samples land in the lowest bucket but
     keep count and min/max truthful, and quantiles stay finite *)
  let m = Metrics.create () in
  List.iter (Metrics.observe m "odd") [ 0.; -3.; Float.nan; 4. ];
  match Metrics.histogram m "odd" with
  | None -> Alcotest.fail "histogram missing"
  | Some v ->
      checki "count" 4 v.Metrics.count;
      check (Alcotest.float 0.) "min" (-3.) v.Metrics.min_v;
      check (Alcotest.float 0.) "max" 4. v.Metrics.max_v;
      checkb "p50 finite" true (Float.is_finite v.Metrics.p50);
      checkb "p99 finite" true (Float.is_finite v.Metrics.p99)

let test_hist_json_shape () =
  let m = Metrics.create () in
  Metrics.observe m "h" 2.;
  let j = roundtrip (Metrics.to_json m) in
  let h = Json.(member_exn "h" (member_exn "histograms" j)) in
  checki "count" 1 Json.(to_int_exn (member_exn "count" h));
  List.iter
    (fun k -> checkb k true (Json.member k h <> None))
    [ "sum"; "min"; "max"; "p50"; "p90"; "p99" ]

(* dyadic rationals k/16: sums are exact in binary floating point, so
   histogram equality after differently-associated merges is exact too *)
let dyadic_list =
  QCheck2.Gen.(list_size (int_bound 40) (map (fun k -> float_of_int k /. 16.) (int_range 1 64)))

let mk_hist samples =
  let m = Mips_obs.Metrics.create () in
  List.iter (Mips_obs.Metrics.observe m "h") samples;
  m

let qcheck_hist_merge_assoc =
  QCheck2.Test.make ~name:"histogram merge is associative" ~count:200
    QCheck2.Gen.(triple dyadic_list dyadic_list dyadic_list)
    (fun (l1, l2, l3) ->
      let left = mk_hist l1 in
      Mips_obs.Metrics.merge ~into:left (mk_hist l2);
      Mips_obs.Metrics.merge ~into:left (mk_hist l3);
      let bc = mk_hist l2 in
      Mips_obs.Metrics.merge ~into:bc (mk_hist l3);
      let right = mk_hist l1 in
      Mips_obs.Metrics.merge ~into:right bc;
      Mips_obs.Metrics.histograms left = Mips_obs.Metrics.histograms right
      && Json.to_string (Mips_obs.Metrics.to_json left)
         = Json.to_string (Mips_obs.Metrics.to_json right))

let qcheck_json_float_roundtrip =
  QCheck2.Test.make ~name:"json float round-trip" ~count:500 QCheck2.Gen.float
    (fun f ->
      let s = Json.to_string (Json.Float f) in
      match Json.of_string_exn s with
      | Json.Null -> Float.is_nan f || Float.abs f = Float.infinity
      | j ->
          let f' = Json.to_float_exn j in
          (* %.17g fallback makes the repr lossless for finite floats *)
          Float.equal f f' || (Float.is_nan f && Float.is_nan f'))

(* ---------- Spans ---------- *)

(* a deterministic fake clock: each read advances one second *)
let ticking () =
  let t = ref 0. in
  fun () ->
    let v = !t in
    t := v +. 1.;
    v

let test_span_nesting () =
  let sp = Span.create ~clock:(ticking ()) () in
  Span.with_ sp "outer" (fun () -> Span.with_ sp "inner" (fun () -> ()));
  Span.with_ sp "after" (fun () -> ());
  match Span.spans sp with
  | [ outer; inner; after ] ->
      check Alcotest.string "outer name" "outer" outer.Span.sp_name;
      checki "outer depth" 0 outer.Span.sp_depth;
      check Alcotest.string "inner name" "inner" inner.Span.sp_name;
      checki "inner depth" 1 inner.Span.sp_depth;
      checki "after depth" 0 after.Span.sp_depth;
      (* clock ticks once per enter/leave: outer spans reads 0..3 *)
      check (Alcotest.float 0.) "outer start" 0. outer.Span.sp_start;
      check (Alcotest.float 0.) "outer dur" 3. outer.Span.sp_dur;
      check (Alcotest.float 0.) "inner start" 1. inner.Span.sp_start;
      check (Alcotest.float 0.) "inner dur" 1. inner.Span.sp_dur;
      checkb "inner inside outer" true
        (inner.Span.sp_start >= outer.Span.sp_start
        && inner.Span.sp_start +. inner.Span.sp_dur
           <= outer.Span.sp_start +. outer.Span.sp_dur)
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_span_exception_safe () =
  let sp = Span.create ~clock:(ticking ()) () in
  (try Span.with_ sp "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Span.spans sp with
  | [ s ] -> check Alcotest.string "closed on raise" "boom" s.Span.sp_name
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_span_null_records_nothing () =
  Span.with_ Span.null "ignored" (fun () -> ());
  checki "null stays empty" 0 (List.length (Span.spans Span.null));
  checkb "no_tracer disabled" false (Span.tracer_enabled Span.no_tracer)

let test_tracer_chrome () =
  let tracer = Span.tracer ~clock:(ticking ()) ~lanes:2 () in
  Span.with_ (Span.lane tracer 0) "a" (fun () -> ());
  Span.with_ (Span.lane tracer 1) "b" (fun () -> ());
  let spans = Span.tracer_spans tracer in
  checki "two spans" 2 (List.length spans);
  let j = roundtrip (Span.to_chrome ~process:"test" spans) in
  let events = Json.(to_list_exn (member_exn "traceEvents" j)) in
  let xs =
    List.filter
      (fun e -> Json.member_exn "ph" e = Json.Str "X")
      events
  in
  checki "one X event per span" 2 (List.length xs);
  let tids =
    List.sort_uniq compare
      (List.map (fun e -> Json.(to_int_exn (member_exn "tid" e))) xs)
  in
  checki "one lane per collector" 2 (List.length tids);
  List.iter
    (fun e ->
      checkb "ts rebased non-negative" true
        (Json.to_float_exn (Json.member_exn "ts" e) >= 0.);
      checkb "dur non-negative" true
        (Json.to_float_exn (Json.member_exn "dur" e) >= 0.))
    xs;
  (* metadata names the process and each lane *)
  let metas =
    List.filter (fun e -> Json.member_exn "ph" e = Json.Str "M") events
  in
  checkb "has metadata events" true (List.length metas >= 3)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json non-finite floats" `Quick test_json_nonfinite;
        Alcotest.test_case "json parse errors" `Quick test_json_errors;
        Alcotest.test_case "event samples cover" `Quick test_event_samples_cover;
        Alcotest.test_case "event jsonl round-trip" `Quick
          test_event_jsonl_roundtrip;
        Alcotest.test_case "event text one-line" `Quick test_event_text_one_line;
        Alcotest.test_case "null sink" `Quick test_null_sink;
        Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
        Alcotest.test_case "ring underfill" `Quick test_ring_underfill;
        Alcotest.test_case "tee" `Quick test_tee;
        Alcotest.test_case "jsonl buffer sink" `Quick test_jsonl_buffer_sink;
        Alcotest.test_case "metrics registry" `Quick test_metrics;
        Alcotest.test_case "fib trace golden" `Quick test_fib_trace_golden;
        Alcotest.test_case "tracing is passive" `Quick
          test_trace_does_not_change_execution;
        Alcotest.test_case "stats json valid" `Quick test_stats_json_valid;
        Alcotest.test_case "raw interlocked equivalence" `Quick
          test_raw_interlocked_equivalence;
        Alcotest.test_case "raw interlocked stall pairs" `Quick
          test_raw_interlocked_stall_pairs;
        Alcotest.test_case "kernel trace" `Quick test_kernel_trace;
        Alcotest.test_case "histogram single value exact" `Quick
          test_hist_single_value;
        Alcotest.test_case "histogram percentiles" `Quick test_hist_percentiles;
        Alcotest.test_case "histogram odd values" `Quick test_hist_odd_values;
        Alcotest.test_case "histogram json shape" `Quick test_hist_json_shape;
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "span exception safety" `Quick
          test_span_exception_safe;
        Alcotest.test_case "null span collector" `Quick
          test_span_null_records_nothing;
        Alcotest.test_case "tracer chrome export" `Quick test_tracer_chrome;
      ]
      @ Testutil.qsuite [ qcheck_hist_merge_assoc; qcheck_json_float_roundtrip ]
    );
  ]
