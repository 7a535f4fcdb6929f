(* benchsuite: the repository's benchmark (see README.md in this directory).

     suite.exe --workload W --seed N --seconds S --trace 0|1
               [--trace-dir DIR] [--probes 0|1]
         one workload in this process; the last stdout line is the result:
         end-to-end metrics (--trace 0) or per-layer metrics (--trace 1,
         measured unless --probes 0)
     suite.exe run [--seed N] [--seconds S] [--repeat R] [--json OUT]
                   [--trace DIR]
         every workload, each run in a fresh child process
     suite.exe compare BASE.json NEW.json [NEW2.json ...]
         medians, spreads and a verdict per workload x end-to-end metric,
         under the bounds of ./BENCHMARK.json

   Exit status: 0 when every check passed, 1 on a failed check (or, for
   compare, a worse metric), 2 on a usage error. *)

module Json = Mips_obs.Json
module W = Workloads

let fail_usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("suite: " ^ msg);
      exit 2)
    fmt

let rec opt flag = function
  | [] -> None
  | f :: v :: _ when f = flag -> Some v
  | _ :: rest -> opt flag rest

let int_opt flag default args =
  match opt flag args with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> fail_usage "%s expects an integer, got %S" flag v)

let find_workload name =
  match List.find_opt (fun (n, _, _) -> n = name) W.all with
  | Some w -> w
  | None ->
      fail_usage "unknown workload %S (one of: %s)" name
        (String.concat ", " (List.map (fun (n, _, _) -> n) W.all))

(* --- one workload in this process ------------------------------------------ *)

let peak_rss_mib () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Sockets, session journals and checkpoints go in a per-process directory
   of the current one, removed on the way out. *)
let scratch_root = ".benchsuite-tmp"

let with_scratch f =
  let dir = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try remove_tree dir with Sys_error _ -> ());
      try Sys.rmdir scratch_root with Sys_error _ -> ())
    (fun () -> f dir)

let ms_of phase = List.map (fun (s : W.sample) -> s.ms) phase.W.samples
let failed_ops phase = List.length (List.filter (fun (s : W.sample) -> not s.ok) phase.W.samples)

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, value, unit_) ->
         (name, Json.Obj [ ("value", value); ("unit", Json.Str unit_) ]))
       metrics)

let result_line ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool (failed = 0));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics", metrics_json metrics) ]

let report_problems problems =
  List.iter (fun p -> prerr_endline ("suite: check failed: " ^ p)) problems

let predictions =
  [ "an engine-core change moves guest_fast, guest_jit and report_cold, not \
     compile_corpus";
    "a reorganizer speedup moves compile_corpus, and report_cold only by \
     compile's traced share";
    "a snapshot-path change moves daemon_session, not daemon_short" ]

let end_to_end ~name ~nominal (r : W.result) =
  let ms = ms_of r.untraced in
  let n = List.length ms in
  let tail = Bench_stats.tail ~nominal ms in
  let metrics =
    [ ("setup_s", Json.Float (Bench_stats.median r.setup_s), "s");
      ("latency_p50_ms", Json.Float (Bench_stats.median ms), "ms");
      ("latency_tail_ms", Json.Float tail.value, "ms");
      ("throughput_per_s", Json.Float (float_of_int n /. r.untraced.wall_s), "1/s");
      ("peak_rss_mb", Json.Float (peak_rss_mib ()), "MiB");
      ("sim_cycles", Json.Int r.sim_cycles, "cycles");
      ("static_words", Json.Int r.static_words, "words") ]
  in
  Printf.eprintf "%s: %d operations in %.2f s (n = %d, tail = p%.1f, set-up x%d)\n"
    name n r.untraced.wall_s n tail.pct (List.length r.setup_s);
  List.iter
    (fun (m, v, u) -> Printf.eprintf "  %-18s %14s %s\n" m (Json.to_string v) u)
    metrics;
  let detail =
    Json.Obj
      [ ("workload", Json.Str name);
        ("n", Json.Int n);
        ("tail_percentile", Json.Float tail.pct);
        ("setup_samples_s", Json.List (List.map (fun s -> Json.Float s) r.setup_s));
        ("wall_s", Json.Float r.untraced.wall_s) ]
  in
  let failed = failed_ops r.untraced + List.length r.problems in
  (detail, result_line ~attempted:(n + List.length r.problems) ~failed metrics)

let write_json dir file json =
  Out_channel.with_open_text (Filename.concat dir file) (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

(* The per-layer metrics and the problems their probes found.  The probes
   do not depend on the workload. *)
let probe_metrics ctx =
  let problems = ref [] in
  let metrics = Layers.probes ctx problems in
  report_problems !problems;
  ( List.map (fun (x : Layers.metric) -> (x.m_name, Json.Float x.value, x.unit_)) metrics,
    !problems )

let per_layer ~name ~trace_dir ~probes ctx (r : W.result) =
  let traced, spans = Option.get r.traced in
  let metrics, problems = if probes then probe_metrics ctx else ([], []) in
  let rows = Layers.self_times spans in
  Layers.print_self_times stderr ~workload:name ~wall_s:traced.wall_s rows;
  let p50 phase = Bench_stats.median (ms_of phase) in
  let overhead = p50 traced -. p50 r.untraced in
  Printf.eprintf "tracing overhead: latency_p50_ms %.3f traced - %.3f untraced = %+.3f ms (%+.1f%%)\n"
    (p50 traced) (p50 r.untraced) overhead (100. *. overhead /. p50 r.untraced);
  List.iter (Printf.eprintf "prediction: %s\n") predictions;
  Option.iter
    (fun dir ->
      write_json dir (name ^ ".chrome.json") (Mips_obs.Span.to_chrome ~process:name spans);
      write_json dir (name ^ ".layers.json")
        (Json.Obj
           [ ("workload", Json.Str name);
             ("traced_wall_s", Json.Float traced.wall_s);
             ("overhead_ms", Json.Float overhead);
             ( "self_time",
               Json.List
                 (List.map
                    (fun (s : Layers.self_row) ->
                      Json.Obj
                        [ ("span", Json.Str s.name); ("lane", Json.Int s.lane);
                          ("self_ms", Json.Float (1000. *. s.self_s));
                          ("count", Json.Int s.count) ])
                    rows) );
             ("metrics", metrics_json metrics) ]))
    trace_dir;
  let n = List.length traced.samples + List.length r.untraced.samples in
  let all_problems = r.problems @ problems in
  ( Json.Obj [ ("workload", Json.Str name); ("overhead_ms", Json.Float overhead) ],
    result_line
      ~attempted:(n + List.length all_problems)
      ~failed:(failed_ops traced + failed_ops r.untraced + List.length all_problems)
      metrics )

let flag01 flag args =
  match opt flag args with
  | None -> None
  | Some "0" -> Some false
  | Some "1" -> Some true
  | Some v -> fail_usage "%s expects 0 or 1, got %S" flag v

let measure args =
  let name = Option.value ~default:"" (opt "--workload" args) in
  let name, nominal, impl = find_workload name in
  let seed = int_opt "--seed" 1 args in
  let seconds = float_of_int (int_opt "--seconds" 10 args) in
  let trace = Option.value ~default:false (flag01 "--trace" args) in
  let probes = Option.value ~default:true (flag01 "--probes" args) in
  if seconds <= 0. then fail_usage "--seconds must be positive";
  let trace_dir = opt "--trace-dir" args in
  let detail, result =
    with_scratch (fun scratch ->
        let ctx = { W.seed; seconds; scratch; trace } in
        let r = impl ctx in
        report_problems r.problems;
        if trace then per_layer ~name ~trace_dir ~probes ctx r
        else end_to_end ~name ~nominal r)
  in
  print_endline (Json.to_string detail);
  print_endline (Json.to_string result);
  exit (if Json.member "correct" result = Some (Json.Bool true) then 0 else 1)

(* --- run: every workload in fresh child processes ------------------------------ *)

let last_lines n text =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let len = List.length lines in
  List.filteri (fun i _ -> i >= len - n) lines

(* Run this executable on one workload; its stderr passes through. *)
let child argv =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: argv))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let text = In_channel.input_all (Unix.in_channel_of_descr out_r) in
  Unix.close out_r;
  let _, status = Unix.waitpid [] pid in
  match (status, last_lines 2 text) with
  | Unix.WEXITED code, [ detail; result ] -> (
      match (Json.of_string detail, Json.of_string result) with
      | Ok d, Ok r -> Some (code, d, r)
      | _ -> None)
  | _ -> None

let print_result name (result : Json.t) =
  match Json.member "metrics" result with
  | Some (Json.Obj ms) ->
      List.iter
        (fun (m, v) ->
          Printf.printf "%-16s %-36s %16s %s\n" name m
            (Json.to_string (Json.member_exn "value" v))
            (Json.to_string_exn (Json.member_exn "unit" v)))
        ms
  | _ -> ()

let run args =
  let seed = int_opt "--seed" 1 args in
  let seconds = int_opt "--seconds" 10 args in
  let repeat = int_opt "--repeat" 1 args in
  let names = List.map (fun (n, _, _) -> n) W.all in
  let trace_dir = opt "--trace" args in
  Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) trace_dir;
  let ok = ref true in
  let spawn name extra =
    let argv =
      [ "--workload"; name; "--seed"; string_of_int seed; "--seconds";
        string_of_int seconds ]
      @ extra
    in
    match child argv with
    | Some (code, detail, result) ->
        if code <> 0 then ok := false;
        print_result name result;
        Some (detail, result)
    | None ->
        ok := false;
        Printf.printf "%-16s no result\n%!" name;
        None
  in
  let runs =
    List.concat_map
      (fun name ->
        List.filter_map
          (fun _ ->
            Option.map
              (fun (detail, result) ->
                Json.Obj
                  [ ("workload", Json.Str name); ("detail", detail); ("result", result) ])
              (spawn name [ "--trace"; "0" ]))
          (List.init repeat Fun.id))
      names
  in
  (* The per-layer probes are measured once, here, and each traced child
     writes only its own trace and self times. *)
  Option.iter
    (fun dir ->
      let metrics, problems =
        with_scratch (fun scratch ->
            probe_metrics { W.seed; seconds = float_of_int seconds; scratch; trace = true })
      in
      if problems <> [] then ok := false;
      let result =
        result_line ~attempted:1 ~failed:(List.length problems) metrics
      in
      print_result "layers" result;
      write_json dir "probes.json" result;
      List.iter
        (fun name ->
          ignore (spawn name [ "--trace"; "1"; "--trace-dir"; dir; "--probes"; "0" ]))
        names)
    trace_dir;
  (match opt "--json" args with
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [ ("schema", Json.Str "benchsuite-run/1");
                    ("seed", Json.Int seed);
                    ("seconds", Json.Int seconds);
                    ("runs", Json.List runs) ]));
          output_char oc '\n')
  | None -> ());
  exit (if !ok then 0 else 1)

(* --- compare ------------------------------------------------------------------- *)

let load file =
  match Json.of_string (In_channel.with_open_text file In_channel.input_all) with
  | Ok j -> j
  | Error e -> fail_usage "cannot parse %s: %s" file e
  | exception Sys_error e -> fail_usage "%s" e

(* workload -> metric -> samples, from a [run --json] file *)
let samples_of file =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let w = Json.to_string_exn (Json.member_exn "workload" r) in
      match Json.member "metrics" (Json.member_exn "result" r) with
      | Some (Json.Obj ms) ->
          List.iter
            (fun (m, v) ->
              let key = (w, m) in
              let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
              Hashtbl.replace tbl key (prev @ [ Json.to_float_exn (Json.member_exn "value" v) ]))
            ms
      | _ -> ())
    (Json.to_list_exn (Json.member_exn "runs" (load file)));
  tbl

(* A bound this small marks a deterministic count, compared exactly. *)
let exact_bound = 0.001

let compare_files files =
  let bench = load "BENCHMARK.json" in
  let metrics = Json.to_list_exn (Json.member_exn "end_to_end" bench) in
  let workloads =
    List.map
      (fun w -> Json.to_string_exn (Json.member_exn "name" w))
      (Json.to_list_exn (Json.member_exn "workloads" bench))
  in
  match files with
  | base :: (_ :: _ as cands) ->
      let b = samples_of base in
      let worse = ref false in
      List.iter
        (fun cand ->
          let c = samples_of cand in
          Printf.printf "%s -> %s\n" base cand;
          Printf.printf "%-15s %-17s %14s %14s %8s %7s %7s %6s  %s\n" "workload" "metric"
            "base median" "new median" "change" "spread" "spread" "bound" "verdict";
          List.iter
            (fun w ->
              List.iter
                (fun metric ->
                  let name = Json.to_string_exn (Json.member_exn "name" metric) in
                  let bound = Json.to_float_exn (Json.member_exn "bound" metric) in
                  let lower_better =
                    Json.to_string_exn (Json.member_exn "better" metric) = "lower"
                  in
                  match (Hashtbl.find_opt b (w, name), Hashtbl.find_opt c (w, name)) with
                  | Some xs, Some ys ->
                      let mb = Bench_stats.median xs and mc = Bench_stats.median ys in
                      let v =
                        Bench_stats.verdict ~lower_better ~bound
                          ~exact:(bound <= exact_bound) xs ys
                      in
                      if v = Bench_stats.Worse then worse := true;
                      Printf.printf "%-15s %-17s %14.6g %14.6g %+7.2f%% %6.1f%% %6.1f%% %5.1f%%  %s\n"
                        w name mb mc
                        (100. *. (mc -. mb) /. mb)
                        (100. *. Bench_stats.spread xs) (100. *. Bench_stats.spread ys)
                        (100. *. bound) (Bench_stats.verdict_name v)
                  | _ -> ())
                metrics)
            workloads)
        cands;
      exit (if !worse then 1 else 0)
  | _ -> fail_usage "compare needs a base file and at least one file to compare"

let () =
  Mips_jit.install ();
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run args
  | "compare" :: args -> compare_files args
  | args when opt "--workload" args <> None -> measure args
  | _ ->
      fail_usage
        "usage: suite.exe --workload W --seed N --seconds S --trace 0|1 | run ... | \
         compare BASE.json NEW.json ..."
