(* The one run executor behind `mipsc run`, `mipsc run --remote` and
   `mipsd run`: a local run equals the daemon's answer over generated
   descriptions, a source that does not compile is a typed error on every
   path, and a checkpoint resumes only under the description and fault
   plan that wrote it. *)

open Testutil
module Protocol = Mips_daemon.Protocol
module Executor = Mips_daemon.Executor
module Journal = Mips_daemon.Journal
module Snapshot = Mips_resilience.Snapshot
module Cpu = Mips_machine.Cpu
module Hosted = Mips_machine.Hosted
module Corpus = Mips_corpus.Corpus

let with_server = Test_daemon.with_server
let request = Test_daemon.request
let kind_of = Test_daemon.kind_of

let desc ?(cg = Protocol.default_codegen) ?(fuel = 500_000_000) ?(engine = "ref")
    (e : Corpus.entry) =
  { Protocol.source = e.Corpus.source; cg; input = e.Corpus.input; fuel; engine }

let local d =
  match Executor.run Executor.hooks d with
  | Ok o -> Executor.reply o
  | Error (Executor.Compile_error e) ->
      Alcotest.failf "compile error %s" (Executor.compile_error_to_string e)
  | Error (Executor.Resume_refused e) ->
      Alcotest.failf "resume refused: %s" (Snapshot.error_to_string e)

(* --- local equals remote ---------------------------------------------------- *)

(* One generated case gives every corpus program a description of its own:
   level, addressing, boolean strategy, engine, an explicit input or the
   program's own, and the default fuel or one that runs out. *)
let gen_case =
  let open QCheck.Gen in
  let one =
    map
      (fun (((level, byte), (early_out, engine)), (input, short)) ->
        ({ Protocol.byte; early_out; level }, engine, input, short))
      (pair
         (pair (pair (0 -- 3) bool) (pair bool (oneofl [ "ref"; "fast"; "jit" ])))
         (pair
            (opt ~ratio:0.5 (string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '\n'; 'x' ]) (0 -- 40)))
            (opt ~ratio:0.5 (1 -- 60_000))))
  in
  list_repeat (List.length Corpus.all) one

let print_case case =
  String.concat "; "
    (List.map2
       (fun (e : Corpus.entry) ((cg : Protocol.codegen), engine, input, short) ->
         Printf.sprintf "%s -O %d%s%s --engine %s%s%s" e.Corpus.name cg.level
           (if cg.byte then " --byte-addressed" else "")
           (if cg.early_out then " --early-out" else "")
           engine
           (match input with Some s -> Printf.sprintf " --input %S" s | None -> "")
           (match short with Some f -> Printf.sprintf " --fuel %d" f | None -> ""))
       Corpus.all case)

let prop_local_equals_server =
  QCheck.Test.make ~count:2 ~name:"local run equals the daemon's reply"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      with_server @@ fun socket _t ->
      List.for_all2
        (fun (e : Corpus.entry) (cg, engine, input, short) ->
          let d =
            { (desc ~cg ~engine e) with
              input = Option.value ~default:e.Corpus.input input;
              fuel = Option.value ~default:500_000_000 short }
          in
          match
            request socket (Protocol.run_request ~tenant:"t0" ~session:None d)
          with
          | Protocol.Ran r ->
              r = local d
              || QCheck.Test.fail_reportf "%s: the daemon's reply differs"
                   e.Corpus.name
          | resp -> QCheck.Test.fail_reportf "%s: %s" e.Corpus.name (kind_of resp))
        Corpus.all case)

(* --- compile errors --------------------------------------------------------- *)

let bad_sources =
  [ ("syntax", "program p;\nvar x : integer;\nbegin\n  x := ;\nend.\n", "4:8: ");
    ("semantic", "program p;\nvar x : integer;\nbegin\n  y := 1\nend.\n",
     "4:3: unknown variable y");
    ("lexical", "program p;\nbegin\n  # \nend.\n", "3:3: unexpected character") ]

let fib = Corpus.find "fib"

let test_compile_error_local () =
  List.iter
    (fun (what, source, at) ->
      match Executor.run Executor.hooks { (desc fib) with source } with
      | Error (Executor.Compile_error e) ->
          check (what ^ ": LINE:COL: message") true
            (String.starts_with ~prefix:at (Executor.compile_error_to_string e))
      | Ok _ | Error (Executor.Resume_refused _) ->
          Alcotest.failf "%s error: the source ran" what)
    bad_sources

let counter socket name =
  match request socket Protocol.Status with
  | Protocol.Status_r json -> (
      let j = Mips_obs.Json.of_string_exn json in
      match
        Option.bind (Mips_obs.Json.member "metrics" j) (Mips_obs.Json.member "counters")
        |> Option.map (Mips_obs.Json.member name)
      with
      | Some (Some (Mips_obs.Json.Int n)) -> n
      | _ -> 0)
  | resp -> Alcotest.failf "status: %s" (kind_of resp)

(* The daemon answers a run and a compile of a bad source with a typed
   Bad_request naming the position, replays it on a retry of the same
   request id, and counts no internal error.  Each answer is still a
   strike on the tenant's breaker, so every source bills tenants of its
   own. *)
let test_compile_error_daemon () =
  with_server @@ fun socket _t ->
  List.iteri
    (fun i (what, source, at) ->
      let expect label = function
        | Protocol.Err (Protocol.Bad_request, detail) ->
            check (what ^ ": " ^ label ^ " detail") true
              (String.starts_with ~prefix:("compile error: " ^ at) detail);
            check (what ^ ": " ^ label ^ " parses back") true
              (Executor.compile_error_of_detail detail <> None)
        | resp -> Alcotest.failf "%s: %s answered %s" what label (kind_of resp)
      in
      let tenant = Printf.sprintf "t%d" i in
      let run = Protocol.run_request ~tenant ~session:None { (desc fib) with source } in
      expect "run" (request socket run);
      expect "compile"
        (request socket
           (Protocol.Compile
              { tenant = tenant ^ "c"; source; cg = Protocol.default_codegen }));
      let tagged = Protocol.Tagged { id = Printf.sprintf "bad%d" i; req = run } in
      let hits = counter socket "daemon.replay.hits" in
      let first = request socket tagged in
      expect "tagged run" first;
      check (what ^ ": retry replays the answer") true (request socket tagged = first);
      check_int (what ^ ": one replay hit") (hits + 1)
        (counter socket "daemon.replay.hits"))
    bad_sources;
  check_int "no internal error counted" 0 (counter socket "daemon.rejects.internal")

let contains s sub = Re.execp (Re.compile (Re.str sub)) s

(* A parser message names a symbol by its spelling, never by the OCaml
   constructor: over every token the lexer makes of a source holding each
   symbol and keyword, and for the syntax error above, locally and through
   the daemon. *)
let test_parser_messages_spell_symbols () =
  let module Token = Mips_frontend.Token in
  let source =
    "x 1 'c' 'str' + - * = <> < <= > >= := ( ) [ ] , : ; . .. "
    ^ String.concat " " (List.map fst Token.keyword_table)
  in
  let tokens = List.map fst (Mips_frontend.Lexer.tokenize source) in
  check_int "every token kind lexed" (4 + 19 + List.length Token.keyword_table + 1)
    (List.length (List.sort_uniq compare tokens));
  List.iter
    (fun t ->
      let d = Token.describe t in
      if contains d "Token." then Alcotest.failf "token described as %s" d)
    tokens;
  let _, source, _ = List.hd bad_sources in
  let found = "found ';'" in
  (match Executor.run Executor.hooks { (desc fib) with source } with
  | Error (Executor.Compile_error e) ->
      let msg = Executor.compile_error_to_string e in
      if not (contains msg found) then Alcotest.failf "local: %s" msg
  | Ok _ | Error (Executor.Resume_refused _) -> Alcotest.fail "local: the source ran");
  with_server @@ fun socket _t ->
  match
    request socket
      (Protocol.run_request ~tenant:"t0" ~session:None { (desc fib) with source })
  with
  | Protocol.Err (Protocol.Bad_request, detail) ->
      if not (contains detail found) then Alcotest.failf "daemon: %s" detail
  | resp -> Alcotest.failf "daemon answered %s" (kind_of resp)

(* --- checkpoint meta --------------------------------------------------------- *)

let temp_file =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "executor-%d-%d-%s" (Unix.getpid ()) !n name)

let hanoi = Corpus.find "hanoi"
let every = 20_000

(* the first slice boundary's checkpoint of [d] under [fault] *)
let write_checkpoint ?fault d path =
  let written = ref false in
  let at _ ckpt =
    if not !written then begin
      Snapshot.write_file path (Lazy.force ckpt);
      written := true
    end
  in
  ignore (Executor.run { Executor.hooks with fault; slices = Some (every, at) } d);
  check "a checkpoint was written" true !written

let resume ?fault d path = Executor.run { Executor.hooks with fault; resume = Some path } d

let refused what = function
  | Error (Executor.Resume_refused (Snapshot.Corrupt _)) -> ()
  | Error (Executor.Resume_refused e) ->
      Alcotest.failf "%s: refused as %s, not Corrupt" what (Snapshot.error_to_string e)
  | Error (Executor.Compile_error _) -> Alcotest.failf "%s: compile error" what
  | Ok _ -> Alcotest.failf "%s: resumed" what

let test_meta_refuses_other_runs () =
  let d = desc hanoi in
  let fault = (5, 0.001) in
  let path = temp_file "run.ckpt" in
  write_checkpoint ~fault d path;
  (match resume ~fault d path with
  | Ok o ->
      let plain =
        match Executor.run { Executor.hooks with fault = Some fault } d with
        | Ok p -> p
        | Error _ -> Alcotest.fail "plain run failed"
      in
      check "resumed run equals the plain run" true
        (Executor.reply o = Executor.reply plain
        && Mips_obs.Json.to_string (Mips_machine.Stats.to_json o.Executor.stats)
           = Mips_obs.Json.to_string (Mips_machine.Stats.to_json plain.Executor.stats))
  | r -> refused "the same run" r);
  let cg = d.Protocol.cg in
  List.iter
    (fun (what, d', fault') -> refused what (resume ?fault:fault' d' path))
    [ ("source", { d with source = d.source ^ " " }, Some fault);
      ("byte", { d with cg = { cg with byte = true } }, Some fault);
      ("early-out", { d with cg = { cg with early_out = true } }, Some fault);
      ("level", { d with cg = { cg with level = 2 } }, Some fault);
      ("engine", { d with engine = "fast" }, Some fault);
      ("input", { d with input = "x" }, Some fault);
      ("fuel", { d with fuel = d.fuel - 1 }, Some fault);
      ("fault seed", d, Some (6, 0.001));
      ("fault rate", d, Some (5, 0.002));
      ("no fault plan", d, None) ];
  Sys.remove path

(* The meta mipsc wrote before run checkpoints were the executor's: a
   checkpoint carrying it is refused, never resumed. *)
let old_mipsc_meta (d : Protocol.desc) ~fault_seed ~fault_rate =
  let open Snapshot.Io.W in
  let b = create () in
  str b (Digest.string d.source);
  bool b d.cg.byte;
  bool b d.cg.early_out;
  int b d.cg.level;
  str b d.engine;
  str b (Digest.string d.input);
  int b d.fuel;
  opt int b fault_seed;
  float b fault_rate;
  contents b

(* the first slice boundary's checkpoint of [d] on the reference engine,
   written as a container of [kind] carrying [meta] *)
let write_old_checkpoint ~kind ~meta (d : Protocol.desc) path =
  Cpu.with_machine (fun cpu ->
      Cpu.load_program cpu (Mips_artifact.compiled d.source);
      let written = ref false in
      let save h =
        if not !written then begin
          Snapshot.write_file path (Snapshot.hosted_checkpoint ~kind ~meta cpu h);
          written := true
        end
      in
      ignore (Hosted.run ~fuel:d.fuel ~input:d.input ~checkpoint:(every, save) cpu))

let test_old_mipsc_checkpoint_refused () =
  let d = desc hanoi in
  List.iter
    (fun (what, fault_seed, fault) ->
      let path = temp_file "old.ckpt" in
      let meta = old_mipsc_meta d ~fault_seed ~fault_rate:0.001 in
      write_old_checkpoint ~kind:"run" ~meta d path;
      refused what (resume ?fault d path);
      Sys.remove path)
    [ ("old checkpoint", None, None);
      ("old faulted checkpoint", Some 3, Some (3, 0.001)) ]

(* A session checkpoint the daemon wrote before (kind "mipsd-run", the
   request's digest as meta) is not resumed: the restarted daemon re-runs
   the session from its journalled request, to the same reply. *)
let test_old_daemon_checkpoint_reruns () =
  let dir = Test_daemon.temp_dir () in
  let d = desc hanoi in
  let req = Protocol.run_request ~tenant:"t0" ~session:(Some "old") d in
  Journal.write_meta (Journal.path dir "old" Journal.Meta) req;
  write_old_checkpoint ~kind:"mipsd-run"
    ~meta:(Digest.string (Protocol.encode_request req))
    d (Journal.path dir "old" Journal.Ckpt);
  with_server ~state_dir:dir ~checkpoint_every:every @@ fun socket _t ->
  match request socket (Protocol.Collect { tenant = "t0"; session = "old" }) with
  | Protocol.Ran r -> check "recovered reply equals a plain run" true (r = local d)
  | resp -> Alcotest.failf "collect: %s" (kind_of resp)

let suite =
  [ ( "daemon.executor",
      [ tc "compile errors are typed" test_compile_error_local;
        tc "parser messages spell symbols" test_parser_messages_spell_symbols;
        tc_slow "the daemon answers a compile error as a bad request"
          test_compile_error_daemon;
        tc "checkpoint meta refuses every other description"
          test_meta_refuses_other_runs;
        tc "an old-format mipsc checkpoint is refused"
          test_old_mipsc_checkpoint_refused;
        tc_slow "an old-format daemon checkpoint re-runs to the same reply"
          test_old_daemon_checkpoint_reruns ]
      @ qsuite [ prop_local_equals_server ] ) ]
