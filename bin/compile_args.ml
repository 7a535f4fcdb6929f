(* Command-line arguments shared by mipsc and mipsd: the program to
   compile (a file or a corpus name), its input, the code-generation
   options, the execution engine and the fuel, and the run description
   they make. *)

open Cmdliner

(* [prog] names the executable in the error message. *)
let read_source ~prog path =
  if Sys.file_exists path then
    In_channel.with_open_text path In_channel.input_all
  else
    match Mips_corpus.Corpus.find path with
    | e -> e.Mips_corpus.Corpus.source
    | exception Not_found ->
        Printf.eprintf "%s: no such file or corpus program: %s\n" prog path;
        exit Exit_code.usage

let file_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Source file or corpus program name.")

let byte_flag =
  Arg.(
    value & flag
    & info [ "byte-addressed" ]
        ~doc:"Target the byte-addressed comparison machine.")

let early_flag =
  Arg.(
    value & flag
    & info [ "early-out" ]
        ~doc:"Early-out boolean evaluation instead of set-conditionally.")

let level_flag =
  Arg.(
    value & opt int 3
    & info [ "O" ] ~docv:"N"
        ~doc:"Postpass level 0-3 (none/reorganize/pack/branch-delay).")

let input_flag =
  Arg.(
    value & opt string ""
    & info [ "input" ] ~docv:"TEXT"
        ~doc:"Input stream for the getchar monitor call.")

(* An empty --input means the corpus entry's own input, if [file] names one. *)
let input_for file = function
  | "" -> (
      match Mips_corpus.Corpus.find file with
      | e -> e.Mips_corpus.Corpus.input
      | exception Not_found -> "")
  | input -> input

let engine_flag =
  let module Cpu = Mips_machine.Cpu in
  let parse s =
    match Cpu.engine_of_string s with
    | Some e -> Ok e
    | None ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected ref, fast or jit" s))
  in
  let print ppf e = Format.pp_print_string ppf (Cpu.engine_name e) in
  Arg.(
    value
    & opt (conv ~docv:"ENGINE" (parse, print)) Cpu.Ref
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,ref) (the reference interpreter, default), \
           $(b,fast) (the predecoded closure engine — bit-identical results, \
           including statistics) or $(b,jit) (the trace compiler: hot basic \
           blocks become fused closures — bit-identical results, fastest \
           steady state).")

let fuel_flag =
  Arg.(
    value
    & opt int 500_000_000
    & info [ "fuel" ] ~docv:"STEPS"
        ~doc:
          "Maximum machine steps to execute; the run exits with the \
           out-of-fuel status when the budget is exhausted.  A daemon \
           clamps it to the tenant's quota.")

(* The one place a run's description is made from the flags, for
   `mipsc run` (local or --remote) and `mipsd run`: the term yields a
   thunk, so the source is read only once every flag has parsed. *)
let run_term ~prog =
  let describe file byte early_out level input engine fuel () =
    ( file,
      {
        Mips_daemon.Protocol.source = read_source ~prog file;
        cg = { Mips_daemon.Protocol.byte; early_out; level };
        input = input_for file input;
        fuel;
        engine = Mips_machine.Cpu.engine_name engine;
      } )
  in
  Term.(
    const describe $ file_arg $ byte_flag $ early_flag $ level_flag
    $ input_flag $ engine_flag $ fuel_flag)

(* A source that does not compile: FILE:LINE:COL: message, exit 2.
   [at] is the error's "LINE:COL: message". *)
let does_not_compile file at =
  Printf.eprintf "%s:%s\n" file at;
  exit Exit_code.usage

(* Run a front-end pass over [file]'s source, exiting as above on a
   compile error. *)
let compiling file f =
  match Mips_daemon.Executor.compiling f with
  | Ok v -> v
  | Error e ->
      does_not_compile file (Mips_daemon.Executor.compile_error_to_string e)
