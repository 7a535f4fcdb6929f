(* Command-line arguments shared by mipsc and mipsd: the program to
   compile (a file or a corpus name), its input, and the code-generation
   options. *)

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
