open Mips_ir

let to_asm_checked ?(config = Config.default) tast =
  Emit.emit_program config (Irgen.lower config tast)

let to_asm ?config src = to_asm_checked ?config (Mips_frontend.Semant.check_string src)

let compile ?config ?level src =
  Mips_reorg.Pipeline.compile ?level (to_asm ?config src)

let compile_profiled ?(config = Config.default) ?level ~obs src =
  let timed name f = Mips_obs.Metrics.time obs name f in
  let tast =
    timed "compile.frontend" (fun () -> Mips_frontend.Semant.check_string src)
  in
  let asm = timed "compile.codegen" (fun () -> to_asm_checked ~config tast) in
  let program, _ = Mips_reorg.Pipeline.compile_with_stats ~obs ?level asm in
  program

let machine_config (cfg : Config.t) =
  match cfg.Config.target with
  | Config.Word_addressed -> Mips_machine.Cpu.default_config
  | Config.Byte_addressed -> Mips_machine.Cpu.byte_addressed_config

let run_with_machine ?(config = Config.default) ?level ?fuel ?input ?trace
    ?engine src =
  let program = compile ~config ?level src in
  let cpu = Mips_machine.Cpu.create ~config:(machine_config config) () in
  (match trace with
  | Some sink -> Mips_machine.Cpu.set_trace cpu sink
  | None -> ());
  let res = Mips_machine.Hosted.run_program_on ?fuel ?input ?engine cpu program in
  (res, cpu)

let run ?config ?level ?fuel ?input src =
  fst (run_with_machine ?config ?level ?fuel ?input src)
