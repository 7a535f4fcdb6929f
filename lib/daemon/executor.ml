module Cpu = Mips_machine.Cpu
module Hosted = Mips_machine.Hosted
module Plan = Mips_fault.Plan
module Snapshot = Mips_resilience.Snapshot
module Sink = Mips_obs.Sink
module Span = Mips_obs.Span

type compile_error = { line : int; col : int; msg : string }

let compile_error_to_string { line; col; msg } =
  Printf.sprintf "%d:%d: %s" line col msg

let detail_prefix = "compile error: "
let compile_error_detail e = detail_prefix ^ compile_error_to_string e

let compile_error_of_detail d =
  if String.starts_with ~prefix:detail_prefix d then
    let n = String.length detail_prefix in
    Some (String.sub d n (String.length d - n))
  else None

let compiling f =
  match f () with
  | v -> Ok v
  | exception
      ( Mips_frontend.Lexer.Error ({ line; col }, msg)
      | Mips_frontend.Parser.Error ({ line; col }, msg)
      | Mips_frontend.Semant.Error ({ line; col }, msg) ) ->
      Error { line; col; msg }

let config_of { Protocol.byte; early_out; level = _ } =
  Mips_ir.Config.of_flags ~byte ~early_out

let compile source cg =
  compiling (fun () ->
      Mips_artifact.compiled ~config:(config_of cg)
        ~level:(Mips_reorg.Pipeline.of_rank cg.Protocol.level)
        source)

type hooks = {
  trace : Sink.t;
  fault : (int * float) option;
  lane : Span.t;
  resume : string option;
  slices : (int * (Hosted.host_state -> string Lazy.t -> unit)) option;
}

let hooks = { trace = Sink.null; fault = None; lane = Span.null; resume = None; slices = None }

type outcome = { result : Hosted.result; stats : Mips_machine.Stats.t; injected : int }
type error = Compile_error of compile_error | Resume_refused of Snapshot.error

let checkpoint_kind = "run"

(* Everything the run depends on; a checkpoint written under any other
   meta is refused as Corrupt. *)
let meta d fault =
  let open Snapshot.Io.W in
  let b = create () in
  str b (Digest.string (Protocol.encode_desc d));
  opt (fun b (seed, rate) -> int b seed; float b rate) b fault;
  contents b

let plan (seed, rate) =
  Plan.make { Plan.quiet with Plan.seed; flaky_rate = rate; irq_rate = rate /. 2. }

let run h (d : Protocol.desc) =
  match Span.with_ h.lane "compile" (fun () -> compile d.source d.cg) with
  | Error e -> Error (Compile_error e)
  | Ok program -> (
      let engine = Option.value ~default:Cpu.Ref (Cpu.engine_of_string d.engine) in
      Cpu.with_machine ~config:(Mips_codegen.Compile.machine_config (config_of d.cg))
      @@ fun cpu ->
      if Sink.enabled h.trace then Cpu.set_trace cpu h.trace;
      Option.iter (fun f -> Cpu.set_fault_plan cpu (plan f)) h.fault;
      Cpu.load_program cpu program;
      let meta = meta d h.fault in
      let restore path =
        Snapshot.restore_hosted ~kind:checkpoint_kind ~meta cpu path
        |> Result.map (fun (s : Hosted.host_state) ->
               if Sink.enabled h.trace then
                 Sink.emit h.trace
                   (Mips_obs.Event.Checkpoint_restore
                      { path; phase = "run"; steps = d.fuel - s.h_fuel_left });
               s)
      in
      match Option.map restore h.resume with
      | Some (Error e) -> Error (Resume_refused e)
      | restored ->
          let resume = Option.map Result.get_ok restored in
          let fuel = match resume with Some s -> s.h_fuel_left | None -> d.fuel in
          let checkpoint =
            Option.map
              (fun (every, at) ->
                ( every,
                  fun s ->
                    at s
                      (lazy (Snapshot.hosted_checkpoint ~kind:checkpoint_kind ~meta cpu s))
                ))
              h.slices
          in
          let result =
            Span.with_ h.lane "simulate" (fun () ->
                Hosted.run ~fuel ~input:d.input ~engine ?resume ?checkpoint cpu)
          in
          Ok
            { result; stats = Cpu.stats cpu;
              injected = Plan.injected (Cpu.fault_plan cpu) })

let reply { result = { Hosted.output; exit_status; halted; fault; retries }; stats; _ } =
  let fault =
    Option.map (fun (c, d) -> Printf.sprintf "%s (%d)" (Mips_machine.Cause.name c) d) fault
  in
  { Protocol.output; exit_status; halted; fault; cycles = stats.cycles; retries }
