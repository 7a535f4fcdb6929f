open Mips_isa

let eof_char = 255  (* see Monitor.getchar *)

type result = {
  halted : bool;
  exit_status : int option;
  output : string;
  fault : (Cause.t * int) option;
  retries : int;
}

(* The hosted loop's own state (everything outside the machine) — what a
   checkpoint must carry besides the Cpu snapshot. *)
type host_state = {
  h_output : string;
  h_in_pos : int;
  h_retries : int;
  h_fuel_left : int;
}

type io = { input : string; mutable in_pos : int; out : Buffer.t }

type served = Resume | Yield | Exit of int | Unknown

let serve io ~read_word cpu code =
  let arg0 = Cpu.get_reg cpu Reg.scratch0 in
  if code = Monitor.exit_ then Exit arg0
  else if code = Monitor.putchar then begin
    Buffer.add_char io.out (Char.chr (arg0 land 0xFF));
    Resume
  end
  else if code = Monitor.putint then begin
    Buffer.add_string io.out (string_of_int arg0);
    Resume
  end
  else if code = Monitor.getchar then begin
    let v =
      if io.in_pos < String.length io.input then begin
        let ch = Char.code io.input.[io.in_pos] in
        io.in_pos <- io.in_pos + 1;
        ch
      end
      else eof_char
    in
    Cpu.set_reg cpu Reg.result v;
    Resume
  end
  else if code = Monitor.putstr then begin
    (* one word read per character, in order; a reader that raises takes
       back every character of this call *)
    let mark = Buffer.length io.out in
    (try
       for i = 0 to Cpu.get_reg cpu Reg.scratch1 - 1 do
         let w = read_word (arg0 + (i / 4)) in
         Buffer.add_char io.out (Char.chr (Word32.get_byte w (i mod 4)))
       done
     with e ->
       Buffer.truncate io.out mark;
       raise e);
    Resume
  end
  else if code = Monitor.yield then Yield
  else Unknown

let run ?fuel ?(input = "") ?(engine = Cpu.Ref) ?resume ?checkpoint cpu =
  let io = { input; in_pos = 0; out = Buffer.create 256 } in
  let exit_status = ref None in
  let fault = ref None in
  let retries = ref 0 in
  (match resume with
  | Some h ->
      Buffer.add_string io.out h.h_output;
      io.in_pos <- h.h_in_pos;
      retries := h.h_retries
  | None -> ());
  (* a word outside data memory faults as a data reference there would *)
  let dmem_words = (Cpu.config cpu).Cpu.dmem_words in
  let read_word a =
    if a < 0 || a >= dmem_words then raise (Cpu.Fault (Cause.Illegal, 1));
    Cpu.read_data cpu a
  in
  let handler c cause =
    match cause with
    | Cause.Trap -> (
        let code = (Cpu.surprise c).Surprise.cause_detail in
        match serve io ~read_word c code with
        | Resume | Yield -> `Resume
        | Exit status ->
            exit_status := Some status;
            `Halt
        | Unknown ->
            fault := Some (Cause.Trap, code);
            `Halt
        | exception Cpu.Fault (cause, detail) ->
            fault := Some (cause, detail);
            `Halt)
    | Cause.Page_fault when Cpu.faulted c = Some Cpu.Transient_ref ->
        (* injected flaky-memory fault: the reference never happened, so a
           plain return-from-exception restarts the word and retries it *)
        incr retries;
        `Resume
    | Cause.Interrupt ->
        (* no device model in hosted mode: acknowledge (drop the line) and
           resume exactly where the machine was interrupted *)
        Cpu.set_interrupt c false;
        `Resume
    | other ->
        fault := Some (other, (Cpu.surprise c).Surprise.cause_detail);
        `Halt
  in
  let total = Option.value fuel ~default:10_000_000 in
  let halted =
    match checkpoint with
    | Some (every, save) when total > 0 ->
        Slice.run ~every ~total
          ~step:(fun n -> Cpu.run_engine ~fuel:n ~engine cpu handler > 0)
          ~boundary:(fun done_ ->
            save
              {
                h_output = Buffer.contents io.out;
                h_in_pos = io.in_pos;
                h_retries = !retries;
                h_fuel_left = total - done_;
              })
          ()
        = Slice.Finished
    | _ -> Cpu.run_engine ?fuel ~engine cpu handler > 0
  in
  if not halted then (Cpu.stats cpu).Stats.fuel_exhausted <- true;
  {
    halted;
    exit_status = !exit_status;
    output = Buffer.contents io.out;
    fault = !fault;
    retries = !retries;
  }

let run_program_on ?fuel ?input ?engine cpu program =
  Cpu.load_program cpu program;
  run ?fuel ?input ?engine cpu

let run_program ?fuel ?input ?config ?engine program =
  Cpu.with_machine ?config (fun cpu ->
      run_program_on ?fuel ?input ?engine cpu program)
