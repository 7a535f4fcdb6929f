open Mips_isa

let eof_char = 255

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

(* Read [len] characters of a packed byte array starting at word [addr]. *)
let read_packed_string cpu ~addr ~len =
  let buf = Buffer.create len in
  for i = 0 to len - 1 do
    let w = Cpu.read_data cpu (addr + (i / 4)) in
    Buffer.add_char buf (Char.chr (Word32.get_byte w (i mod 4)))
  done;
  Buffer.contents buf

let run ?fuel ?(input = "") ?(on_unhandled = `Abort) ?(engine = Cpu.Ref)
    ?resume ?checkpoint cpu =
  let out = Buffer.create 256 in
  let exit_status = ref None in
  let fault = ref None in
  let retries = ref 0 in
  let in_pos = ref 0 in
  (match resume with
  | Some h ->
      Buffer.add_string out h.h_output;
      in_pos := h.h_in_pos;
      retries := h.h_retries
  | None -> ());
  let arg0 () = Cpu.get_reg cpu Reg.scratch0 in
  let arg1 () = Cpu.get_reg cpu Reg.scratch1 in
  let handler c cause =
    match cause with
    | Cause.Trap -> (
        let code = (Cpu.surprise c).Surprise.cause_detail in
        if code = Monitor.exit_ then begin
          exit_status := Some (arg0 ());
          `Halt
        end
        else if code = Monitor.putchar then begin
          Buffer.add_char out (Char.chr (arg0 () land 0xFF));
          `Resume
        end
        else if code = Monitor.putint then begin
          Buffer.add_string out (string_of_int (arg0 ()));
          `Resume
        end
        else if code = Monitor.getchar then begin
          let v =
            if !in_pos < String.length input then begin
              let ch = Char.code input.[!in_pos] in
              incr in_pos;
              ch
            end
            else eof_char  (* end-of-input marker, the same value through a word
                         or byte-sized character variable *)
          in
          Cpu.set_reg c Reg.result v;
          `Resume
        end
        else if code = Monitor.yield then `Resume
        else if code = Monitor.putstr then begin
          Buffer.add_string out (read_packed_string c ~addr:(arg0 ()) ~len:(arg1 ()));
          `Resume
        end
        else begin
          fault := Some (Cause.Trap, code);
          `Halt
        end)
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
    | other -> (
        match on_unhandled with
        | `Abort ->
            fault := Some (other, (Cpu.surprise c).Surprise.cause_detail);
            `Halt
        | `Ignore ->
            (* skip the faulting instruction: resume at its successor *)
            Cpu.set_epc c 0 (Cpu.epc c 1);
            Cpu.set_epc c 1 (Cpu.epc c 2);
            Cpu.set_epc c 2 (Cpu.epc c 2 + 1);
            `Resume)
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
                h_output = Buffer.contents out;
                h_in_pos = !in_pos;
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
    output = Buffer.contents out;
    fault = !fault;
    retries = !retries;
  }

let run_program_on ?fuel ?input ?engine cpu program =
  Cpu.load_program cpu program;
  run ?fuel ?input ?engine cpu

let run_program ?fuel ?input ?config ?engine program =
  Cpu.with_machine ?config (fun cpu ->
      run_program_on ?fuel ?input ?engine cpu program)
