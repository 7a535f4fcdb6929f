(* Reading traces back: the inverse of [Mips_obs.Event.to_json], and at
   least one value of every event constructor (both stall reasons, all
   three delay-slot kinds) for the round-trip tests to iterate over. *)

open Mips_obs
open Event

let delay_slot_of_name = function
  | "filled" -> Ok `Filled
  | "squashed" -> Ok `Squashed
  | "nop" -> Ok `Nop
  | s -> Error ("unknown delay-slot kind " ^ s)

let of_json j =
  let ( let* ) = Result.bind in
  let str k =
    match Json.member k j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error ("missing string field " ^ k)
  in
  let int k =
    match Json.member k j with
    | Some (Json.Int n) -> Ok n
    | _ -> Error ("missing int field " ^ k)
  in
  let boolean k =
    match Json.member k j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error ("missing bool field " ^ k)
  in
  let float_ k =
    match Json.member k j with
    | Some (Json.Float f) -> Ok f
    | Some (Json.Int n) -> Ok (float_of_int n)
    | _ -> Error ("missing float field " ^ k)
  in
  let pid_opt k =
    match Json.member k j with
    | Some Json.Null -> Ok None
    | Some (Json.Int n) -> Ok (Some n)
    | _ -> Error ("missing pid field " ^ k)
  in
  let* kind = str "ev" in
  match kind with
  | "fetch" ->
      let* pc = int "pc" in
      Ok (Fetch { pc })
  | "issue" ->
      let* pc = int "pc" in
      let* word = str "word" in
      let* pieces = int "pieces" in
      Ok (Issue { pc; word; pieces })
  | "stall" ->
      let* pc = int "pc" in
      let* word = str "word" in
      let* cycles = int "cycles" in
      let* reason_name = str "reason" in
      let* reason =
        match reason_name with
        | "load_use" ->
            let* producer_pc = int "producer_pc" in
            let* producer = str "producer" in
            Ok (Load_use { producer_pc; producer })
        | "branch_latency" ->
            let* slots = int "slots" in
            Ok (Branch_latency { slots })
        | s -> Error ("unknown stall reason " ^ s)
      in
      Ok (Stall { pc; word; cycles; reason })
  | "branch_taken" ->
      let* pc = int "pc" in
      let* target = int "target" in
      Ok (Branch_taken { pc; target })
  | "delay_slot" ->
      let* pc = int "pc" in
      let* kind_name = str "kind" in
      let* kind = delay_slot_of_name kind_name in
      Ok (Delay_slot { pc; kind })
  | "mem_ref" ->
      let* pc = int "pc" in
      let* addr = int "addr" in
      let* load = boolean "load" in
      let* byte = boolean "byte" in
      let* char_data = boolean "char" in
      Ok (Mem_ref { pc; addr; load; byte; char_data })
  | "exception_dispatch" ->
      let* pc = int "pc" in
      let* cause = str "cause" in
      let* code = int "code" in
      let* detail = int "detail" in
      Ok (Exception_dispatch { pc; cause; code; detail })
  | "monitor_call" ->
      let* code = int "code" in
      let* name = str "name" in
      Ok (Monitor_call { code; name })
  | "spawn" ->
      let* pid = int "pid" in
      let* name = str "name" in
      Ok (Spawn { pid; name })
  | "context_switch" ->
      let* from_pid = pid_opt "from" in
      let* to_pid = pid_opt "to" in
      Ok (Context_switch { from_pid; to_pid })
  | "page_fault" ->
      let* pid = int "pid" in
      let* space = str "space" in
      let* gaddr = int "gaddr" in
      Ok (Page_fault { pid; ispace = space = "I"; gaddr })
  | "proc_exit" ->
      let* pid = int "pid" in
      let* name = str "name" in
      let* status = int "status" in
      Ok (Proc_exit { pid; name; status })
  | "proc_killed" ->
      let* pid = int "pid" in
      let* name = str "name" in
      let* cause = str "cause" in
      let* detail = int "detail" in
      Ok (Proc_killed { pid; name; cause; detail })
  | "pass" ->
      let* name = str "name" in
      let* seconds = float_ "seconds" in
      Ok (Pass { name; seconds })
  | "fault_injected" ->
      let* cycle = int "cycle" in
      let* kind = str "kind" in
      let* target = int "target" in
      Ok (Fault_injected { cycle; kind; target })
  | "retry" ->
      let* pid = int "pid" in
      let* attempt = int "attempt" in
      Ok (Retry { pid; attempt })
  | "watchdog_kill" ->
      let* pid = int "pid" in
      let* name = str "name" in
      let* cycles = int "cycles" in
      Ok (Watchdog_kill { pid; name; cycles })
  | "double_fault" ->
      let* pid = int "pid" in
      let* name = str "name" in
      let* first = str "first" in
      let* second = str "second" in
      Ok (Double_fault { pid; name; first; second })
  | "job_retry" ->
      let* label = str "label" in
      let* attempt = int "attempt" in
      let* backoff_s = float_ "backoff_s" in
      Ok (Job_retry { label; attempt; backoff_s })
  | "job_quarantined" ->
      let* label = str "label" in
      let* attempts = int "attempts" in
      let* error = str "error" in
      Ok (Job_quarantined { label; attempts; error })
  | "circuit_open" ->
      let* failures = int "failures" in
      Ok (Circuit_open { failures })
  | "checkpoint_write" ->
      let* path = str "path" in
      let* phase = str "phase" in
      let* steps = int "steps" in
      let* bytes = int "bytes" in
      Ok (Checkpoint_write { path; phase; steps; bytes })
  | "checkpoint_restore" ->
      let* path = str "path" in
      let* phase = str "phase" in
      let* steps = int "steps" in
      Ok (Checkpoint_restore { path; phase; steps })
  | s -> Error ("unknown event kind " ^ s)

(* One of each constructor — the round-trip tests iterate over this, so a
   new constructor that is not added here still gets caught by the
   completeness check in the test (it compares lengths against kind_name's
   domain via samples). *)
let samples =
  [ Fetch { pc = 17 };
    Issue { pc = 17; word = "r3 := r1 + r2 ; store r4, 5(r6)"; pieces = 2 };
    Stall
      { pc = 18;
        word = "r5 := r3 + 1";
        cycles = 1;
        reason = Load_use { producer_pc = 17; producer = "r3 := load 0(r2)" } };
    Stall
      { pc = 19;
        word = "jump 40";
        cycles = 2;
        reason = Branch_latency { slots = 2 } };
    Branch_taken { pc = 19; target = 40 };
    Delay_slot { pc = 20; kind = `Filled };
    Delay_slot { pc = 21; kind = `Squashed };
    Delay_slot { pc = 22; kind = `Nop };
    Mem_ref { pc = 23; addr = 4096; load = true; byte = false; char_data = true };
    Exception_dispatch { pc = 24; cause = "Page_fault"; code = 3; detail = 0 };
    Monitor_call { code = 2; name = "putchar" };
    Spawn { pid = 1; name = "fib" };
    Context_switch { from_pid = Some 0; to_pid = Some 1 };
    Context_switch { from_pid = None; to_pid = Some 0 };
    Page_fault { pid = 1; ispace = true; gaddr = 65536 };
    Proc_exit { pid = 1; name = "fib"; status = 0 };
    Proc_killed { pid = 2; name = "wild"; cause = "Privilege"; detail = 1 };
    Pass { name = "reorg.schedule"; seconds = 0.015625 };
    Fault_injected { cycle = 120; kind = "reg_flip"; target = 5 };
    Retry { pid = 1; attempt = 2 };
    Watchdog_kill { pid = 3; name = "spin"; cycles = 50000 };
    Double_fault
      { pid = 2; name = "wild"; first = "Page_fault"; second = "Page_fault" };
    Job_retry { label = "sim:default:fib"; attempt = 2; backoff_s = 0.125 };
    Job_quarantined
      { label = "poison:demo"; attempts = 3; error = "Failure(\"injected\")" };
    Circuit_open { failures = 1 };
    Checkpoint_write
      { path = "soak.ckpt"; phase = "kernel"; steps = 100000; bytes = 65536 };
    Checkpoint_restore { path = "soak.ckpt"; phase = "diffs"; steps = 4 } ]
