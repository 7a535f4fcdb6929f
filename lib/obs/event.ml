type delay_slot_kind = [ `Filled | `Squashed | `Nop ]

type stall_reason =
  | Load_use of { producer_pc : int; producer : string }
  | Branch_latency of { slots : int }

type t =
  | Fetch of { pc : int }
  | Issue of { pc : int; word : string; pieces : int }
  | Stall of { pc : int; word : string; cycles : int; reason : stall_reason }
  | Branch_taken of { pc : int; target : int }
  | Delay_slot of { pc : int; kind : delay_slot_kind }
  | Mem_ref of {
      pc : int;
      addr : int;
      load : bool;
      byte : bool;
      char_data : bool;
    }
  | Exception_dispatch of { pc : int; cause : string; code : int; detail : int }
  | Monitor_call of { code : int; name : string }
  | Spawn of { pid : int; name : string }
  | Context_switch of { from_pid : int option; to_pid : int option }
  | Page_fault of { pid : int; ispace : bool; gaddr : int }
  | Proc_exit of { pid : int; name : string; status : int }
  | Proc_killed of { pid : int; name : string; cause : string; detail : int }
  | Pass of { name : string; seconds : float }
  | Fault_injected of { cycle : int; kind : string; target : int }
  | Retry of { pid : int; attempt : int }
  | Watchdog_kill of { pid : int; name : string; cycles : int }
  | Double_fault of { pid : int; name : string; first : string; second : string }
  | Job_retry of { label : string; attempt : int; backoff_s : float }
  | Job_quarantined of { label : string; attempts : int; error : string }
  | Circuit_open of { failures : int }
  | Checkpoint_write of { path : string; phase : string; steps : int; bytes : int }
  | Checkpoint_restore of { path : string; phase : string; steps : int }

let equal (a : t) (b : t) = a = b

let kind_name = function
  | Fetch _ -> "fetch"
  | Issue _ -> "issue"
  | Stall _ -> "stall"
  | Branch_taken _ -> "branch_taken"
  | Delay_slot _ -> "delay_slot"
  | Mem_ref _ -> "mem_ref"
  | Exception_dispatch _ -> "exception_dispatch"
  | Monitor_call _ -> "monitor_call"
  | Spawn _ -> "spawn"
  | Context_switch _ -> "context_switch"
  | Page_fault _ -> "page_fault"
  | Proc_exit _ -> "proc_exit"
  | Proc_killed _ -> "proc_killed"
  | Pass _ -> "pass"
  | Fault_injected _ -> "fault_injected"
  | Retry _ -> "retry"
  | Watchdog_kill _ -> "watchdog_kill"
  | Double_fault _ -> "double_fault"
  | Job_retry _ -> "job_retry"
  | Job_quarantined _ -> "job_quarantined"
  | Circuit_open _ -> "circuit_open"
  | Checkpoint_write _ -> "checkpoint_write"
  | Checkpoint_restore _ -> "checkpoint_restore"

let delay_slot_name = function
  | `Filled -> "filled"
  | `Squashed -> "squashed"
  | `Nop -> "nop"

(* --- human-readable formatting ------------------------------------------- *)

let pp ppf e =
  match e with
  | Fetch { pc } -> Format.fprintf ppf "%08d  fetch" pc
  | Issue { pc; word; pieces } ->
      Format.fprintf ppf "%08d  issue  %s%s" pc word
        (if pieces > 1 then "  [packed]" else "")
  | Stall { pc; word; cycles; reason } -> (
      match reason with
      | Load_use { producer_pc; producer } ->
          Format.fprintf ppf
            "%08d  stall  %d cycle%s (load-use: %s @%d feeds %s)" pc cycles
            (if cycles = 1 then "" else "s")
            producer producer_pc word
      | Branch_latency { slots } ->
          Format.fprintf ppf "%08d  stall  %d cycle%s (branch latency, %d slot%s)"
            pc cycles
            (if cycles = 1 then "" else "s")
            slots
            (if slots = 1 then "" else "s"))
  | Branch_taken { pc; target } ->
      Format.fprintf ppf "%08d  branch-taken -> %d" pc target
  | Delay_slot { pc; kind } ->
      Format.fprintf ppf "%08d  delay-slot (%s)" pc (delay_slot_name kind)
  | Mem_ref { pc; addr; load; byte; char_data } ->
      Format.fprintf ppf "%08d  %s  @%d (%s%s)" pc
        (if load then "load " else "store")
        addr
        (if byte then "byte" else "word")
        (if char_data then ", char" else "")
  | Exception_dispatch { pc; cause; code; detail } ->
      Format.fprintf ppf "%08d  exception  %s (code %d, detail %d)" pc cause
        code detail
  | Monitor_call { code; name } ->
      Format.fprintf ppf "          monitor-call  %s (code %d)" name code
  | Spawn { pid; name } -> Format.fprintf ppf "          spawn  pid %d (%s)" pid name
  | Context_switch { from_pid; to_pid } ->
      let p = function None -> "-" | Some pid -> string_of_int pid in
      Format.fprintf ppf "          context-switch  %s -> %s" (p from_pid)
        (p to_pid)
  | Page_fault { pid; ispace; gaddr } ->
      Format.fprintf ppf "          page-fault  pid %d %s @%d" pid
        (if ispace then "I" else "D")
        gaddr
  | Proc_exit { pid; name; status } ->
      Format.fprintf ppf "          exit  pid %d (%s) status %d" pid name status
  | Proc_killed { pid; name; cause; detail } ->
      Format.fprintf ppf "          killed  pid %d (%s) %s (%d)" pid name cause
        detail
  | Pass { name; seconds } ->
      Format.fprintf ppf "          pass  %s  %.6fs" name seconds
  | Fault_injected { cycle; kind; target } ->
      Format.fprintf ppf "          fault-injected  %s (target %d) @cycle %d"
        kind target cycle
  | Retry { pid; attempt } ->
      Format.fprintf ppf "          retry  pid %d (attempt %d)" pid attempt
  | Watchdog_kill { pid; name; cycles } ->
      Format.fprintf ppf "          watchdog-kill  pid %d (%s) after %d cycles"
        pid name cycles
  | Double_fault { pid; name; first; second } ->
      Format.fprintf ppf "          double-fault  pid %d (%s) %s then %s" pid
        name first second
  | Job_retry { label; attempt; backoff_s } ->
      Format.fprintf ppf "          job-retry  %s (attempt %d, backoff %.3fs)"
        label attempt backoff_s
  | Job_quarantined { label; attempts; error } ->
      Format.fprintf ppf "          job-quarantined  %s after %d attempts: %s"
        label attempts error
  | Circuit_open { failures } ->
      Format.fprintf ppf
        "          circuit-open  %d failure%s; degrading to serial" failures
        (if failures = 1 then "" else "s")
  | Checkpoint_write { path; phase; steps; bytes } ->
      Format.fprintf ppf "          checkpoint-write  %s (%s, %d steps, %d bytes)"
        path phase steps bytes
  | Checkpoint_restore { path; phase; steps } ->
      Format.fprintf ppf "          checkpoint-restore  %s (%s, %d steps)" path
        phase steps

let to_text e = Format.asprintf "%a" pp e

(* --- JSON ----------------------------------------------------------------- *)

let opt_pid = function None -> Json.Null | Some pid -> Json.Int pid

let to_json e =
  let ev fields = Json.Obj (("ev", Json.Str (kind_name e)) :: fields) in
  match e with
  | Fetch { pc } -> ev [ ("pc", Json.Int pc) ]
  | Issue { pc; word; pieces } ->
      ev [ ("pc", Json.Int pc); ("word", Json.Str word); ("pieces", Json.Int pieces) ]
  | Stall { pc; word; cycles; reason } ->
      let reason_fields =
        match reason with
        | Load_use { producer_pc; producer } ->
            [ ("reason", Json.Str "load_use");
              ("producer_pc", Json.Int producer_pc);
              ("producer", Json.Str producer) ]
        | Branch_latency { slots } ->
            [ ("reason", Json.Str "branch_latency"); ("slots", Json.Int slots) ]
      in
      ev
        ([ ("pc", Json.Int pc); ("word", Json.Str word); ("cycles", Json.Int cycles) ]
        @ reason_fields)
  | Branch_taken { pc; target } ->
      ev [ ("pc", Json.Int pc); ("target", Json.Int target) ]
  | Delay_slot { pc; kind } ->
      ev [ ("pc", Json.Int pc); ("kind", Json.Str (delay_slot_name kind)) ]
  | Mem_ref { pc; addr; load; byte; char_data } ->
      ev
        [ ("pc", Json.Int pc);
          ("addr", Json.Int addr);
          ("load", Json.Bool load);
          ("byte", Json.Bool byte);
          ("char", Json.Bool char_data) ]
  | Exception_dispatch { pc; cause; code; detail } ->
      ev
        [ ("pc", Json.Int pc);
          ("cause", Json.Str cause);
          ("code", Json.Int code);
          ("detail", Json.Int detail) ]
  | Monitor_call { code; name } ->
      ev [ ("code", Json.Int code); ("name", Json.Str name) ]
  | Spawn { pid; name } -> ev [ ("pid", Json.Int pid); ("name", Json.Str name) ]
  | Context_switch { from_pid; to_pid } ->
      ev [ ("from", opt_pid from_pid); ("to", opt_pid to_pid) ]
  | Page_fault { pid; ispace; gaddr } ->
      ev
        [ ("pid", Json.Int pid);
          ("space", Json.Str (if ispace then "I" else "D"));
          ("gaddr", Json.Int gaddr) ]
  | Proc_exit { pid; name; status } ->
      ev
        [ ("pid", Json.Int pid);
          ("name", Json.Str name);
          ("status", Json.Int status) ]
  | Proc_killed { pid; name; cause; detail } ->
      ev
        [ ("pid", Json.Int pid);
          ("name", Json.Str name);
          ("cause", Json.Str cause);
          ("detail", Json.Int detail) ]
  | Pass { name; seconds } ->
      ev [ ("name", Json.Str name); ("seconds", Json.Float seconds) ]
  | Fault_injected { cycle; kind; target } ->
      ev
        [ ("cycle", Json.Int cycle);
          ("kind", Json.Str kind);
          ("target", Json.Int target) ]
  | Retry { pid; attempt } ->
      ev [ ("pid", Json.Int pid); ("attempt", Json.Int attempt) ]
  | Watchdog_kill { pid; name; cycles } ->
      ev
        [ ("pid", Json.Int pid);
          ("name", Json.Str name);
          ("cycles", Json.Int cycles) ]
  | Double_fault { pid; name; first; second } ->
      ev
        [ ("pid", Json.Int pid);
          ("name", Json.Str name);
          ("first", Json.Str first);
          ("second", Json.Str second) ]
  | Job_retry { label; attempt; backoff_s } ->
      ev
        [ ("label", Json.Str label);
          ("attempt", Json.Int attempt);
          ("backoff_s", Json.Float backoff_s) ]
  | Job_quarantined { label; attempts; error } ->
      ev
        [ ("label", Json.Str label);
          ("attempts", Json.Int attempts);
          ("error", Json.Str error) ]
  | Circuit_open { failures } -> ev [ ("failures", Json.Int failures) ]
  | Checkpoint_write { path; phase; steps; bytes } ->
      ev
        [ ("path", Json.Str path);
          ("phase", Json.Str phase);
          ("steps", Json.Int steps);
          ("bytes", Json.Int bytes) ]
  | Checkpoint_restore { path; phase; steps } ->
      ev
        [ ("path", Json.Str path);
          ("phase", Json.Str phase);
          ("steps", Json.Int steps) ]
