(** The typed execution-event model.

    Every observable thing the reproduction does — a word issuing, an
    interlock stall, a branch committing, a kernel decision — is one
    constructor here.  The simulator, reorganizer and kernel construct
    events only when a sink is enabled, so the model can afford to be
    descriptive (records, rendered instruction text) without taxing the
    uninstrumented hot path.

    Machine-level causes travel as their rendered name (for example
    ["Page_fault"]) rather than as [Mips_machine.Cause.t]: this library
    sits {e below} the machine in the dependency order so that the machine,
    reorganizer and kernel can all emit into it. *)

type delay_slot_kind = [ `Filled | `Squashed | `Nop ]

type stall_reason =
  | Load_use of { producer_pc : int; producer : string }
      (** interlock mode: the previous word's load feeds this word *)
  | Branch_latency of { slots : int }
      (** interlock mode: a taken branch squashes its delay slots *)

type t =
  | Fetch of { pc : int }
  | Issue of { pc : int; word : string; pieces : int }
      (** one instruction word issued; [pieces > 1] means a packed word *)
  | Stall of { pc : int; word : string; cycles : int; reason : stall_reason }
  | Branch_taken of { pc : int; target : int }
  | Delay_slot of { pc : int; kind : delay_slot_kind }
      (** a word executing in a taken branch's shadow *)
  | Mem_ref of {
      pc : int;
      addr : int;  (** physical word address *)
      load : bool;
      byte : bool;
      char_data : bool;
    }
  | Exception_dispatch of { pc : int; cause : string; code : int; detail : int }
  | Monitor_call of { code : int; name : string }
  | Spawn of { pid : int; name : string }
  | Context_switch of { from_pid : int option; to_pid : int option }
  | Page_fault of { pid : int; ispace : bool; gaddr : int }
      (** a fault the kernel serviced (demand page-in) *)
  | Proc_exit of { pid : int; name : string; status : int }
  | Proc_killed of { pid : int; name : string; cause : string; detail : int }
  | Pass of { name : string; seconds : float }
      (** a compiler/reorganizer pass completed *)
  | Fault_injected of { cycle : int; kind : string; target : int }
      (** the fault plan injected a transient fault into the machine; [kind]
          is the plan's kind name ("reg_flip", "irq", ...) and [target] its
          primary payload (register index, word address, page pick) *)
  | Retry of { pid : int; attempt : int }
      (** the kernel restarted a process after a transient memory fault *)
  | Watchdog_kill of { pid : int; name : string; cycles : int }
      (** the kernel killed a process that exceeded its cycle budget *)
  | Double_fault of { pid : int; name : string; first : string; second : string }
      (** the kernel killed a process that kept faulting with no forward
          progress; [first]/[second] are the rendered cause names of the
          oldest and newest faults in the streak *)
  | Job_retry of { label : string; attempt : int; backoff_s : float }
      (** the supervisor re-ran a failed pool job; [backoff_s] is the
          simulated backoff delay charged (not slept) before the retry *)
  | Job_quarantined of { label : string; attempts : int; error : string }
      (** a job exhausted its retry budget and was poisoned — the pool keeps
          running without it; [error] is the rendered last exception *)
  | Circuit_open of { failures : int }
      (** a supervised map's breaker opened after [failures] consecutive
          quarantines: maps that start while it is open run serially *)
  | Checkpoint_write of { path : string; phase : string; steps : int; bytes : int }
      (** a durable snapshot was committed (atomic rename); [steps] is the
          phase-local progress mark it captures *)
  | Checkpoint_restore of { path : string; phase : string; steps : int }
      (** a run resumed from a snapshot at the given phase and progress *)

val equal : t -> t -> bool

val kind_name : t -> string
(** The discriminator used in the JSON encoding ("issue", "stall", ...). *)

val pp : Format.formatter -> t -> unit
(** One human-readable line per event (the [--trace-format=text] rendering). *)

val to_text : t -> string

val to_json : t -> Json.t
(** One-line JSON object with an ["ev"] discriminator — the JSONL encoding. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}; every constructor round-trips. *)

val samples : t list
(** At least one value of every constructor (both stall reasons, all three
    delay-slot kinds) — what the round-trip tests iterate over. *)
