(** One run of a program on the simulator, whichever front door starts
    it: [mipsc run], and the [mipsd] run jobs behind [mipsc run --remote]
    and [mipsd run].  The checkpoint meta is derived from the description
    and the fault plan alone, so a checkpoint resumes under the same
    arguments through any front door and is refused under any other. *)

type compile_error = { line : int; col : int; msg : string }
(** A lexical, syntax or semantic error at a source position. *)

val compile_error_to_string : compile_error -> string
(** ["LINE:COL: message"]. *)

val compile_error_detail : compile_error -> string
(** ["compile error: LINE:COL: message"]: the detail of the daemon's
    [Bad_request] answer to a source that does not compile. *)

val compile_error_of_detail : string -> string option
(** The ["LINE:COL: message"] of such a detail; [None] for any other. *)

val compiling : (unit -> 'a) -> ('a, compile_error) result
(** Run a front-end pass, its errors returned typed. *)

val compile :
  string -> Protocol.codegen -> (Mips_machine.Program.t, compile_error) result
(** The program image, through {!Mips_artifact.compiled}. *)

type hooks = {
  trace : Mips_obs.Sink.t;
  fault : (int * float) option;  (** transient faults: plan seed, rate *)
  lane : Mips_obs.Span.t;  (** gets the "compile" and "simulate" spans *)
  resume : string option;  (** a checkpoint file to continue from *)
  slices : (int * (Mips_machine.Hosted.host_state -> string Lazy.t -> unit)) option;
      (** [Some (every, at)] runs in slices of [every] steps and calls
          [at h ckpt] at each interior boundary with the hosted-loop state
          and the run's checkpoint there.  An exception [at] raises leaves
          {!run}. *)
}

val hooks : hooks
(** No trace, faults, spans or resume; one unsliced run. *)

val checkpoint_kind : string
(** The {!Mips_resilience.Snapshot} container kind of a run checkpoint. *)

type outcome = {
  result : Mips_machine.Hosted.result;
  stats : Mips_machine.Stats.t;
  injected : int;  (** faults the machine's plan injected *)
}

type error =
  | Compile_error of compile_error
  | Resume_refused of Mips_resilience.Snapshot.error
      (** unreadable, or written under another description or fault plan
          ([Corrupt]) *)

val run : hooks -> Protocol.desc -> (outcome, error) result
(** Compile, borrow the Domain's pooled machine, restore, run.  An unknown
    engine name runs on the reference engine ({!Server} refuses one). *)

val reply : outcome -> Protocol.run_reply
(** The outcome as the daemon answers it and both CLIs print it. *)
