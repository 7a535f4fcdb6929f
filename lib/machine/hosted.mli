(** Hosted execution: run a program with monitor calls served by the host.

    This is the light-weight way to execute compiled programs — the
    exception dispatch is still fully architectural (surprise push, EPC
    save), but the handler is an OCaml function standing in for the kernel.
    The full machine-resident kernel lives in the OS library. *)

type result = {
  halted : bool;  (** false when the fuel ran out *)
  exit_status : int option;  (** Some s after an [exit] monitor call *)
  output : string;  (** everything written via putchar/putint/putstr *)
  fault : (Cause.t * int) option;
      (** set when execution was aborted by a non-trap exception
          (cause, cause-detail) *)
  retries : int;
      (** injected transient memory faults that were restarted through the
          dispatch path (always 0 without a fault plan) *)
}

val eof_char : int
(** Value returned by the [getchar] monitor call at end of input (255 —
    chosen so the marker survives both word- and byte-sized character
    variables). *)

type host_state = {
  h_output : string;  (** output accumulated so far *)
  h_in_pos : int;  (** input cursor *)
  h_retries : int;
  h_fuel_left : int;
}
(** The hosted loop's own state, everything a checkpoint must carry beyond
    the machine itself.  Captured at chunk boundaries (see [checkpoint]
    below) and fed back through [resume]. *)

val run :
  ?fuel:int ->
  ?input:string ->
  ?on_unhandled:[ `Abort | `Ignore ] ->
  ?engine:Cpu.engine ->
  ?resume:host_state ->
  ?checkpoint:int * (host_state -> unit) ->
  Cpu.t ->
  result
(** Run the loaded program to completion.  Monitor calls are served from
    [input] (for [getchar]) and into the result's [output].  Injected
    transient memory faults are retried (counted in [retries]); interrupts
    are acknowledged and resumed.  Other non-trap exceptions abort the run
    and are reported in [fault] (with [`Abort], the default) or resumed
    past (with [`Ignore], which skips the offending instruction — for
    fault-injection tests).  [engine] selects the execution engine
    (default {!Cpu.Ref}); {!Cpu.Fast} must be observationally identical.

    [checkpoint = (every, save)] runs in {!Slice}s of [every] steps and calls
    [save] at each interior boundary with the live host state — the caller
    snapshots the machine in the same callback.  The step sequence, final
    result and statistics (including [fuel_exhausted]) are identical to an
    unchunked run with the same total fuel.  [resume] rewinds the loop
    state to a captured boundary: the caller restores the machine, passes
    the saved [host_state], and gives [fuel = h_fuel_left]; the completed
    run is then bit-identical to one that was never interrupted. *)

val run_program :
  ?fuel:int ->
  ?input:string ->
  ?config:Cpu.config ->
  ?engine:Cpu.engine ->
  Program.t ->
  result
(** Create a machine, load the image, and {!run} it in kernel mode with
    mapping off. *)

val run_program_on :
  ?fuel:int -> ?input:string -> ?engine:Cpu.engine -> Cpu.t -> Program.t -> result
(** Load the image into an existing machine (so the caller can inspect
    statistics afterwards) and {!run} it. *)
