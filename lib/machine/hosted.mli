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

(** {2 Monitor calls}

    This module alone serves the monitor-call ABI ({!Monitor}), for hosted
    runs and for the machine-resident kernel alike. *)

type io = { input : string; mutable in_pos : int; out : Buffer.t }
(** One program's monitor-call I/O: [getchar] reads [input] from [in_pos]
    on, the writing calls append to [out]. *)

type served = Resume | Yield | Exit of int | Unknown
(** The caller's next move: return from the exception, give up the
    processor, end the program with a status, or treat the code as no
    monitor call. *)

val serve : io -> read_word:(int -> int) -> Cpu.t -> int -> served
(** [serve io ~read_word cpu code] serves monitor call [code], its
    arguments in [cpu]'s scratch registers.  [putstr] reads its packed
    string through [read_word], one call per character, in order.  If
    [read_word] raises, the exception escapes and [out] keeps no character
    of the call. *)

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
  ?engine:Cpu.engine ->
  ?resume:host_state ->
  ?checkpoint:int * (host_state -> unit) ->
  Cpu.t ->
  result
(** Run the loaded program to completion.  Monitor calls are served from
    [input] (for [getchar]) and into the result's [output].  Injected
    transient memory faults are retried (counted in [retries]); interrupts
    are acknowledged and resumed.  Other non-trap exceptions end the run
    and are reported in [fault].  A [putstr] whose string runs outside data
    memory ends the run with [fault = Some (Illegal, 1)], as an
    out-of-range data reference does, and writes none of its characters.
    [engine] selects the execution engine (default {!Cpu.Ref}); {!Cpu.Fast}
    must be observationally identical.
    A run that ends out of fuel, not halted, sets
    {!Stats.t.fuel_exhausted}.

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
(** Borrow this Domain's machine for [config] ({!Cpu.with_machine}), load
    the image, and {!run} it in kernel mode with mapping off. *)

val run_program_on :
  ?fuel:int -> ?input:string -> ?engine:Cpu.engine -> Cpu.t -> Program.t -> result
(** Load the image into an existing machine (so the caller can inspect
    statistics afterwards) and {!run} it. *)
