(** Tables 7 and 8 — dynamic data-reference patterns.

    The corpus is executed to completion on the simulator and every data
    reference is classified by the compiler's annotations: load vs store,
    byte-sized vs word-sized object, character vs other data.  Table 7 is
    the word-allocated world (the word-addressed MIPS: characters take full
    words unless packed); Table 8 is the byte-allocated world (the
    byte-addressed machine: all characters and booleans are bytes).

    Simulations are served from {!Mips_artifact} (one run per distinct
    program/config, shared with every other table) and fanned out over the
    {!Mips_par} worker pool; per-program statistics are folded with
    [Stats.merge] in corpus order, so the aggregate is independent of the
    pool size. *)

type pattern = {
  loads : int;
  stores : int;
  byte_loads : int;
  byte_stores : int;
  word_loads : int;
  word_stores : int;
  char_loads : int;
  char_stores : int;
  char_byte_loads : int;
  char_byte_stores : int;
  free_cycle_fraction : float;  (** Section 3.1's measurement, as a bonus *)
  cycles : int;
}

type failure = {
  program : string;  (** corpus entry name *)
  reason : string;  (** what went wrong: fault, fuel exhaustion, compile error *)
}
(** A program that could not contribute to the table.  Failures no longer
    abort the aggregation: the remaining rows stand, and the report says
    which entries diverged. *)

val heavy : Mips_corpus.Corpus.entry -> bool
(** True for the Table 11 benchmark trio (fib and the Puzzles), which the
    paper kept out of its reference-pattern corpus. *)

val run :
  ?jobs:int ->
  ?include_heavy:bool ->
  Mips_ir.Config.t ->
  Mips_corpus.Corpus.entry list ->
  pattern * failure list
(** Execute the programs under the given code-generation configuration and
    aggregate; entries that fault or exhaust fuel are reported as failures
    and excluded from the pattern.  [include_heavy] (default true)
    additionally includes the Table 11 trio — their boolean-array scans
    dominate the mix when let in.  [jobs] sizes the worker pool (default:
    the harness-wide {!Mips_par.default_jobs}). *)

val word_allocated :
  ?jobs:int -> ?include_heavy:bool -> unit -> pattern * failure list
(** Table 7: the reference corpus on the word-addressed machine
    ([include_heavy] defaults to false).  Memoized; the memo is safe to
    share across Domains. *)

val byte_allocated :
  ?jobs:int -> ?include_heavy:bool -> unit -> pattern * failure list
(** Table 8: the reference corpus on the byte-addressed machine.  Memoized. *)

val clear_memo : unit -> unit
(** Drop the memo table (the artifact cache underneath is separate — clear
    that through {!Mips_artifact.clear}).  For benchmarks that need a cold
    analysis layer. *)

val total : pattern -> int

val pct : pattern -> int -> float
(** Count as a percentage of all data references. *)

val frequencies : pattern -> float * float * float * float
(** (byte loads, byte stores, word loads, word stores) as fractions of all
    references — the inputs to Table 10. *)
