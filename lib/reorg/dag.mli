(** The machine-level dependency DAG over a basic block's pieces.

    "Read in a basic block and create a machine-level dag that represents
    the dependencies between individual instruction pieces."  Edges carry
    the pipeline latency the scheduler must respect:

    - 2 for a true dependence through a loaded register (the load-delay
      shadow: the consumer must sit at least two slots later);
    - 1 for every other true or output dependence (ALU results are
      bypassed, so the next slot is fine, but the same slot is not);
    - 0 for anti-dependences (parallel-read word semantics allow the reader
      and a later writer to share a slot — i.e. to be packed together).

    Memory references that might alias, and accesses to the same special
    register, get latency-1 edges.  [fixed] items are additionally chained
    to {e every} other item so they can never move relative to anything. *)

type t = {
  items : Asm.item array;
  lat : Bytes.t;  (** the latency matrix {!edge} reads, one byte a pair *)
  npreds : int array;  (** per node: how many predecessors it has *)
  priority : int array;
      (** critical-path length to the block's end, used as the scheduling
          heuristic's tie-breaker *)
}

val build : Asm.item array -> t
(** Summarises each item once (register read/write masks, load flag,
    special-register accesses, memory piece), then runs {!latency}'s test
    on the summaries of every pair [i < j]: one pass over item pairs, with
    no set and no edge list built per pair. *)

val edge : t -> int -> int -> int
(** [edge t i j], for [i < j]: the latency of the edge from [i] to [j], or
    -1 when they are independent. *)

val latency : Asm.item -> Asm.item -> int option
(** [latency earlier later] for two pieces in program order: [None] when
    they are fully independent, [Some l] otherwise.  The same test
    {!build} runs, exposed for tests. *)
