(** Execution statistics.

    The simulator tallies everything the paper's evaluation needs:
    cycle counts (with interlock stalls when the hardware-interlock variant
    runs), the memory-bandwidth utilisation behind the free-memory-cycle
    claim of Section 3.1, and the data-reference patterns by access size and
    data kind behind Tables 7 and 8.

    Interlock-mode stalls are additionally attributed to the
    (producer, consumer) instruction pair that caused them — the raw
    material of [mipsc profile]'s "top stall-causing pairs" table. *)

type ref_class = {
  mutable loads : int;
  mutable stores : int;
}

type t = {
  mutable cycles : int;  (** instruction issue slots, including stalls *)
  mutable stall_cycles : int;  (** interlock-mode stalls only *)
  mutable load_use_stall_cycles : int;
      (** stalls where a load's consumer waited a cycle *)
  mutable branch_stall_cycles : int;
      (** stalls paid for squashed branch-delay slots *)
  mutable words : int;  (** instruction words executed *)
  mutable nops : int;  (** words that were pure no-ops *)
  mutable alu_pieces : int;
  mutable mem_pieces : int;
  mutable branch_pieces : int;
  mutable packed_words : int;  (** words carrying two pieces *)
  mutable branches_taken : int;
  mutable mem_busy_cycles : int;  (** words that made a data-memory reference *)
  mutable free_cycles : int;  (** words that left the data port idle *)
  weighted : float array;
      (** single-cell accumulator for cycles weighted by the byte-addressed
          fetch-overhead factor (equals [cycles] on the word-addressed
          machine); a flat float array so the per-cycle accumulation does not
          box — read it through {!weighted_cycles} *)
  mutable exceptions : (Cause.t * int) list;  (** per-cause counters *)
  mutable synthetic_refs : int;
      (** machine-artifact references (the extra read in a byte store's
          read-modify-write), excluded from the logical classes below *)
  mutable fuel_exhausted : bool;
      (** set by {!Cpu.run} when it stopped because the fuel budget ran out
          rather than because the handler halted the machine *)
  word_refs : ref_class;  (** word-sized, non-character references *)
  word_char_refs : ref_class;  (** word-sized references to character data *)
  byte_refs : ref_class;  (** byte-sized, non-character references *)
  byte_char_refs : ref_class;  (** byte-sized references to character data *)
  stall_pairs : (int * int, int) Hashtbl.t;
      (** (producer pc, consumer pc) -> load-use stalls charged to the pair *)
}

val create : unit -> t

val zero : unit -> t
(** The identity of {!merge}: a fresh, empty record. *)

val merge : t -> t -> t
(** Combine two statistics records into a fresh one, leaving both arguments
    untouched: integer and float fields add, [fuel_exhausted] ors, and the
    exception and stall-pair tables union their counts.  Associative, with
    {!zero} as identity, on every observable view — which is what lets
    per-program statistics computed on worker domains be folded in corpus
    order into the same totals a serial sweep produces. *)

val count_exception : t -> Cause.t -> unit
val exception_count : t -> Cause.t -> int

val record_stall_pair : t -> producer_pc:int -> consumer_pc:int -> unit
(** Charge one load-use stall cycle to an instruction pair. *)

val stall_pairs : t -> ((int * int) * int) list
(** ((producer pc, consumer pc), stalls), most stalls first. *)

val count_ref : t -> load:bool -> Mips_isa.Note.t -> unit
(** Classify one data reference by the compiler's annotation. *)

val charge : t -> Predecode.charge -> int -> weighted:bool -> unit
(** [charge t c n ~weighted] adds [n] executions of a word with charge [c]:
    [n] words and issue cycles, busy or free cycles, the piece counts and
    the classified references, and with [weighted] also [n] to the
    weighted cycles.  Integer sums commute, so [n] executions charged at
    once equal [n] per-step charges in any order; the weighted cell is
    left to the caller where its per-word weight is not integral (the byte
    machine).  The fold in {!Cpu.stats} is the only caller. *)

val total_loads : t -> int
val total_stores : t -> int

val weighted_cycles : t -> float
(** [weighted.(0)], the weighted cycle count. *)

val free_cycle_fraction : t -> float
(** Fraction of issue slots with an idle data-memory port — the bandwidth
    available "for DMA, I/O or cache write-backs". *)

val packed_word_fraction : t -> float
(** Fraction of executed words that carried two pieces. *)

val to_json : t -> Mips_obs.Json.t
(** Machine-readable form of every counter above, including the sorted
    exception table, the reference classes, and the stall-pair table —
    what [mipsc run --stats-json] emits. *)

val pp : Format.formatter -> t -> unit
