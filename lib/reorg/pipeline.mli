(** The reorganizer driver, with the cumulative optimization levels of the
    paper's Table 11.

    "This reorganizer performs several major functions: it takes the
    pipeline constraints into account and reorganizes the code to avoid
    interlocks when possible, and otherwise inserts no-ops; it packs
    instruction pieces into one 32-bit word; it assembles instructions." *)

type level =
  | Naive  (** Table 11 "None (no-ops inserted)": program order, one piece
               per word, no-ops wherever the pipeline rules demand *)
  | Reorganized  (** + basic-block scheduling to eliminate no-ops *)
  | Packed  (** + packing two pieces into one instruction word *)
  | Delay_filled  (** + the three branch-delay-slot schemes *)

val all_levels : level list
val level_name : level -> string

val rank : level -> int
(** Stable integer rank of a level (its position in {!all_levels}) — a
    compact cache-key component for callers that memoize per-level
    artifacts. *)

val of_rank : int -> level
(** The level of a rank, as the [-O] flag and the daemon's requests give
    it; every rank above 2 (and below 0) is [Delay_filled]. *)

val compile : ?level:level -> Asm.program -> Mips_machine.Program.t
(** Run the postpass at the given level (default [Delay_filled]) and
    assemble.  The result is hazard-free by construction at every level. *)

val compile_with_stats :
  ?obs:Mips_obs.Metrics.t ->
  ?level:level ->
  Asm.program ->
  Mips_machine.Program.t * Delay.stats option
(** Like {!compile}; also returns delay-slot fill statistics when the level
    includes the branch-delay pass.

    When [obs] is given, every pass charges its wall time to a
    ["reorg.*"] timer (partition, schedule, delay_fill, pack_terminator,
    assemble) and the pass statistics land in counters
    (["reorg.blocks"], ["reorg.delay.scheme1_moved_before"], ...,
    ["reorg.static_words"]) — the raw material of [mipsc profile]. *)

val compile_raw : Asm.program -> Mips_machine.Program.t
(** Assemble in raw program order: one piece per word and {e no} load-delay
    no-op padding (delay-slot words are kept, as nops, because link
    registers point past them).  The result is only correct on the
    hardware-interlock comparison machine ({!Mips_machine.Cpu.interlocked_config}),
    where a load stalls its consumer and taken branches squash their slots —
    the conventional-machine baseline whose stall cycles [mipsc profile]
    attributes to instruction pairs. *)
