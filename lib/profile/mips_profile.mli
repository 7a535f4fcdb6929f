(** Basic-block and edge profiles over the machine's per-PC counters.

    Arm a machine with [Cpu.set_profiling], run it (either engine), then
    {!capture} the buffers into structure: basic blocks with an exact
    issue/stall/shadow cycle attribution, taken edges, and the hot
    adjacent-pair table (cmp+branch, load+use — macro-op fusion
    candidates).  Block boundaries come from the static branch shape
    ({!Mips_machine.Predecode}), dynamic edge targets, and execution-count
    discontinuities, so block entry counts stay exact under exceptions.

    The attribution reconciles with the run's statistics by construction:
    [total_issue + total_shadow = Stats.words],
    [total_stall = Stats.stall_cycles], and {!total_cycles} equals
    [Stats.cycles]. *)

type block = {
  b_first : int;  (** physical word addresses, inclusive *)
  b_last : int;
  b_count : int;  (** executions of the block head *)
  b_issue : int;  (** issue cycles net of delay-shadow words *)
  b_stall : int;
  b_shadow : int;
}

type pair_kind = Cmp_branch | Load_use

type pair = {
  p_at : int;  (** address of the first word of the pair *)
  p_kind : pair_kind;
  p_count : int;
  p_first : string;  (** rendered words *)
  p_second : string;
}

type t = {
  program : string;
  blocks : block list;  (** hottest first *)
  edges : ((int * int) * int) list;  (** ((from, to), taken), hottest first *)
  pairs : pair list;  (** hottest first *)
  other_cycles : int;  (** cycles charged without a resolved fetch pc *)
  total_issue : int;
  total_stall : int;
  total_shadow : int;
}

val capture : ?program:string -> Mips_machine.Cpu.t -> t
(** Fold the machine's profiling buffers into a profile.  [program] labels
    the exports.  @raise Invalid_argument if profiling is not armed. *)

val total_cycles : t -> int
(** [total_issue + total_stall + total_shadow + other_cycles]; equals the
    run's [Stats.cycles]. *)

(** {2 Exporters} *)

val pp_hotspots : ?top:int -> Format.formatter -> t -> unit
(** Ranked hot-block table with the cycle split and each block's share. *)

val pp_edges : ?top:int -> Format.formatter -> t -> unit
val pp_pairs : ?top:int -> Format.formatter -> t -> unit

val folded : t -> string
(** Folded-stack flamegraph text ([program;blk_f_l cycles] per line) —
    feed to any collapsed-stack flamegraph renderer. *)

val speedscope : t -> Mips_obs.Json.t
(** A speedscope "sampled" profile (one weighted single-frame sample per
    block); save as [NAME.speedscope.json] and load at speedscope.app. *)

val to_json : t -> Mips_obs.Json.t
(** Full machine-readable profile: totals, blocks, edges, pairs. *)
