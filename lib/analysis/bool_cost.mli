(** Tables 5 and 6 — the cost of boolean evaluation under four kinds of
    architectural support.

    Table 5 reports compare/register/branch instructions {e per boolean
    operator}; we measure it by compiling [(a=b) or (c=d) or ...] chains of
    increasing length under each support and differencing consecutive
    lengths.  Table 6 weighs those shapes (register op 1, compare 2,
    branch 4) with the corpus's measured expression mix (Table 4) for both
    the store and jump endings. *)

type support =
  | Mips_setcond  (** set conditionally, no condition code (MIPS) *)
  | Cc_condset  (** condition code plus conditional set (M68000) *)
  | Cc_branch_full  (** condition code, branch access only, full evaluation *)
  | Cc_branch_early  (** same hardware, early-out evaluation *)

val support_name : support -> string

type per_operator = {
  static_classes : Snippets.classes;  (** per added operator, static *)
  dynamic_classes : Snippets.classes;  (** averaged over operand truth values *)
}

val table5 : unit -> (support * per_operator) list

type cost_row = {
  support : support;
  store_cost : float;  (** per expression ending in a store *)
  jump_cost : float;
  total_cost : float;  (** mixed with the corpus jump/store fractions *)
}

val table6 : ?stats:Bool_stats.t -> unit -> cost_row list
(** Costs at the corpus's measured average operator count (default: measure
    the corpus).  Rows in {!all_supports} order. *)

val improvement : cost_row list -> support -> support -> float
(** Percentage improvement of the first support over the second, on total
    cost. *)
