(** Table 2 — the condition-code feature taxonomy.

    "Table 2 shows a typical set of features associated with condition codes
    and various architectures which possess these features."  Reproduced as
    data so [mipsc report] can print it and tests can sanity-check the
    styles used elsewhere. *)

type cc_features =
  | No_condition_code  (** MIPS, PDP-10, Cray-1: compare-and-branch *)
  | Set_on_operations of { conditional_set : bool }
  | Set_on_operations_and_moves of { conditional_set : bool }

type machine = { mname : string; features : cc_features }

val machines : machine list
(** MIPS, M68000, VAX, IBM 360, PDP-10 — the paper's examples. *)

val row : machine -> string * string * string
(** (name, "has condition code?", "access") for table printing. *)
