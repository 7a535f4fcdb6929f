(** Tables 9 and 10 — the cost of byte vs word addressing.

    Table 9 costs each memory operation by compiling it and charging 4
    cycles per memory piece and 2 per ALU piece (the weights implied by the
    paper's rows: a word load is 4; the MIPS byte load — load plus extract —
    is 4 + 2).  The byte-addressed column additionally pays the paper's
    estimated 15 % operand-fetch overhead on the memory cycles.

    Table 10 multiplies the Table 7/8 dynamic reference frequencies by the
    Table 9 per-operation costs, giving the cost of the average data
    reference on each architecture and the byte-addressing penalty. *)

type op =
  | Load_array  (** x := a[i], word elements *)
  | Store_array
  | Load_byte  (** c := s[i], packed characters *)
  | Store_byte
  | Load_word  (** x := y, scalars *)
  | Store_word

val op_name : op -> string

type op_cost = {
  byte_machine : float;  (** native byte addressing, no overhead *)
  byte_machine_overhead : float;  (** with the 15 % fetch overhead *)
  word_machine : float;  (** MIPS insert/extract sequences *)
}

val table9 : unit -> (op * op_cost) list

type machine_cost = {
  m_byte_loads : float;
  m_byte_stores : float;
  m_word_loads : float;
  m_word_stores : float;
  m_total : float;
}

type table10 = {
  word_alloc_on_mips : machine_cost;
  byte_alloc_on_mips : machine_cost;
      (** the byte-allocated reference mix executed with MIPS byte sequences *)
  word_alloc_on_byte_machine : machine_cost;
  byte_alloc_on_byte_machine : machine_cost;
  penalty_word_alloc_pct : float;  (** byte addressing penalty, word mix *)
  penalty_byte_alloc_pct : float;
}

val table10 :
  word_pattern:Refpatterns.pattern -> byte_pattern:Refpatterns.pattern -> table10
