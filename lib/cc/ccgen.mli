(** Code generation for the condition-code machine.

    Compiles the same typed AST as the MIPS backend, under the three
    boolean-evaluation regimes of Section 2.3.2:

    - [Full_eval]: every boolean sub-expression is materialized as 0/1 with
      compare + branch sequences, then combined (Figure 1, left).
    - [Early_out]: short-circuit jumping code (Figure 1, right).
    - [Cond_set]: compare + conditional-set, branch-free values (Figure 2;
      requires a style with [has_cond_set]).

    The output is for {e static} analysis (Table 3) and small-snippet
    execution (Figures 1-2): registers are unlimited virtuals, variables are
    named memory cells, calls are opaque. *)

type strategy = Full_eval | Early_out | Cond_set

val program :
  ?style:Cc.style -> strategy -> Mips_frontend.Tast.program -> Cc.instr list
(** All functions concatenated, each behind a label; the program body
    labelled ["main"].  Default style: {!Cc.m68000_style}. *)
