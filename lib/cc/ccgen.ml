open Mips_frontend
open Cc

type strategy = Full_eval | Early_out | Cond_set

type env = {
  prog : Tast.program;
  style : style;
  strategy : strategy;
  mutable code : instr list;  (* reversed *)
  mutable nr : int;
  mutable nl : int;
  owner : string;
}

let emit env i = env.code <- i :: env.code

let fresh_reg env =
  let r = env.nr in
  env.nr <- r + 1;
  Reg r

let fresh_label env =
  let n = env.nl in
  env.nl <- n + 1;
  Printf.sprintf ".C%d" n

let cond_of_relop = function
  | Tast.Req -> Mips_isa.Cond.Eq
  | Tast.Rne -> Mips_isa.Cond.Ne
  | Tast.Rlt -> Mips_isa.Cond.Lt
  | Tast.Rle -> Mips_isa.Cond.Le
  | Tast.Rgt -> Mips_isa.Cond.Gt
  | Tast.Rge -> Mips_isa.Cond.Ge

let alu_of_binop = function
  | Tast.Add -> Add
  | Tast.Sub -> Sub
  | Tast.Mul -> Mul
  | Tast.Div -> Div
  | Tast.Mod -> Rem

let var_name _env (vi : Tast.var_info) =
  match vi.Tast.owner with
  | None -> vi.Tast.vname
  | Some f -> f ^ "$" ^ vi.Tast.vname

(* A memory operand for an lvalue; dynamic subscripts evaluate their index
   expression (the ALU traffic is what matters) and embed the fresh register
   in the synthesized cell name so distinct accesses stay distinct. *)
let rec lval_operand env (lv : Tast.lvalue) =
  let vi = Tast.var env.prog lv.Tast.base in
  let name = ref (var_name env vi) in
  List.iter
    (fun sel ->
      match sel with
      | Tast.Field (f, _, _) -> name := !name ^ "." ^ f
      | Tast.Index (e, _) -> (
          match eval env e with
          | Imm n -> name := Printf.sprintf "%s[%d]" !name n
          | Reg r -> name := Printf.sprintf "%s[r%d]" !name r
          | Var v -> name := Printf.sprintf "%s[%s]" !name v))
    lv.Tast.path;
  Var !name

and eval env (e : Tast.expr) : operand =
  match e.Tast.e with
  | Tast.Num n -> Imm n
  | Tast.Chr c -> Imm (Char.code c)
  | Tast.Boolean b -> Imm (if b then 1 else 0)
  | Tast.Ord a | Tast.Chr_of a -> eval env a
  | Tast.Lval lv -> lval_operand env lv
  | Tast.Neg a ->
      let va = eval env a in
      let d = fresh_reg env in
      emit env (Mov (Imm 0, d));
      emit env (Alu (Sub, va, d));
      d
  | Tast.Bin (op, a, b) ->
      let va = eval env a in
      let vb = eval env b in
      let d = fresh_reg env in
      emit env (Mov (va, d));
      emit env (Alu (alu_of_binop op, vb, d));
      d
  | Tast.Rel (op, a, b) -> rel_value env (cond_of_relop op) a b
  | Tast.Log (op, a, b) -> (
      match env.strategy with
      | Early_out -> branchy_value env e
      | Full_eval | Cond_set ->
          let va = eval env a in
          let vb = eval env b in
          let d = fresh_reg env in
          emit env (Mov (va, d));
          emit env
            (Alu ((match op with Tast.Land -> And | Tast.Lor -> Or), vb, d));
          d)
  | Tast.Not a ->
      let va = eval env a in
      let d = fresh_reg env in
      emit env (Mov (va, d));
      emit env (Alu (Xor, Imm 1, d));
      d
  | Tast.Call (f, args) ->
      let ops =
        List.map
          (function
            | Tast.By_value e -> eval env e
            | Tast.By_reference lv -> lval_operand env lv)
          args
      in
      let d = fresh_reg env in
      emit env (Call (f, ops, Some d));
      d

and rel_value env c a b =
  let va = eval env a in
  let vb = eval env b in
  match env.strategy with
  | Cond_set when env.style.has_cond_set ->
      (* Figure 2: cmp; scc *)
      emit env (Cmp (va, vb));
      let d = fresh_reg env in
      emit env (Scc (c, d));
      d
  | Cond_set | Full_eval ->
      (* Figure 1 (full): d := 0; cmp; skip unless true; d := 1 *)
      let d = fresh_reg env in
      let skip = fresh_label env in
      emit env (Mov (Imm 0, d));
      emit env (Cmp (va, vb));
      emit env (Bcc (Mips_isa.Cond.negate c, skip));
      emit env (Mov (Imm 1, d));
      emit env (Label skip);
      d
  | Early_out ->
      let d = fresh_reg env in
      let skip = fresh_label env in
      emit env (Mov (Imm 0, d));
      emit env (Cmp (va, vb));
      emit env (Bcc (Mips_isa.Cond.negate c, skip));
      emit env (Mov (Imm 1, d));
      emit env (Label skip);
      d

(* jumping code producing 0/1 for a whole boolean expression *)
and branchy_value env e =
  let d = fresh_reg env in
  let l_false = fresh_label env and l_done = fresh_label env in
  cond env e ~t:None ~f:(Some l_false);
  emit env (Mov (Imm 1, d));
  emit env (Jmp l_done);
  emit env (Label l_false);
  emit env (Mov (Imm 0, d));
  emit env (Label l_done);
  d

(* conditional control flow; one of [t]/[f] is None = falls through *)
and cond env (e : Tast.expr) ~t ~f =
  match e.Tast.e with
  | Tast.Boolean true -> ( match t with Some l -> emit env (Jmp l) | None -> ())
  | Tast.Boolean false -> ( match f with Some l -> emit env (Jmp l) | None -> ())
  | Tast.Not a -> cond env a ~t:f ~f:t
  | Tast.Rel (op, a, b) -> (
      let va = eval env a in
      let vb = eval env b in
      emit env (Cmp (va, vb));
      let c = cond_of_relop op in
      match (t, f) with
      | Some lt, None -> emit env (Bcc (c, lt))
      | None, Some lf -> emit env (Bcc (Mips_isa.Cond.negate c, lf))
      | Some lt, Some lf ->
          emit env (Bcc (c, lt));
          emit env (Jmp lf)
      | None, None -> ())
  | Tast.Log (lop, a, b) when env.strategy = Early_out -> (
      match lop with
      | Tast.Lor ->
          let lt = match t with Some l -> l | None -> fresh_label env in
          cond env a ~t:(Some lt) ~f:None;
          cond env b ~t ~f;
          if t = None then emit env (Label lt)
      | Tast.Land ->
          let lf = match f with Some l -> l | None -> fresh_label env in
          cond env a ~t:None ~f:(Some lf);
          cond env b ~t ~f;
          if f = None then emit env (Label lf))
  | _ -> (
      let v = eval env e in
      emit env (Cmp (v, Imm 0));
      match (t, f) with
      | Some lt, None -> emit env (Bcc (Mips_isa.Cond.Ne, lt))
      | None, Some lf -> emit env (Bcc (Mips_isa.Cond.Eq, lf))
      | Some lt, Some lf ->
          emit env (Bcc (Mips_isa.Cond.Ne, lt));
          emit env (Jmp lf)
      | None, None -> ())

let rec gen_stmt env (s : Tast.stmt) =
  match s with
  | Tast.Assign (lv, e) ->
      let v = eval env e in
      emit env (Mov (v, lval_operand env lv))
  | Tast.Assign_result e ->
      let v = eval env e in
      emit env (Mov (v, Var (env.owner ^ "$result")))
  | Tast.Call_stmt (f, args) ->
      let ops =
        List.map
          (function
            | Tast.By_value e -> eval env e
            | Tast.By_reference lv -> lval_operand env lv)
          args
      in
      emit env (Call (f, ops, None))
  | Tast.If (c, then_, else_) ->
      if else_ = [] then begin
        let l_end = fresh_label env in
        cond env c ~t:None ~f:(Some l_end);
        List.iter (gen_stmt env) then_;
        emit env (Label l_end)
      end
      else begin
        let l_else = fresh_label env and l_end = fresh_label env in
        cond env c ~t:None ~f:(Some l_else);
        List.iter (gen_stmt env) then_;
        emit env (Jmp l_end);
        emit env (Label l_else);
        List.iter (gen_stmt env) else_;
        emit env (Label l_end)
      end
  | Tast.While (c, body) ->
      let l_test = fresh_label env and l_body = fresh_label env in
      emit env (Jmp l_test);
      emit env (Label l_body);
      List.iter (gen_stmt env) body;
      emit env (Label l_test);
      cond env c ~t:(Some l_body) ~f:None
  | Tast.Repeat (body, c) ->
      let l_top = fresh_label env in
      emit env (Label l_top);
      List.iter (gen_stmt env) body;
      cond env c ~t:None ~f:(Some l_top)
  | Tast.For (vid, lo, up, hi, body) ->
      let vi = Tast.var env.prog vid in
      let v = Var (var_name env vi) in
      let vlo = eval env lo in
      emit env (Mov (vlo, v));
      let vhi = eval env hi in
      let l_test = fresh_label env and l_body = fresh_label env in
      emit env (Jmp l_test);
      emit env (Label l_body);
      List.iter (gen_stmt env) body;
      emit env (Alu ((if up then Add else Sub), Imm 1, v));
      emit env (Label l_test);
      emit env (Cmp (v, vhi));
      emit env (Bcc ((if up then Mips_isa.Cond.Le else Mips_isa.Cond.Ge), l_body))
  | Tast.Case (e, arms, default) ->
      let v = eval env e in
      let l_end = fresh_label env in
      let arm_labels = List.map (fun _ -> fresh_label env) arms in
      List.iter2
        (fun (labels, _) l ->
          List.iter
            (fun n ->
              emit env (Cmp (v, Imm n));
              emit env (Bcc (Mips_isa.Cond.Eq, l)))
            labels)
        arms arm_labels;
      (match default with
      | Some body -> List.iter (gen_stmt env) body
      | None -> ());
      emit env (Jmp l_end);
      List.iter2
        (fun (_, body) l ->
          emit env (Label l);
          List.iter (gen_stmt env) body;
          emit env (Jmp l_end))
        arms arm_labels;
      emit env (Label l_end)
  | Tast.Write (args, ln) ->
      List.iter
        (fun arg ->
          match arg with
          | Tast.Wstring _ -> emit env (Call ("putstr", [], None))
          | Tast.Wexpr e ->
              let v = eval env e in
              emit env (Call ("putint", [ v ], None)))
        args;
      if ln then emit env (Call ("putchar", [ Imm 10 ], None))
  | Tast.Read_char lv ->
      let d = fresh_reg env in
      emit env (Call ("getchar", [], Some d));
      emit env (Mov (d, lval_operand env lv))
  | Tast.Halt e ->
      let v = match e with Some e -> eval env e | None -> Imm 0 in
      emit env (Call ("exit", [ v ], None))

let new_env ?(style = m68000_style) strategy prog owner =
  { prog; style; strategy; code = []; nr = 0; nl = 0; owner }

let gen_func ?style strategy prog (f : Tast.func) =
  let env = new_env ?style strategy prog f.Tast.fname in
  emit env (Label ("f$" ^ f.Tast.fname));
  List.iter (gen_stmt env) f.Tast.body;
  emit env
    (Ret
       (match f.Tast.result with
       | Some _ -> Some (Var (f.Tast.fname ^ "$result"))
       | None -> None));
  List.rev env.code

let program ?style strategy (prog : Tast.program) =
  let main =
    let env = new_env ?style strategy prog "main" in
    emit env (Label "main");
    List.iter (gen_stmt env) prog.Tast.main;
    emit env (Ret None);
    List.rev env.code
  in
  main @ List.concat_map (gen_func ?style strategy prog) prog.Tast.funcs
