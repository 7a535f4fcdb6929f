type ref_class = { mutable loads : int; mutable stores : int }

type t = {
  mutable cycles : int;
  mutable stall_cycles : int;
  mutable load_use_stall_cycles : int;
  mutable branch_stall_cycles : int;
  mutable words : int;
  mutable nops : int;
  mutable alu_pieces : int;
  mutable mem_pieces : int;
  mutable branch_pieces : int;
  mutable packed_words : int;
  mutable branches_taken : int;
  mutable mem_busy_cycles : int;
  mutable free_cycles : int;
  weighted : float array;  (* length 1; unboxed accumulation cell *)
  mutable exceptions : (Cause.t * int ref) list;
  mutable synthetic_refs : int;
  mutable fuel_exhausted : bool;
  word_refs : ref_class;
  word_char_refs : ref_class;
  byte_refs : ref_class;
  byte_char_refs : ref_class;
  stall_pairs : (int * int, int) Hashtbl.t;
}

let new_class () = { loads = 0; stores = 0 }

let create () =
  {
    cycles = 0;
    stall_cycles = 0;
    load_use_stall_cycles = 0;
    branch_stall_cycles = 0;
    words = 0;
    nops = 0;
    alu_pieces = 0;
    mem_pieces = 0;
    branch_pieces = 0;
    packed_words = 0;
    branches_taken = 0;
    mem_busy_cycles = 0;
    free_cycles = 0;
    weighted = [| 0. |];
    exceptions = [];
    synthetic_refs = 0;
    fuel_exhausted = false;
    word_refs = new_class ();
    word_char_refs = new_class ();
    byte_refs = new_class ();
    byte_char_refs = new_class ();
    stall_pairs = Hashtbl.create 16;
  }

(* [n] more of [cause]: counted in place, or a new counter at the end
   the first time; no closure, so a repeat allocates nothing *)
let rec bump cause n = function
  | (c, m) :: rest -> if Cause.equal c cause then (m := !m + n; true) else bump cause n rest
  | [] -> false

let add_exception t cause n =
  if not (bump cause n t.exceptions) then
    t.exceptions <- t.exceptions @ [ (cause, ref n) ]

(* the identity of [merge]: a fresh, empty record *)
let zero = create

(* Combine two statistics records into a fresh one, leaving both arguments
   untouched.  The operation is associative and has [zero ()] as identity on
   every observable view ([pp], [to_json], the accessors): integer and float
   fields add, [fuel_exhausted] ors, and the exception and stall-pair
   multisets union — their internal order is not canonical, but every
   reading goes through the sorted views below. *)
let merge a b =
  let t = create () in
  t.cycles <- a.cycles + b.cycles;
  t.stall_cycles <- a.stall_cycles + b.stall_cycles;
  t.load_use_stall_cycles <- a.load_use_stall_cycles + b.load_use_stall_cycles;
  t.branch_stall_cycles <- a.branch_stall_cycles + b.branch_stall_cycles;
  t.words <- a.words + b.words;
  t.nops <- a.nops + b.nops;
  t.alu_pieces <- a.alu_pieces + b.alu_pieces;
  t.mem_pieces <- a.mem_pieces + b.mem_pieces;
  t.branch_pieces <- a.branch_pieces + b.branch_pieces;
  t.packed_words <- a.packed_words + b.packed_words;
  t.branches_taken <- a.branches_taken + b.branches_taken;
  t.mem_busy_cycles <- a.mem_busy_cycles + b.mem_busy_cycles;
  t.free_cycles <- a.free_cycles + b.free_cycles;
  t.weighted.(0) <- a.weighted.(0) +. b.weighted.(0);
  t.synthetic_refs <- a.synthetic_refs + b.synthetic_refs;
  t.fuel_exhausted <- a.fuel_exhausted || b.fuel_exhausted;
  let add_exceptions exns =
    List.iter (fun (cause, n) -> add_exception t cause !n) exns
  in
  add_exceptions a.exceptions;
  add_exceptions b.exceptions;
  let add_class (dst : ref_class) (src : ref_class) =
    dst.loads <- dst.loads + src.loads;
    dst.stores <- dst.stores + src.stores
  in
  List.iter
    (fun (dst, x, y) -> add_class dst x; add_class dst y)
    [ (t.word_refs, a.word_refs, b.word_refs);
      (t.word_char_refs, a.word_char_refs, b.word_char_refs);
      (t.byte_refs, a.byte_refs, b.byte_refs);
      (t.byte_char_refs, a.byte_char_refs, b.byte_char_refs) ];
  let add_pairs src =
    Hashtbl.iter
      (fun key n ->
        let m =
          match Hashtbl.find_opt t.stall_pairs key with Some m -> m | None -> 0
        in
        Hashtbl.replace t.stall_pairs key (m + n))
      src
  in
  add_pairs a.stall_pairs;
  add_pairs b.stall_pairs;
  t

let count_exception t cause = add_exception t cause 1

let exception_count t cause =
  match List.assoc_opt cause t.exceptions with Some n -> !n | None -> 0

let exceptions_sorted t =
  List.map (fun (c, n) -> (c, !n)) t.exceptions
  |> List.sort (fun (ca, na) (cb, nb) ->
         match compare nb na with 0 -> Cause.compare ca cb | c -> c)

let record_stall_pair t ~producer_pc ~consumer_pc =
  let key = (producer_pc, consumer_pc) in
  match Hashtbl.find t.stall_pairs key with
  | n -> Hashtbl.replace t.stall_pairs key (n + 1)
  | exception Not_found -> Hashtbl.add t.stall_pairs key 1

let stall_pairs t =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.stall_pairs []
  |> List.sort (fun ((pa, ca), na) ((pb, cb), nb) ->
         match compare nb na with
         | 0 -> compare (pa, ca) (pb, cb)
         | c -> c)

let class_for t (note : Mips_isa.Note.t) =
  match (note.char_data, note.byte_sized) with
  | false, false -> t.word_refs
  | true, false -> t.word_char_refs
  | false, true -> t.byte_refs
  | true, true -> t.byte_char_refs

let add_ref t ~load note n =
  if note.Mips_isa.Note.synthetic then
    t.synthetic_refs <- t.synthetic_refs + n
  else
    let c = class_for t note in
    if load then c.loads <- c.loads + n else c.stores <- c.stores + n

let count_ref t ~load note = add_ref t ~load note 1

let charge t (w : int Mips_isa.Word.t) note n ~weighted =
  let open Mips_isa in
  t.cycles <- t.cycles + n;
  t.words <- t.words + n;
  if weighted then t.weighted.(0) <- t.weighted.(0) +. float_of_int n;
  (match w with
  | Word.Nop -> t.nops <- t.nops + n
  | Word.A _ -> t.alu_pieces <- t.alu_pieces + n
  | Word.M _ -> t.mem_pieces <- t.mem_pieces + n
  | Word.B _ -> t.branch_pieces <- t.branch_pieces + n
  | Word.AM _ ->
      t.packed_words <- t.packed_words + n;
      t.alu_pieces <- t.alu_pieces + n;
      t.mem_pieces <- t.mem_pieces + n
  | Word.AB _ ->
      t.packed_words <- t.packed_words + n;
      t.alu_pieces <- t.alu_pieces + n;
      t.branch_pieces <- t.branch_pieces + n);
  match w with
  | Word.M (Mem.Load _) | Word.AM (_, Mem.Load _) ->
      t.mem_busy_cycles <- t.mem_busy_cycles + n;
      add_ref t ~load:true note n
  | Word.M (Mem.Store _) | Word.AM (_, Mem.Store _) ->
      t.mem_busy_cycles <- t.mem_busy_cycles + n;
      add_ref t ~load:false note n
  | Word.M (Mem.Limm _) | Word.AM (_, Mem.Limm _) | Word.Nop | Word.A _
  | Word.B _ | Word.AB _ ->
      t.free_cycles <- t.free_cycles + n

let classes t = [ t.word_refs; t.word_char_refs; t.byte_refs; t.byte_char_refs ]
let total_loads t = List.fold_left (fun acc c -> acc + c.loads) 0 (classes t)
let total_stores t = List.fold_left (fun acc c -> acc + c.stores) 0 (classes t)

let weighted_cycles t = t.weighted.(0)

let free_cycle_fraction t =
  let slots = t.mem_busy_cycles + t.free_cycles in
  if slots = 0 then 0. else float_of_int t.free_cycles /. float_of_int slots

let packed_word_fraction t =
  if t.words = 0 then 0.
  else float_of_int t.packed_words /. float_of_int t.words

let pp ppf t =
  Format.fprintf ppf
    "@[<v>cycles: %d (stalls %d, weighted %.1f)@ words: %d (nops %d, packed %d \
     = %.1f%%)@ pieces: %d alu, %d mem, %d branch (taken %d)@ memory: %d busy, \
     %d free@ free cycle fraction: %.3f (%.1f%% of issue slots)@ refs: %d \
     loads, %d stores (+%d synthetic)"
    t.cycles t.stall_cycles t.weighted.(0) t.words t.nops t.packed_words
    (100. *. packed_word_fraction t)
    t.alu_pieces t.mem_pieces t.branch_pieces t.branches_taken t.mem_busy_cycles
    t.free_cycles (free_cycle_fraction t)
    (100. *. free_cycle_fraction t)
    (total_loads t) (total_stores t) t.synthetic_refs;
  if t.stall_cycles > 0 then
    Format.fprintf ppf "@ stall breakdown: %d load-use, %d branch-latency"
      t.load_use_stall_cycles t.branch_stall_cycles;
  if t.fuel_exhausted then Format.fprintf ppf "@ fuel exhausted: yes";
  (match exceptions_sorted t with
  | [] -> ()
  | exns ->
      Format.fprintf ppf "@ exceptions:";
      List.iter
        (fun (c, n) -> Format.fprintf ppf "@   %-12s %8d" (Cause.name c) n)
        exns);
  Format.fprintf ppf "@]"

let ref_class_json (c : ref_class) =
  Mips_obs.Json.Obj
    [ ("loads", Mips_obs.Json.Int c.loads); ("stores", Mips_obs.Json.Int c.stores) ]

let to_json t =
  let open Mips_obs.Json in
  Obj
    [ ("cycles", Int t.cycles);
      ("stall_cycles", Int t.stall_cycles);
      ("load_use_stall_cycles", Int t.load_use_stall_cycles);
      ("branch_stall_cycles", Int t.branch_stall_cycles);
      ("weighted_cycles", Float t.weighted.(0));
      ("words", Int t.words);
      ("nops", Int t.nops);
      ("packed_words", Int t.packed_words);
      ("packed_word_fraction", Float (packed_word_fraction t));
      ("alu_pieces", Int t.alu_pieces);
      ("mem_pieces", Int t.mem_pieces);
      ("branch_pieces", Int t.branch_pieces);
      ("branches_taken", Int t.branches_taken);
      ("mem_busy_cycles", Int t.mem_busy_cycles);
      ("free_cycles", Int t.free_cycles);
      ("free_cycle_fraction", Float (free_cycle_fraction t));
      ("fuel_exhausted", Bool t.fuel_exhausted);
      ( "exceptions",
        Obj
          (List.map
             (fun (c, n) -> (Cause.name c, Int n))
             (exceptions_sorted t)) );
      ( "refs",
        Obj
          [ ("word", ref_class_json t.word_refs);
            ("word_char", ref_class_json t.word_char_refs);
            ("byte", ref_class_json t.byte_refs);
            ("byte_char", ref_class_json t.byte_char_refs);
            ("synthetic", Int t.synthetic_refs);
            ("total_loads", Int (total_loads t));
            ("total_stores", Int (total_stores t)) ] );
      ( "stall_pairs",
        List
          (List.map
             (fun ((producer_pc, consumer_pc), n) ->
               Obj
                 [ ("producer_pc", Int producer_pc);
                   ("consumer_pc", Int consumer_pc);
                   ("stalls", Int n) ])
             (stall_pairs t)) ) ]
