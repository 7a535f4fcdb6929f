(* Mips_artifact — a content-keyed cache of the evaluation's build and
   simulation artifacts.

   Every table of the paper's evaluation consumes some mix of: the checked
   program (TAST), the symbolic assembly for a code-generation config, the
   reorganized machine program at a postpass level, and the statistics of a
   full simulation.  Before this cache each analysis module recomputed the
   chain from source, so a report re-did the whole corpus several times
   over.  Here each artifact is computed once per distinct key

       (source digest, codegen config, postpass level, engine, fuel, input)

   and shared by every consumer — including worker domains: the tables are
   protected by one mutex, and a compute that loses a race to an identical
   key adopts the winner's value, so callers always share one copy.  All
   cached values are deterministic functions of their key, which is what
   makes the parallel warm-up phase of the report safe: workers only decide
   *when* an artifact is built, never *what* it contains. *)

open Mips_machine

type sim = {
  program : Program.t;
  result : Hosted.result;
  stats : Stats.t;  (* read-only by convention: shared across consumers *)
}

let default_fuel = 500_000_000

let digest src = Digest.to_hex (Digest.string src)

let config_key (c : Mips_ir.Config.t) =
  Printf.sprintf "%s/%s/%x"
    (match c.Mips_ir.Config.target with
    | Mips_ir.Config.Word_addressed -> "word"
    | Mips_ir.Config.Byte_addressed -> "byte")
    (match c.Mips_ir.Config.bool_strategy with
    | Mips_ir.Config.Setcond -> "setcond"
    | Mips_ir.Config.Early_out -> "earlyout")
    c.Mips_ir.Config.stack_top

let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* each table stores (value, fingerprint at publication) *)
let tasts : (string, Mips_frontend.Tast.program * string) Hashtbl.t =
  Hashtbl.create 32

let asms : (string * string, Mips_reorg.Asm.program * string) Hashtbl.t =
  Hashtbl.create 32

let programs : (string * string * int, Program.t * string) Hashtbl.t =
  Hashtbl.create 32

let sims :
    (string * string * int * string * int * string, sim * string) Hashtbl.t =
  Hashtbl.create 32

let hit_count = Atomic.make 0
let miss_count = Atomic.make 0
let corrupt_count = Atomic.make 0

type counters = { hits : int; misses : int; corrupt : int }

let counters () =
  {
    hits = Atomic.get hit_count;
    misses = Atomic.get miss_count;
    corrupt = Atomic.get corrupt_count;
  }

let clear () =
  with_lock (fun () ->
      Hashtbl.reset tasts;
      Hashtbl.reset asms;
      Hashtbl.reset programs;
      Hashtbl.reset sims)

(* Every entry is published with a fingerprint of its serialized form.
   Cached values are shared physically across consumers who must treat them
   as read-only; re-checking the fingerprint on each hit catches a consumer
   that mutated a shared artifact (or damaged memory) before the corruption
   spreads into every later table built from it. *)
let fingerprint v = Digest.string (Marshal.to_string v [])

(* Look up, else compute outside the lock (so concurrent misses on distinct
   keys overlap) and publish.  If another domain published the same key
   first, its value wins and ours is dropped — both are identical by
   construction, and adopting the winner keeps all consumers sharing one
   physical artifact.  A hit whose fingerprint no longer matches is
   evicted, counted, and recomputed. *)
let cached tbl key compute =
  let compute_and_publish () =
    Atomic.incr miss_count;
    let v = compute () in
    with_lock (fun () ->
        match Hashtbl.find_opt tbl key with
        | Some (winner, _) -> winner
        | None ->
            Hashtbl.replace tbl key (v, fingerprint v);
            v)
  in
  match with_lock (fun () -> Hashtbl.find_opt tbl key) with
  | Some (v, fp) ->
      if String.equal (fingerprint v) fp then begin
        Atomic.incr hit_count;
        v
      end
      else begin
        Atomic.incr corrupt_count;
        with_lock (fun () ->
            (* evict only if the table still holds the damaged entry *)
            match Hashtbl.find_opt tbl key with
            | Some (w, fp') when w == v && String.equal fp' fp ->
                Hashtbl.remove tbl key
            | _ -> ());
        compute_and_publish ()
      end
  | None -> compute_and_publish ()

let tast src =
  cached tasts (digest src) (fun () -> Mips_frontend.Semant.check_string src)

let asm ?(config = Mips_ir.Config.default) src =
  cached asms
    (digest src, config_key config)
    (fun () -> Mips_codegen.Compile.to_asm_checked ~config (tast src))

let compiled ?(config = Mips_ir.Config.default)
    ?(level = Mips_reorg.Pipeline.Delay_filled) src =
  cached programs
    (digest src, config_key config, Mips_reorg.Pipeline.rank level)
    (fun () -> Mips_reorg.Pipeline.compile ~level (asm ~config src))

let simulated ?(config = Mips_ir.Config.default)
    ?(level = Mips_reorg.Pipeline.Delay_filled) ?(engine = Cpu.Fast)
    ?(fuel = default_fuel) ?(input = "") src =
  cached sims
    ( digest src,
      config_key config,
      Mips_reorg.Pipeline.rank level,
      Cpu.engine_name engine,
      fuel,
      digest input )
    (fun () ->
      let program = compiled ~config ~level src in
      Cpu.with_machine ~config:(Mips_codegen.Compile.machine_config config)
        (fun cpu ->
          let result = Hosted.run_program_on ~fuel ~input ~engine cpu program in
          { program; result; stats = Cpu.stats cpu }))

let entry_sim ?config ?level ?engine ?fuel (e : Mips_corpus.Corpus.entry) =
  simulated ?config ?level ?engine ?fuel ~input:e.Mips_corpus.Corpus.input
    e.Mips_corpus.Corpus.source
