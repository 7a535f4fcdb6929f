open Mips_machine

type pattern = {
  loads : int;
  stores : int;
  byte_loads : int;
  byte_stores : int;
  word_loads : int;
  word_stores : int;
  char_loads : int;
  char_stores : int;
  char_byte_loads : int;
  char_byte_stores : int;
  free_cycle_fraction : float;
  cycles : int;
}

type failure = { program : string; reason : string }

let heavy (e : Mips_corpus.Corpus.entry) =
  List.exists
    (fun t -> String.equal t.Mips_corpus.Corpus.name e.Mips_corpus.Corpus.name)
    Mips_corpus.Corpus.table11

(* The whole pattern is a projection of merged execution statistics, so the
   aggregation over a corpus is just [Stats.merge] — associative, which is
   what lets the per-program simulations land in any order. *)
let pattern_of_stats (s : Stats.t) =
  {
    loads = Stats.total_loads s;
    stores = Stats.total_stores s;
    byte_loads = s.Stats.byte_refs.Stats.loads + s.Stats.byte_char_refs.Stats.loads;
    byte_stores = s.Stats.byte_refs.Stats.stores + s.Stats.byte_char_refs.Stats.stores;
    word_loads = s.Stats.word_refs.Stats.loads + s.Stats.word_char_refs.Stats.loads;
    word_stores = s.Stats.word_refs.Stats.stores + s.Stats.word_char_refs.Stats.stores;
    char_loads = s.Stats.word_char_refs.Stats.loads + s.Stats.byte_char_refs.Stats.loads;
    char_stores =
      s.Stats.word_char_refs.Stats.stores + s.Stats.byte_char_refs.Stats.stores;
    char_byte_loads = s.Stats.byte_char_refs.Stats.loads;
    char_byte_stores = s.Stats.byte_char_refs.Stats.stores;
    free_cycle_fraction = Stats.free_cycle_fraction s;
    cycles = s.Stats.cycles;
  }

let describe_result (r : Hosted.result) =
  match r.Hosted.fault with
  | Some (cause, detail) ->
      Printf.sprintf "faulted: %s (detail %d)" (Cause.name cause) detail
  | None ->
      if not r.Hosted.halted then "did not halt (fuel exhausted)"
      else "diverged"

(* One simulation per entry, fanned out over the worker pool and served from
   the artifact cache; a program that faults or runs out of fuel becomes a
   typed failure instead of aborting the whole table, so one bad entry costs
   one row, not the report. *)
let run ?jobs ?(include_heavy = true) config entries =
  let entries =
    List.filter
      (fun e -> include_heavy || not (heavy e))
      entries
  in
  let outcomes =
    Mips_par.map ?jobs
      (fun (e : Mips_corpus.Corpus.entry) ->
        match Mips_artifact.entry_sim ~config e with
        | sim ->
            if (not sim.Mips_artifact.result.Hosted.halted)
               || sim.Mips_artifact.result.Hosted.fault <> None
            then
              Error
                { program = e.Mips_corpus.Corpus.name;
                  reason = describe_result sim.Mips_artifact.result }
            else Ok sim.Mips_artifact.stats
        | exception exn ->
            Error
              { program = e.Mips_corpus.Corpus.name;
                reason = Printexc.to_string exn })
      entries
  in
  let stats, failures =
    List.fold_left
      (fun (ss, fs) -> function
        | Ok s -> (s :: ss, fs)
        | Error f -> (ss, f :: fs))
      ([], []) outcomes
  in
  let merged = List.fold_left Stats.merge (Stats.zero ()) (List.rev stats) in
  (pattern_of_stats merged, List.rev failures)

(* these dominate wall-clock time (the Puzzle runs), so memoize: the corpus
   is fixed and the simulator deterministic.  Safe across Domains the way
   the artifact cache is: look up and publish under the lock, compute
   outside it.  If two callers race on a key, the first value published
   wins; both are identical by construction. *)
let cache : (string * bool, pattern * failure list) Hashtbl.t = Hashtbl.create 4

let lock = Mutex.create ()

let clear_memo () = Mutex.protect lock (fun () -> Hashtbl.reset cache)

let memo key thunk =
  match Mutex.protect lock (fun () -> Hashtbl.find_opt cache key) with
  | Some p -> p
  | None ->
      let p = thunk () in
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt cache key with
          | Some winner -> winner
          | None ->
              Hashtbl.replace cache key p;
              p)

let word_allocated ?jobs ?(include_heavy = false) () =
  memo ("word", include_heavy) (fun () ->
      run ?jobs ~include_heavy Mips_ir.Config.default Mips_corpus.Corpus.all)

let byte_allocated ?jobs ?(include_heavy = false) () =
  memo ("byte", include_heavy) (fun () ->
      run ?jobs ~include_heavy Mips_ir.Config.byte_machine Mips_corpus.Corpus.all)

let total p = p.loads + p.stores

let pct p n =
  let t = total p in
  if t = 0 then 0. else 100. *. float_of_int n /. float_of_int t

let frequencies p =
  let t = float_of_int (total p) in
  ( float_of_int p.byte_loads /. t,
    float_of_int p.byte_stores /. t,
    float_of_int p.word_loads /. t,
    float_of_int p.word_stores /. t )
