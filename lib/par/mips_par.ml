(* Mips_par — a fixed-size Domain worker pool with deterministic fan-out.

   The evaluation harness is a bag of independent per-program jobs (compile
   this source, simulate that one) whose costs differ by orders of
   magnitude, so work is claimed item-by-item off a shared atomic counter:
   a worker that draws a Puzzle run does not stall the rest of the corpus
   behind it.  Determinism is preserved by construction — every result is
   written to the slot of the item that produced it and reassembled in
   submission order, so the output of [map] is byte-identical for any
   [jobs], including 1 (which runs inline on the calling domain and spawns
   nothing).

   Exceptions raised by the worker function are captured per item and
   re-raised on the calling domain for the lowest failing index — again
   independent of scheduling. *)

let configured_jobs : int option Atomic.t = Atomic.make None

(* Harness-wide default pool size, as set by a --jobs flag.  The fallback is
   what the runtime believes the hardware supports. *)
let set_default_jobs n = Atomic.set configured_jobs (Some (max 1 n))

let default_jobs () =
  match Atomic.get configured_jobs with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count ())

exception Job_failed of { label : string; error : exn }

let () =
  Printexc.register_printer (function
    | Job_failed { label; error } ->
        Some (Printf.sprintf "job %s failed: %s" label (Printexc.to_string error))
    | _ -> None)

type 'b slot =
  | Pending
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

(* Run [body lane i] for every [i] in [0 .. n-1] on [jobs] domains.  The
   caller is lane 0 and the spawned Domains are lanes 1 to [jobs - 1] (no
   more lanes than items); each lane claims items off a shared counter. *)
let run_pool ~jobs ~n body =
  let next = Atomic.make 0 in
  let worker lane () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        body lane i;
        go ()
      end
    in
    go ()
  in
  let domains =
    List.init (max 0 (min jobs n - 1)) (fun k -> Domain.spawn (worker (k + 1)))
  in
  worker 0 ();
  List.iter Domain.join domains

let collect results =
  Array.to_list
    (Array.map
       (function
         | Done v -> v
         | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
         | Pending -> assert false)
       results)

(* [f lane item] for every item, results in submission order *)
let map_lanes ?jobs ?label f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let results = Array.make n Pending in
    run_pool ~jobs ~n (fun lane i ->
        results.(i) <-
          (match f lane items.(i) with
          | v -> Done v
          | exception e ->
              (* capture the backtrace of the failing job itself; with
                 [label] the exception is wrapped so the re-raise on the
                 calling domain names which job died *)
              let bt = Printexc.get_raw_backtrace () in
              let e =
                match label with
                | Some name -> Job_failed { label = name items.(i); error = e }
                | None -> e
              in
              Failed (e, bt)));
    collect results
  end

let map ?jobs ?label f xs = map_lanes ?jobs ?label (fun _ x -> f x) xs

(* Map each item, then fold the results in submission order.  The fold is
   sequential and ordered, so [merge] need not be commutative — and when it
   is associative the result is independent of how items were scheduled. *)
let map_reduce ?jobs ~map:f ~merge ~zero xs =
  List.fold_left merge zero (map ?jobs f xs)

(* Like [map], but each job runs inside a span on its worker's lane, so a
   host trace shows what every domain was doing when.  A lane is written
   only by its own worker, and the caller reads the merged spans only after
   this returns — i.e. after the join. *)
let map_spans ?jobs ~tracer ~name f xs =
  if not (Mips_obs.Span.tracer_enabled tracer) then map ?jobs f xs
  else
    map_lanes ?jobs
      (fun lane x ->
        Mips_obs.Span.with_ (Mips_obs.Span.lane tracer lane) (name x) (fun () -> f x))
      xs
