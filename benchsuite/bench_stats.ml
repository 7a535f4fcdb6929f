(* Order statistics over raw samples, and the verdict rule of [compare].

   Every percentile here is read off the sorted samples themselves, never
   off a histogram: the log2 buckets of [Mips_obs.Metrics] are ~1.4x wide,
   which is how one committed daemon row came to report p50 = p90 = p99. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Samples that must lie beyond a reported tail percentile. *)
let min_beyond = 10

type tail = {
  pct : float;  (** the percentile reported, in percent *)
  value : float;
  n : int;  (** samples it was read from *)
}

(* The workload's nominal tail percentile (a fraction, e.g. 0.99), lowered
   when the run is too short so that at least [min_beyond] samples lie
   beyond it, but never below the median.  Nearest-rank: the value is the
   sample at 1-based rank r, leaving n - r samples beyond it; rank n/2 + 1
   is the upper middle sample, which is at least the median. *)
let tail ~nominal xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let r = int_of_float (Float.ceil ((nominal *. float_of_int n) -. 1e-9)) in
  let r = min n (max ((n / 2) + 1) (min r (n - min_beyond))) in
  { pct = 100. *. float_of_int r /. float_of_int n; value = a.(r - 1); n }

(* First and third quartiles as Python's [statistics.quantiles(xs, n=4)]
   computes them (its default "exclusive" method), so a spread printed
   here is the spread a Python check of the same numbers finds. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two samples";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 3)

(* Interquartile distance as a share of the median; 0 for one sample. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let q1, q3 = quartiles xs in
      let m = median xs in
      if m = 0. then if q3 = q1 then 0. else infinity
      else (q3 -. q1) /. Float.abs m

type verdict = Better | Worse | Same | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Same -> "same"
  | Unresolved -> "unresolved"

(* [verdict ~lower_better ~bound ~exact base cand] judges the samples of a
   candidate against those of a base.

   - An exact metric (a deterministic count) must match to the unit:
     any difference is better or worse by direction.
   - Otherwise, when either side's own spread exceeds the bound the
     medians cannot be told apart: unresolved, unless every candidate
     sample beats (or loses to) every base sample.
   - Otherwise the relative change of the medians decides, against the
     bound, in the metric's direction. *)
let verdict ~lower_better ~bound ~exact base cand =
  let mb = median base and mc = median cand in
  let improves x y = if lower_better then y < x else y > x in
  if exact then
    if Float.abs (mc -. mb) < 0.5 then Same
    else if improves mb mc then Better
    else Worse
  else
    let all p = List.for_all (fun c -> List.for_all (fun b -> p b c) base) cand in
    if Float.max (spread base) (spread cand) > bound then
      if all improves then Better
      else if all (fun b c -> improves c b) then Worse
      else Unresolved
    else
      let change =
        if mb = 0. then if mc = 0. then 0. else infinity
        else (mc -. mb) /. Float.abs mb
      in
      let worse_by = if lower_better then change else -.change in
      if worse_by > bound then Worse
      else if worse_by < -.bound then Better
      else Same
