(* The benchmark's statistics: the tail-percentile rule, quartiles as
   Python computes them, and the verdicts of [suite.exe compare]. *)

open Bench_stats

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let ints n = List.init n (fun i -> float_of_int (i + 1))

let () =
  (* 1..1000 shuffled: the nominal p99 leaves exactly ten samples beyond *)
  let xs = List.rev (ints 1000) in
  let t = tail ~nominal:0.99 xs in
  expect "p99 of 1000" (t.value = 990. && close t.pct 99. && t.n = 1000);
  (* 500 samples cannot carry a p99: lowered to the 11th largest *)
  let t = tail ~nominal:0.99 (ints 500) in
  expect "p99 of 500 lowered" (t.value = 490. && close t.pct 98.);
  (* a nominal percentile the run does support is kept *)
  let t = tail ~nominal:0.75 (ints 100) in
  expect "p75 of 100" (t.value = 75. && close t.pct 75.);
  (* too few samples for any tail: never below the median *)
  let t = tail ~nominal:0.95 (ints 12) in
  expect "tail of 12 is the upper middle" (t.value = 7. && t.value >= median (ints 12));
  let t = tail ~nominal:0.9 [ 4. ] in
  expect "tail of one sample" (t.value = 4.);
  expect "median even" (median [ 4.; 1.; 3.; 2. ] = 2.5);
  expect "median odd" (median [ 5.; 1.; 3. ] = 3.);
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q3 = quartiles (ints 10) in
  expect "quartiles of 1..10" (close q1 2.75 && close q3 8.25);
  (* statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25] *)
  let q1, q3 = quartiles [ 2.; 1. ] in
  expect "quartiles of two" (close q1 0.75 && close q3 2.25);
  expect "spread of one sample" (spread [ 3. ] = 0.);
  expect "spread of 1..10" (close (spread (ints 10)) (5.5 /. 5.5))

let () =
  let v ?(lower_better = true) ?(bound = 0.1) ?(exact = false) a b =
    verdict ~lower_better ~bound ~exact a b
  in
  let tight m = [ m *. 0.99; m; m *. 1.01 ] in
  expect "same within bound" (v (tight 100.) (tight 105.) = Same);
  expect "worse beyond bound" (v (tight 100.) (tight 120.) = Worse);
  expect "better beyond bound" (v (tight 100.) (tight 80.) = Better);
  expect "higher is better" (v ~lower_better:false (tight 100.) (tight 120.) = Better);
  expect "higher is better, worse" (v ~lower_better:false (tight 100.) (tight 80.) = Worse);
  (* spreads wider than the bound cannot be told apart... *)
  let wide m = [ m *. 0.7; m; m *. 1.3 ] in
  expect "unresolved" (v (wide 100.) (wide 105.) = Unresolved);
  (* ...unless every new sample beats every base sample *)
  expect "disjoint wide samples" (v (wide 100.) (wide 200.) = Worse);
  expect "exact same" (v ~exact:true [ 7708894. ] [ 7708894. ] = Same);
  expect "exact worse by one" (v ~exact:true [ 7708894. ] [ 7708895. ] = Worse);
  expect "exact better by one" (v ~exact:true [ 7708894. ] [ 7708893. ] = Better)

let () =
  if !failures > 0 then exit 1;
  print_endline "bench_stats: all checks passed"
