(* The shared resilience vocabulary: Policy.Backoff bounds, Policy.Breaker
   against a reference state machine, Supervise with caller-owned
   breakers, the Slice driver, and daemon soak jobs running concurrently
   now that they share no supervision state. *)

open Testutil
module Policy = Mips_resilience.Policy
module Supervise = Mips_resilience.Supervise
module Breaker = Policy.Breaker
module Metrics = Mips_obs.Metrics
module Slice = Mips_machine.Slice

(* --- backoff ----------------------------------------------------------------- *)

let qcheck_backoff_bounds =
  QCheck.Test.make ~count:500 ~name:"backoff within [cap/2, cap] and the deadline"
    QCheck.(
      quad (pair (float_range 0.001 10.) (float_range 0.001 20.)) (int_range 1 60)
        small_nat (option (float_range (-1.) 30.)))
    (fun ((base_s, max_s), k, seed, left_s) ->
      let b = { Policy.Backoff.base_s; max_s } in
      let cap = Float.min max_s (base_s *. (2. ** float_of_int (k - 1))) in
      let rng = Mips_fault.Rng.create seed in
      let free = Policy.Backoff.delay b (Mips_fault.Rng.copy rng) k in
      let d = Policy.Backoff.delay b rng ?left_s k in
      free >= cap /. 2. && free <= cap
      &&
      match left_s with
      | None -> d = free
      | Some left -> d <= Float.max 0. left && d = Float.min free (Float.max 0. left))

(* --- breaker vs a reference model -------------------------------------------- *)

type op = Admit of bool | Record of bool | Advance of int

let gen_op =
  QCheck.Gen.(
    frequency
      [ (4, map (fun p -> Admit p) (frequency [ (3, return true); (1, return false) ]));
        (4, map (fun ok -> Record ok) bool);
        (2, map (fun d -> Advance d) (int_range 0 4)) ])

let show_op = function
  | Admit p -> Printf.sprintf "admit(can_probe=%b)" p
  | Record ok -> Printf.sprintf "record(ok=%b)" ok
  | Advance d -> Printf.sprintf "advance %d" d

type model = M_closed of int | M_open of float | M_half

let model_admit ~can_probe ~now = function
  | M_closed _ as m -> (Breaker.Pass, m)
  | M_open until when now >= until && can_probe -> (Breaker.Probe, M_half)
  | m -> (Breaker.Refuse, m)

let model_record ~threshold ~cooldown ~now ~ok = function
  | M_open _ as m -> m
  | M_closed _ | M_half when ok -> M_closed 0
  | M_half -> M_open (now +. cooldown)
  | M_closed k -> if k + 1 >= threshold then M_open (now +. cooldown) else M_closed (k + 1)

let model_string ~now = function
  | M_closed 0 -> "closed"
  | M_closed k -> Printf.sprintf "closed(%d failures)" k
  | M_half -> "half-open"
  | M_open until -> if now < until then "open" else "open(cooldown over)"

let qcheck_breaker_model =
  QCheck.Test.make ~count:500 ~name:"breaker matches the reference state machine"
    QCheck.(
      triple (int_range 1 4) (int_range 0 5)
        (make ~print:(Print.list show_op) Gen.(list_size (int_range 0 60) gen_op)))
    (fun (threshold, cooldown, ops) ->
      let cooldown = float_of_int cooldown in
      let b = Breaker.create ~threshold ~cooldown_s:cooldown in
      let rec go now m = function
        | [] -> true
        | op :: rest ->
            let now, m, verdicts_agree =
              match op with
              | Admit can_probe ->
                  let v, m = model_admit ~can_probe ~now m in
                  (now, m, Breaker.admit ~can_probe b ~now = v)
              | Record ok ->
                  Breaker.record b ~now ~ok;
                  (now, model_record ~threshold ~cooldown ~now ~ok m, true)
              | Advance d -> (now +. float_of_int d, m, true)
            in
            verdicts_agree
            && String.equal (Breaker.to_string b ~now) (model_string ~now m)
            && Breaker.is_open b = (match m with M_open _ -> true | _ -> false)
            && go now m rest
      in
      go 0. (M_closed 0) ops)

(* --- supervise with caller-owned breakers ------------------------------------ *)

let poison n = if n < 0 then failwith "poison" else n
let quick = { Supervise.default_policy with max_attempts = 1 }

let test_breakers_independent () =
  let b1 = Breaker.create ~threshold:1 ~cooldown_s:60. in
  let b2 = Breaker.create ~threshold:1 ~cooldown_s:60. in
  let m1 = Metrics.create () and m2 = Metrics.create () in
  let map breaker metrics xs =
    Supervise.oks
      (Supervise.supervised_map ~policy:quick ~breaker ~metrics ~jobs:2
         ~label:string_of_int poison xs)
  in
  check "poison map completes" true (map b1 m1 [ -1; 2 ] = [ 2 ]);
  check "caller 1 tripped" true (Breaker.is_open b1);
  check "caller 2 still closed" false (Breaker.is_open b2);
  check "caller 2 map" true (map b2 m2 [ 1; 2; 3 ] = [ 1; 2; 3 ]);
  check_int "caller 2 fanned out" 0 (Metrics.count m2 "supervise.degraded_maps");
  check "caller 1 map" true (map b1 m1 [ 4; 5 ] = [ 4; 5 ]);
  check_int "caller 1 degraded" 1 (Metrics.count m1 "supervise.degraded_maps");
  check_int "caller 2 saw no quarantine" 0 (Metrics.count m2 "supervise.quarantined")

let test_zero_cooldown_probe () =
  let breaker = Breaker.create ~threshold:1 ~cooldown_s:0. in
  let metrics = Metrics.create () in
  let map xs =
    Supervise.oks
      (Supervise.supervised_map ~policy:quick ~breaker ~metrics ~jobs:2
         ~label:string_of_int poison xs)
  in
  ignore (map [ -1 ]);
  check "tripped" true (Breaker.is_open breaker);
  check_int "trip counted" 1 (Metrics.count metrics "supervise.circuit_open");
  check "probe map runs" true (map [ 1; 2 ] = [ 1; 2 ]);
  check_int "the probe fanned out" 0 (Metrics.count metrics "supervise.degraded_maps");
  check "a clean probe closes it" false (Breaker.is_open breaker);
  check_string "closed" "closed" (Breaker.to_string breaker ~now:(Unix.gettimeofday ()))

(* --- slice driver ------------------------------------------------------------- *)

(* Against a flat reference: slices tile [0, total) in order, every slice
   but the last is [every] long, boundaries fall exactly between slices,
   and a stop or an early finish cuts the sequence where it says. *)
let qcheck_slice =
  QCheck.Test.make ~count:500 ~name:"slice driver tiles the run"
    QCheck.(
      quad (int_range (-3) 50) (int_range (-1) 12) (option (int_range 0 8))
        (option (int_range 0 60)))
    (fun (total, every, max_slices, finish_at) ->
      let steps = ref [] and bounds = ref [] and ran = ref 0 in
      let step n =
        steps := n :: !steps;
        ran := !ran + n;
        match finish_at with Some f -> !ran > f | None -> false
      in
      let r =
        Slice.run ?max_slices ~every ~total ~step
          ~boundary:(fun d -> bounds := d :: !bounds) ()
      in
      let steps = List.rev !steps and bounds = List.rev !bounds in
      let every = max 1 every in
      let prefix =
        List.rev (snd (List.fold_left (fun (a, acc) n -> (a + n, (a + n) :: acc)) (0, []) steps))
      in
      let interior = List.filter (fun d -> d < total) prefix in
      List.for_all (fun n -> n > 0 && n <= every) steps
      && (match List.rev steps with [] -> true | _ :: init -> List.for_all (( = ) every) init)
      && !ran <= max 0 total
      && (match r with
         | Slice.Finished -> bounds = List.filter (fun d -> d < !ran) interior
         | Slice.Exhausted -> !ran = max 0 total && bounds = interior
         | Slice.Stopped ->
             Some (List.length steps) = max_slices && !ran < total && bounds = interior)
      && match max_slices with Some m -> List.length steps <= m | None -> true)

(* --- daemon: concurrent soak jobs --------------------------------------------- *)

let soak_params = (150_000, 4, 24, 2)

let local_soak seed =
  let steps, programs, segments, differential = soak_params in
  let plan =
    { Mips_fault.Plan.seed; flip_reg_rate = 0.002; flip_data_rate = 0.002;
      irq_rate = 0.002; page_drop_rate = 0.002; flaky_rate = 0.005;
      max_injections = 0 }
  in
  match
    Mips_soak.Soak.run_checkpointed ~programs ~segments ~quantum:500 ~steps
      ~diff_count:differential ~diff_jobs:1 ~plan ~seed ()
  with
  | Ok (Mips_soak.Soak.Complete (s, diffs)) ->
      Mips_obs.Json.to_string (Mips_soak.Soak.result_json s diffs)
  | Ok Mips_soak.Soak.Interrupted -> Alcotest.fail "local soak interrupted"
  | Error e ->
      Alcotest.failf "local soak: %s" (Mips_resilience.Snapshot.error_to_string e)

let test_concurrent_tenant_soaks () =
  let steps, programs, segments, differential = soak_params in
  let tenants = [ ("alpha", 5); ("beta", 6) ] in
  let expected = List.map (fun (_, seed) -> local_soak seed) tenants in
  Test_daemon.with_server ~jobs:2 @@ fun socket _t ->
  let replies = Array.make (List.length tenants) None in
  let threads =
    List.mapi
      (fun i (tenant, seed) ->
        Thread.create
          (fun () ->
            replies.(i) <-
              Some
                (Test_daemon.request socket
                   (Mips_daemon.Protocol.Soak
                      { tenant; session = None; seed; steps; programs;
                        segments; differential; engine = "ref" })))
          ())
      tenants
  in
  List.iter Thread.join threads;
  List.iteri
    (fun i want ->
      match replies.(i) with
      | Some (Mips_daemon.Protocol.Soaked json) ->
          check (fst (List.nth tenants i) ^ " soak equals local") true
            (String.equal want json)
      | Some resp -> Alcotest.failf "soak: %s" (Test_daemon.kind_of resp)
      | None -> Alcotest.fail "no reply")
    expected

let suite =
  [ ( "resilience.policy",
      [ tc "independent breakers" test_breakers_independent;
        tc "zero-cooldown probe closes" test_zero_cooldown_probe ]
      @ qsuite [ qcheck_backoff_bounds; qcheck_breaker_model; qcheck_slice ] );
    ( "daemon.concurrency",
      [ tc_slow "two tenants' soaks in parallel" test_concurrent_tenant_soaks ] ) ]
