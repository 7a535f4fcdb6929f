module Backoff = struct
  type t = { base_s : float; max_s : float }

  let delay b rng ?left_s k =
    let cap = Float.min b.max_s (b.base_s *. (2. ** float_of_int (k - 1))) in
    let d = cap *. (0.5 +. (Mips_fault.Rng.float rng *. 0.5)) in
    match left_s with Some left -> Float.min d (Float.max 0. left) | None -> d
end

module Breaker = struct
  type state = Closed of int | Open of float | Half_open

  type t = { threshold : int; cooldown_s : float; mutable state : state }
  type verdict = Pass | Probe | Refuse

  let create ~threshold ~cooldown_s =
    { threshold = max 1 threshold; cooldown_s; state = Closed 0 }

  let admit ?(can_probe = true) b ~now =
    match b.state with
    | Closed _ -> Pass
    | Open until when now >= until && can_probe ->
        b.state <- Half_open;
        Probe
    | Open _ | Half_open -> Refuse

  let record b ~now ~ok =
    match (b.state, ok) with
    | Open _, _ -> ()
    | (Closed _ | Half_open), true -> b.state <- Closed 0
    | Half_open, false -> b.state <- Open (now +. b.cooldown_s)
    | Closed k, false ->
        b.state <-
          (if k + 1 >= b.threshold then Open (now +. b.cooldown_s)
           else Closed (k + 1))

  let is_open b = match b.state with Open _ -> true | Closed _ | Half_open -> false
  let failures b = match b.state with Closed k -> k | Open _ | Half_open -> 0

  let to_string b ~now =
    match b.state with
    | Closed 0 -> "closed"
    | Closed k -> Printf.sprintf "closed(%d failures)" k
    | Half_open -> "half-open"
    | Open until when now < until -> "open"
    | Open _ -> "open(cooldown over)"
end
