type t = { fd : Unix.file_descr; mutable closed : bool }

let connect path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot create socket: %s" (Unix.error_message e))
  | fd -> (
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> Ok { fd; closed = false }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot connect to %s: %s" path
               (Unix.error_message e)))

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Arm the kernel's socket timers: a peer that stalls mid-frame unblocks
   the read with EAGAIN, which Frame maps to the typed [Timed_out].  A
   non-positive budget still arms a (minimal) timer — "no time left" must
   fail fast, not hang. *)
let set_deadline t seconds =
  let s = Float.max 0.001 seconds in
  try
    Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO s;
    Unix.setsockopt_float t.fd Unix.SO_SNDTIMEO s
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let request t req =
  if t.closed then Error (Frame.Io_error "connection is closed")
  else
    match Frame.write t.fd (Protocol.encode_request req) with
    | Error e -> Error e
    | Ok () -> (
        match Frame.read t.fd with
        | Error e -> Error e
        | Ok payload -> Protocol.decode_response payload)

let with_connection path f =
  match connect path with
  | Error _ as e -> e
  | Ok t -> Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* --- idempotent retrying call ------------------------------------------------ *)

type policy = {
  attempts : int;
  base_backoff_s : float;
  max_backoff_s : float;
  deadline_s : float;
}

let default_policy =
  { attempts = 10; base_backoff_s = 0.05; max_backoff_s = 2.0;
    deadline_s = 60. }

type failure =
  | Connect of string
  | Transport of Frame.error
  | Garbled of string

type call_error = {
  failure : failure;
  call_attempts : int;
  elapsed_s : float;
  gave_up : [ `Deadline | `Attempts ];
}

let failure_to_string = function
  | Connect m -> m
  | Transport e -> Frame.error_to_string e
  | Garbled detail -> "request garbled in flight: " ^ detail

let call_error_to_string e =
  Printf.sprintf "%s after %d attempt%s in %.2fs (%s)"
    (failure_to_string e.failure) e.call_attempts
    (if e.call_attempts = 1 then "" else "s")
    e.elapsed_s
    (match e.gave_up with
    | `Deadline -> "deadline exceeded"
    | `Attempts -> "attempt budget exhausted")

(* Request IDs are minted client-side: pid + monotonic counter + wall
   clock, digested to a 32-char hex name ([Protocol.valid_name]).  Two
   retries of one logical request share the ID; two logical requests never
   do. *)
let fresh_id =
  let counter = Atomic.make 0 in
  fun () ->
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%d.%d.%.9f" (Unix.getpid ())
            (Atomic.fetch_and_add counter 1)
            (Unix.gettimeofday ())))

let call ?(policy = default_policy) ?id ?(metrics = Mips_obs.Metrics.null)
    path req =
  let req =
    if Protocol.mutating req then
      let id = match id with Some id -> id | None -> fresh_id () in
      Protocol.Tagged { id; req }
    else req
  in
  (* jitter decorrelates concurrent clients retrying the same outage; the
     stream is seeded from the request bytes so a test with a pinned ID
     sees a reproducible backoff schedule *)
  let jitter =
    Mips_fault.Rng.create (Hashtbl.hash (Protocol.encode_request req))
  in
  let backoff =
    { Mips_resilience.Policy.Backoff.base_s = policy.base_backoff_s;
      max_s = policy.max_backoff_s }
  in
  let started = Unix.gettimeofday () in
  let deadline = started +. policy.deadline_s in
  let fail k failure gave_up =
    Mips_obs.Metrics.incr metrics "client.call_failed";
    Error
      { failure; call_attempts = k;
        elapsed_s = Unix.gettimeofday () -. started; gave_up }
  in
  let rec attempt k last_failure =
    if Unix.gettimeofday () >= deadline then
      fail (k - 1) last_failure `Deadline
    else
      let outcome =
        match connect path with
        | Error msg -> Error (Connect msg)
        | Ok t -> (
            Fun.protect ~finally:(fun () -> close t) @@ fun () ->
            set_deadline t (deadline -. Unix.gettimeofday ());
            match request t req with
            | Error e -> Error (Transport e)
            | Ok (Protocol.Err (Protocol.Garbled, detail)) ->
                (* the server's frame layer rejected what arrived: our
                   request was damaged in flight, never decoded — the one
                   typed rejection that is a wire fault, not an answer *)
                Error (Garbled detail)
            | Ok resp -> Ok resp)
      in
      match outcome with
      | Ok resp -> Ok resp
      | Error failure ->
          if k >= policy.attempts then fail k failure `Attempts
          else begin
            Mips_obs.Metrics.incr metrics "client.retries";
            let sleep =
              Mips_resilience.Policy.Backoff.delay backoff jitter
                ~left_s:(deadline -. Unix.gettimeofday ()) k
            in
            Mips_obs.Metrics.observe metrics "client.backoff_seconds" sleep;
            if sleep > 0. then Unix.sleepf sleep;
            attempt (k + 1) failure
          end
  in
  attempt 1 (Transport Frame.Timed_out)

let wait_ready ?(timeout_s = 10.) path =
  let started = Unix.gettimeofday () in
  let deadline = started +. timeout_s in
  let rec poll () =
    let ok =
      match connect path with
      | Error _ -> false
      | Ok t ->
          Fun.protect ~finally:(fun () -> close t) @@ fun () ->
          (* a daemon that accepts but never answers must not park the
             poll past its deadline *)
          set_deadline t (Float.max 0.05 (deadline -. Unix.gettimeofday ()));
          (match request t Protocol.Ping with
          | Ok Protocol.Pong -> true
          | _ -> false)
    in
    if ok then Ok ()
    else if Unix.gettimeofday () >= deadline then
      Error (`Timed_out (Unix.gettimeofday () -. started))
    else begin
      Unix.sleepf 0.05;
      poll ()
    end
  in
  poll ()
