type quota = {
  max_fuel : int;
  max_output : int;
  max_concurrent : int;
  max_wall_s : float;
  breaker_threshold : int;
  breaker_cooldown_s : float;
}

let default_quota =
  {
    max_fuel = 500_000_000;
    max_output = 4_000_000;
    max_concurrent = 4;
    max_wall_s = 120.;
    breaker_threshold = 5;
    breaker_cooldown_s = 30.;
  }

module Breaker = Mips_resilience.Policy.Breaker

type entry = {
  mutable inflight : int;
  breaker : Breaker.t;
  mutable requests : int;
  mutable failures : int;
  mutable quarantine_refusals : int;
}

type t = {
  lock : Mutex.t;
  quota : quota;
  max_tenants : int;
  table : (string, entry) Hashtbl.t;
}

let create ?(quota = default_quota) ~max_tenants () =
  {
    lock = Mutex.create ();
    quota;
    max_tenants = max 1 max_tenants;
    table = Hashtbl.create 16;
  }

let quota t = t.quota

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let admit t ~now name =
  locked t @@ fun () ->
  let entry =
    match Hashtbl.find_opt t.table name with
    | Some e -> Ok e
    | None ->
        if Hashtbl.length t.table >= t.max_tenants then
          Error
            ( Protocol.Too_many_tenants,
              Printf.sprintf "tenant registry is full (%d tenants)"
                t.max_tenants )
        else begin
          let e =
            { inflight = 0;
              breaker =
                Breaker.create ~threshold:t.quota.breaker_threshold
                  ~cooldown_s:t.quota.breaker_cooldown_s;
              requests = 0; failures = 0; quarantine_refusals = 0 }
          in
          Hashtbl.add t.table name e;
          Ok e
        end
  in
  match entry with
  | Error _ as e -> e
  | Ok e -> (
      let quarantined () =
        e.quarantine_refusals <- e.quarantine_refusals + 1;
        Error
          ( Protocol.Quarantined,
            Printf.sprintf "circuit breaker open after %d consecutive failures"
              t.quota.breaker_threshold )
      in
      let billed () =
        e.inflight <- e.inflight + 1;
        e.requests <- e.requests + 1;
        Ok ()
      in
      (* the one probe after a cooldown waits until requests admitted
         before the trip have drained *)
      match Breaker.admit e.breaker ~now ~can_probe:(e.inflight = 0) with
      | Breaker.Refuse -> quarantined ()
      | Breaker.Probe -> billed ()
      | Breaker.Pass ->
          if e.inflight >= t.quota.max_concurrent then
            Error
              ( Protocol.Quota "concurrency",
                Printf.sprintf "%d requests already in flight (quota %d)"
                  e.inflight t.quota.max_concurrent )
          else billed ())

let release t ~now ~failed name =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table name with
  | None -> ()
  | Some e ->
      e.inflight <- max 0 (e.inflight - 1);
      if failed then e.failures <- e.failures + 1;
      Breaker.record e.breaker ~now ~ok:(not failed)

let json t ~now =
  locked t @@ fun () ->
  let rows =
    Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, e) ->
           Mips_obs.Json.Obj
             [ ("tenant", Mips_obs.Json.Str name);
               ("inflight", Mips_obs.Json.Int e.inflight);
               ("requests", Mips_obs.Json.Int e.requests);
               ("failures", Mips_obs.Json.Int e.failures);
               ( "quarantine_refusals",
                 Mips_obs.Json.Int e.quarantine_refusals );
               ( "breaker",
                 Mips_obs.Json.Str (Breaker.to_string e.breaker ~now) ) ])
  in
  Mips_obs.Json.List rows
