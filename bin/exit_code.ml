(* One place for every mipsc exit status, so scripts (and the CI harness)
   can tell failure modes apart.  [Cmdliner.Cmd.Exit.info] entries make the
   codes show up in every subcommand's --help. *)

let ok = Cmdliner.Cmd.Exit.ok (* 0 *)
let usage = 2 (* bad arguments, missing or unwritable file, bad source *)
let out_of_fuel = 3 (* the program did not halt within the fuel budget *)
let divergence = 4 (* a soak variant diverged from the reference *)
let checkpoint = 5 (* a checkpoint could not be read, or does not match *)
let connect = 6 (* the mipsd socket could not be reached *)
let overloaded = 7 (* the daemon shed the request (overload/quarantine/drain) *)
let protocol = 8 (* a malformed, truncated or version-skewed frame *)
let timed_out = 9 (* the retry budget (deadline or attempts) was exhausted *)
let quarantined = 10 (* fsck moved unrecoverable sessions into quarantine/ *)

let infos =
  let open Cmdliner.Cmd.Exit in
  [
    info ok ~doc:"on success.";
    info usage
      ~doc:"on a usage error: bad arguments, a missing input file, an \
            unwritable output file, or a source that does not compile \
            (reported as FILE:LINE:COL: message).";
    info out_of_fuel ~doc:"when the program did not halt within the fuel \
                           budget.";
    info divergence
      ~doc:"when a soak variant diverged from the reference machine.";
    info checkpoint
      ~doc:"when a checkpoint file cannot be read (truncated, corrupt, \
            version skew) or does not match the requested run.";
    info connect
      ~doc:"when the mipsd daemon socket cannot be reached (daemon not \
            running, wrong path, or a dead socket file).";
    info overloaded
      ~doc:"when the daemon refused the request without running it: \
            admission queue full (load shed), the tenant's circuit breaker \
            open, or the daemon draining for shutdown.";
    info protocol
      ~doc:"when the daemon connection broke protocol: a malformed, \
            truncated, corrupt or version-skewed frame.";
    info timed_out
      ~doc:"when the retrying client exhausted its deadline or attempt \
            budget without ever receiving a response.";
    info quarantined
      ~doc:"when fsck found unrecoverable sessions and moved them into \
            the quarantine/ directory.";
  ]
