(* Client-side glue shared by the mipsd CLI and `mipsc run --remote`:
   request against a daemon socket through the idempotent retrying client,
   with every failure mode mapped to its standardized exit code
   (connect = 6, overloaded = 7, protocol = 8, timed out = 9; see
   Exit_code); and the one printer of a run's outcome, local or remote. *)

module Client = Mips_daemon.Client
module Frame = Mips_daemon.Frame
module Protocol = Mips_daemon.Protocol
module Executor = Mips_daemon.Executor

let exit_of_reject = function
  | Protocol.Overloaded | Protocol.Quarantined | Protocol.Shutting_down ->
      Exit_code.overloaded
  | Protocol.Quota _ -> Exit_code.out_of_fuel
  | Protocol.Bad_request | Protocol.Unknown_session
  | Protocol.Too_many_tenants ->
      Exit_code.usage
  | Protocol.Garbled ->
      (* only reachable through raw Client.request: Client.call retries
         these until its budget runs out *)
      Exit_code.protocol
  | Protocol.Internal -> 1

(* A call's answer; anything but a non-Err response exits the process
   with the matching code. *)
let answer_or_die ~prog = function
  | Error e ->
      Printf.eprintf "%s: %s\n" prog (Client.call_error_to_string e);
      exit
        (match e.Client.failure with
        | Client.Connect _ ->
            (* the daemon was never reached: "is it running?" *)
            Exit_code.connect
        | Client.Transport _ | Client.Garbled _ -> Exit_code.timed_out)
  | Ok (Protocol.Err (reject, detail)) ->
      Printf.eprintf "%s: %s: %s\n" prog
        (Protocol.reject_to_string reject)
        detail;
      exit (exit_of_reject reject)
  | Ok resp -> resp

(* One logical request under the retry policy.  Mutating requests ride
   the Tagged envelope, so a retry after a lost response never
   double-executes. *)
let request_or_die ?policy ~prog socket req =
  answer_or_die ~prog (Client.call ?policy socket req)

let unexpected ~prog what =
  Printf.eprintf "%s: unexpected response to %s\n" prog what;
  exit Exit_code.protocol

type outcome = Ran of Protocol.run_reply | Does_not_compile of string

(* A run on the daemon; its compile error comes back as the same outcome
   a local run gives. *)
let run ?policy ~prog ~tenant ~session socket desc =
  let answer =
    Client.call ?policy socket (Protocol.run_request ~tenant ~session desc)
  in
  match answer with
  | Ok (Protocol.Err (Protocol.Bad_request, detail))
    when Executor.compile_error_of_detail detail <> None ->
      Does_not_compile (Option.get (Executor.compile_error_of_detail detail))
  | _ -> (
      match answer_or_die ~prog answer with
      | Protocol.Ran r -> Ran r
      | _ -> unexpected ~prog "run")

(* Print a run, local or remote: guest output to stdout, the fault line to
   stderr, then [extra] (a local run's counters), out-of-fuel as exit 3,
   otherwise the guest's own exit status.  A compile error prints
   FILE:LINE:COL: message and exits 2. *)
let finish ~prog ~file ~extra = function
  | Does_not_compile at -> Compile_args.does_not_compile file at
  | Ran r ->
      print_string r.Protocol.output;
      Option.iter (Printf.eprintf "fault: %s\n") r.Protocol.fault;
      extra ();
      if not r.Protocol.halted then begin
        Printf.eprintf "%s: out of fuel (execution did not complete)\n" prog;
        exit Exit_code.out_of_fuel
      end;
      exit (Option.value ~default:0 r.Protocol.exit_status)
