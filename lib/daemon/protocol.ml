(* Payloads are encoded with the Snapshot.Io primitives: a u8 constructor
   tag followed by the fields in declaration order.  Decoders run under
   [total]: Underflow becomes Truncated, a bad tag or flag byte becomes
   Corrupt — the same totality contract the checkpoint codec keeps. *)

module Io = Mips_resilience.Snapshot.Io

type codegen = { byte : bool; early_out : bool; level : int }

let default_codegen = { byte = false; early_out = false; level = 3 }

type desc = {
  source : string;
  cg : codegen;
  input : string;
  fuel : int;
  engine : string;
}

type request =
  | Ping
  | Compile of { tenant : string; source : string; cg : codegen }
  | Run of {
      tenant : string;
      session : string option;
      source : string;
      cg : codegen;
      input : string;
      fuel : int;
      engine : string;
    }
  | Soak of {
      tenant : string;
      session : string option;
      seed : int;
      steps : int;
      programs : int;
      segments : int;
      differential : int;
      engine : string;
    }
  | Report of { tenant : string }
  | Collect of { tenant : string; session : string }
  | Status
  | Shutdown
  | Tagged of { id : string; req : request }
      (* the idempotency envelope: a client-generated request ID the server
         deduplicates against its per-tenant replay window, so a retried
         mutating request is answered from the recorded first execution
         instead of running twice.  One level only: a Tagged inside a
         Tagged is Corrupt. *)

type run_reply = {
  output : string;
  exit_status : int option;
  halted : bool;
  fault : string option;
  cycles : int;
  retries : int;
}

type reject =
  | Bad_request
  | Garbled
  | Overloaded
  | Quota of string
  | Quarantined
  | Too_many_tenants
  | Unknown_session
  | Shutting_down
  | Internal

let reject_to_string = function
  | Bad_request -> "bad request"
  | Garbled -> "garbled frame"
  | Overloaded -> "overloaded"
  | Quota what -> "quota exceeded: " ^ what
  | Quarantined -> "tenant quarantined"
  | Too_many_tenants -> "too many tenants"
  | Unknown_session -> "unknown session"
  | Shutting_down -> "shutting down"
  | Internal -> "internal error"

type response =
  | Pong
  | Listing of string
  | Ran of run_reply
  | Soaked of string
  | Reported of string
  | Status_r of string
  | Bye
  | Err of reject * string

let rec tenant_of = function
  | Ping | Status | Shutdown -> None
  | Compile { tenant; _ }
  | Run { tenant; _ }
  | Soak { tenant; _ }
  | Report { tenant }
  | Collect { tenant; _ } ->
      Some tenant
  | Tagged { req; _ } -> tenant_of req

let rec request_kind = function
  | Ping -> "ping"
  | Compile _ -> "compile"
  | Run _ -> "run"
  | Soak _ -> "soak"
  | Report _ -> "report"
  | Collect _ -> "collect"
  | Status -> "status"
  | Shutdown -> "shutdown"
  | Tagged { req; _ } -> request_kind req

(* billable requests are the ones worth deduplicating: everything else is
   a cheap idempotent read the retry layer can simply re-issue *)
let mutating = function
  | Compile _ | Run _ | Soak _ | Report _ -> true
  | Ping | Status | Shutdown | Collect _ | Tagged _ -> false

let untag = function Tagged { id; req } -> (Some id, req) | req -> (None, req)

let run_request ~tenant ~session { source; cg; input; fuel; engine } =
  Run { tenant; session; source; cg; input; fuel; engine }

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       s

(* --- codecs ---------------------------------------------------------------- *)

let w_codegen b { byte; early_out; level } =
  Io.W.bool b byte;
  Io.W.bool b early_out;
  Io.W.u8 b level

let r_codegen r =
  let byte = Io.R.bool r in
  let early_out = Io.R.bool r in
  let level = Io.R.u8 r in
  if level > 3 then
    raise (Mips_resilience.Snapshot.Bad (Printf.sprintf "bad level %d" level));
  { byte; early_out; level }

(* a run description is laid out as the tail of a Run request *)
let w_desc b { source; cg; input; fuel; engine } =
  Io.W.str b source;
  w_codegen b cg;
  Io.W.str b input;
  Io.W.int b fuel;
  Io.W.str b engine

let r_desc r =
  let source = Io.R.str r in
  let cg = r_codegen r in
  let input = Io.R.str r in
  let fuel = Io.R.int r in
  let engine = Io.R.str r in
  { source; cg; input; fuel; engine }

let encode_desc d =
  let b = Io.W.create () in
  w_desc b d;
  Io.W.contents b

let rec w_request b req =
  (match req with
  | Ping -> Io.W.u8 b 0
  | Compile { tenant; source; cg } ->
      Io.W.u8 b 1;
      Io.W.str b tenant;
      Io.W.str b source;
      w_codegen b cg
  | Run { tenant; session; source; cg; input; fuel; engine } ->
      Io.W.u8 b 2;
      Io.W.str b tenant;
      Io.W.opt Io.W.str b session;
      w_desc b { source; cg; input; fuel; engine }
  | Soak { tenant; session; seed; steps; programs; segments; differential;
           engine } ->
      Io.W.u8 b 3;
      Io.W.str b tenant;
      Io.W.opt Io.W.str b session;
      Io.W.int b seed;
      Io.W.int b steps;
      Io.W.int b programs;
      Io.W.int b segments;
      Io.W.int b differential;
      Io.W.str b engine
  | Report { tenant } ->
      Io.W.u8 b 4;
      Io.W.str b tenant
  | Collect { tenant; session } ->
      Io.W.u8 b 5;
      Io.W.str b tenant;
      Io.W.str b session
  | Status -> Io.W.u8 b 6
  | Shutdown -> Io.W.u8 b 7
  | Tagged { id; req } ->
      Io.W.u8 b 8;
      Io.W.str b id;
      Io.W.str b (encode_request req))

and encode_request req =
  let b = Io.W.create () in
  w_request b req;
  Io.W.contents b

(* run a decoder body under the totality contract; trailing bytes after a
   well-formed value are a framing bug, so they are Corrupt too *)
let total f data =
  let r = Io.R.make data in
  match f r with
  | v ->
      if Io.R.remaining r = 0 then Ok v
      else Error (Frame.Corrupt "trailing bytes after payload")
  | exception Io.R.Underflow -> Error Frame.Truncated
  | exception Mips_resilience.Snapshot.Bad m -> Error (Frame.Corrupt m)

let bad fmt = Printf.ksprintf (fun m -> Mips_resilience.Snapshot.Bad m) fmt

let rec decode_request data =
  total
    (fun r ->
      match Io.R.u8 r with
      | 0 -> Ping
      | 1 ->
          let tenant = Io.R.str r in
          let source = Io.R.str r in
          let cg = r_codegen r in
          Compile { tenant; source; cg }
      | 2 ->
          let tenant = Io.R.str r in
          let session = Io.R.opt Io.R.str r in
          run_request ~tenant ~session (r_desc r)
      | 3 ->
          let tenant = Io.R.str r in
          let session = Io.R.opt Io.R.str r in
          let seed = Io.R.int r in
          let steps = Io.R.int r in
          let programs = Io.R.int r in
          let segments = Io.R.int r in
          let differential = Io.R.int r in
          let engine = Io.R.str r in
          Soak
            { tenant; session; seed; steps; programs; segments; differential;
              engine }
      | 4 -> Report { tenant = Io.R.str r }
      | 5 ->
          let tenant = Io.R.str r in
          let session = Io.R.str r in
          Collect { tenant; session }
      | 6 -> Status
      | 7 -> Shutdown
      | 8 -> (
          let id = Io.R.str r in
          if not (valid_name id) then raise (bad "invalid request id %S" id);
          match decode_request (Io.R.str r) with
          | Ok (Tagged _) -> raise (bad "nested request id")
          | Ok req -> Tagged { id; req }
          | Error e ->
              (* the envelope's length prefix held, so a broken inner body
                 is corruption of this frame, not outer truncation *)
              raise (bad "inner request: %s" (Frame.error_to_string e)))
      | t -> raise (bad "bad request tag %d" t))
    data

let w_reject b = function
  | Bad_request -> Io.W.u8 b 0
  | Overloaded -> Io.W.u8 b 1
  | Quota what ->
      Io.W.u8 b 2;
      Io.W.str b what
  | Quarantined -> Io.W.u8 b 3
  | Too_many_tenants -> Io.W.u8 b 4
  | Unknown_session -> Io.W.u8 b 5
  | Shutting_down -> Io.W.u8 b 6
  | Internal -> Io.W.u8 b 7
  | Garbled -> Io.W.u8 b 8

let r_reject r =
  match Io.R.u8 r with
  | 0 -> Bad_request
  | 1 -> Overloaded
  | 2 -> Quota (Io.R.str r)
  | 3 -> Quarantined
  | 4 -> Too_many_tenants
  | 5 -> Unknown_session
  | 6 -> Shutting_down
  | 7 -> Internal
  | 8 -> Garbled
  | t -> raise (bad "bad reject tag %d" t)

let encode_response resp =
  let b = Io.W.create () in
  (match resp with
  | Pong -> Io.W.u8 b 0
  | Listing s ->
      Io.W.u8 b 1;
      Io.W.str b s
  | Ran { output; exit_status; halted; fault; cycles; retries } ->
      Io.W.u8 b 2;
      Io.W.str b output;
      Io.W.opt Io.W.int b exit_status;
      Io.W.bool b halted;
      Io.W.opt Io.W.str b fault;
      Io.W.int b cycles;
      Io.W.int b retries
  | Soaked s ->
      Io.W.u8 b 3;
      Io.W.str b s
  | Reported s ->
      Io.W.u8 b 4;
      Io.W.str b s
  | Status_r s ->
      Io.W.u8 b 5;
      Io.W.str b s
  | Bye -> Io.W.u8 b 6
  | Err (reject, detail) ->
      Io.W.u8 b 7;
      w_reject b reject;
      Io.W.str b detail);
  Io.W.contents b

let decode_response data =
  total
    (fun r ->
      match Io.R.u8 r with
      | 0 -> Pong
      | 1 -> Listing (Io.R.str r)
      | 2 ->
          let output = Io.R.str r in
          let exit_status = Io.R.opt Io.R.int r in
          let halted = Io.R.bool r in
          let fault = Io.R.opt Io.R.str r in
          let cycles = Io.R.int r in
          let retries = Io.R.int r in
          Ran { output; exit_status; halted; fault; cycles; retries }
      | 3 -> Soaked (Io.R.str r)
      | 4 -> Reported (Io.R.str r)
      | 5 -> Status_r (Io.R.str r)
      | 6 -> Bye
      | 7 ->
          let reject = r_reject r in
          let detail = Io.R.str r in
          Err (reject, detail)
      | t -> raise (bad "bad response tag %d" t))
    data
