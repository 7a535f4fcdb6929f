type t = {
  enabled : bool;
  emit : Event.t -> unit;
  flush : unit -> unit;
}

let null = { enabled = false; emit = (fun _ -> ()); flush = (fun () -> ()) }
let enabled t = t.enabled
let emit t e = if t.enabled then t.emit e
let flush t = t.flush ()
let make ?(flush = fun () -> ()) emit = { enabled = true; emit; flush }

let of_fun f = make f

let tee a b =
  match (a.enabled, b.enabled) with
  | false, false -> null
  | true, false -> a
  | false, true -> b
  | true, true ->
      {
        enabled = true;
        emit =
          (fun e ->
            a.emit e;
            b.emit e);
        flush =
          (fun () ->
            a.flush ();
            b.flush ());
      }

(* --- bounded ring buffer -------------------------------------------------- *)

type ring = {
  slots : Event.t option array;
  mutable next : int;  (* next write position *)
  mutable seen : int;  (* total events ever emitted *)
}

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  let r = { slots = Array.make capacity None; next = 0; seen = 0 } in
  let sink =
    make (fun e ->
        r.slots.(r.next) <- Some e;
        r.next <- (r.next + 1) mod capacity;
        r.seen <- r.seen + 1)
  in
  (r, sink)

let ring_capacity r = Array.length r.slots
let ring_seen r = r.seen
let ring_dropped r = max 0 (r.seen - Array.length r.slots)

let ring_contents r =
  let cap = Array.length r.slots in
  let n = min r.seen cap in
  (* oldest first: when full the oldest lives at [next] *)
  let start = if r.seen < cap then 0 else r.next in
  List.init n (fun i ->
      match r.slots.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false)

(* --- textual sinks -------------------------------------------------------- *)

let formatter ppf =
  make
    ~flush:(fun () -> Format.pp_print_flush ppf ())
    (fun e -> Format.fprintf ppf "%a@." Event.pp e)

let jsonl_channel oc =
  make
    ~flush:(fun () -> Stdlib.flush oc)
    (fun e ->
      output_string oc (Json.to_string (Event.to_json e));
      output_char oc '\n')

let jsonl_buffer buf =
  make (fun e ->
      Json.to_buffer buf (Event.to_json e);
      Buffer.add_char buf '\n')

type format = Text | Jsonl

let to_channel format oc =
  match format with
  | Text -> formatter (Format.formatter_of_out_channel oc)
  | Jsonl -> jsonl_channel oc
