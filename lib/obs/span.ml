(* Wall-clock spans for host-side phase timing.

   A span collector is a per-lane (per-Domain) stack of open spans plus a
   list of closed ones.  Lanes never share mutable state: a tracer
   pre-allocates one collector per worker lane, each worker domain writes
   only its own, and the merged view is read after the workers have joined
   — as in [Mips_par.map_spans], which gives each worker Domain its lane.

   The clock is injected so this module (like the rest of [Mips_obs]) has
   no dependency on [unix]; callers that want wall time pass
   [Unix.gettimeofday].  The default [Sys.time] still nests and exports
   correctly, it just measures processor seconds. *)

type span = {
  sp_name : string;
  sp_lane : int;
  sp_start : float;  (* seconds, collector clock *)
  sp_dur : float;
  sp_depth : int;  (* nesting depth at entry, 0 = top level *)
}

type t = {
  enabled : bool;
  clock : unit -> float;
  lane_id : int;
  mutable open_spans : (string * float) list;  (* innermost first *)
  mutable closed : span list;  (* reverse completion order *)
}

let null =
  { enabled = false;
    clock = (fun () -> 0.);
    lane_id = 0;
    open_spans = [];
    closed = [] }

let create ?(clock = Sys.time) ?(lane = 0) () =
  { enabled = true; clock; lane_id = lane; open_spans = []; closed = [] }

let enter t name =
  if t.enabled then t.open_spans <- (name, t.clock ()) :: t.open_spans

let leave t =
  if t.enabled then
    match t.open_spans with
    | [] -> ()
    | (name, start) :: rest ->
        t.open_spans <- rest;
        t.closed <-
          { sp_name = name;
            sp_lane = t.lane_id;
            sp_start = start;
            sp_dur = t.clock () -. start;
            sp_depth = List.length rest }
          :: t.closed

let with_ t name f =
  if not t.enabled then f ()
  else begin
    enter t name;
    Fun.protect ~finally:(fun () -> leave t) f
  end

let compare_spans a b =
  match compare a.sp_start b.sp_start with
  | 0 -> (
      match compare a.sp_lane b.sp_lane with
      | 0 -> compare a.sp_depth b.sp_depth
      | c -> c)
  | c -> c

let spans t = List.stable_sort compare_spans (List.rev t.closed)

(* --- tracers: one lane per worker domain -------------------------------- *)

type tracer = { tr_enabled : bool; tr_lanes : t array }

let no_tracer = { tr_enabled = false; tr_lanes = [| null |] }

let tracer ?clock ~lanes () =
  let lanes = max 1 lanes in
  { tr_enabled = true;
    tr_lanes = Array.init lanes (fun i -> create ?clock ~lane:i ()) }

let tracer_enabled tr = tr.tr_enabled

(* Out-of-range worker ids wrap rather than fail, so a caller sizing the
   tracer for [jobs] lanes is safe even if the pool spawns more workers. *)
let lane tr i =
  let n = Array.length tr.tr_lanes in
  tr.tr_lanes.(((i mod n) + n) mod n)

let tracer_spans tr =
  List.stable_sort compare_spans
    (List.concat_map (fun l -> List.rev l.closed) (Array.to_list tr.tr_lanes))

(* --- Chrome trace-event export ------------------------------------------ *)

(* The JSON object format chrome://tracing and Perfetto load: complete
   ("ph":"X") events with microsecond timestamps, one pid for the process
   and one tid per lane, plus metadata events naming them.  Timestamps are
   rebased to the earliest span so traces start at t=0 regardless of the
   clock's epoch. *)
let to_chrome ?(process = "mipsc") spans =
  let t0 = List.fold_left (fun acc s -> min acc s.sp_start) infinity spans in
  let t0 = if t0 = infinity then 0. else t0 in
  let us dt = Json.Float (1e6 *. dt) in
  let lanes =
    List.sort_uniq compare (List.map (fun s -> s.sp_lane) spans)
  in
  let meta name pairs =
    Json.Obj
      ([ ("name", Json.Str name);
         ("ph", Json.Str "M");
         ("pid", Json.Int 1) ]
      @ pairs)
  in
  let process_meta =
    meta "process_name"
      [ ("args", Json.Obj [ ("name", Json.Str process) ]) ]
  in
  let lane_meta l =
    meta "thread_name"
      [ ("tid", Json.Int l);
        ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "lane %d" l)) ])
      ]
  in
  let event s =
    Json.Obj
      [ ("name", Json.Str s.sp_name);
        ("cat", Json.Str "mipsc");
        ("ph", Json.Str "X");
        ("pid", Json.Int 1);
        ("tid", Json.Int s.sp_lane);
        ("ts", us (s.sp_start -. t0));
        ("dur", us s.sp_dur) ]
  in
  Json.Obj
    [ ( "traceEvents",
        Json.List
          ((process_meta :: List.map lane_meta lanes)
          @ List.map event spans) );
      ("displayTimeUnit", Json.Str "ms") ]
