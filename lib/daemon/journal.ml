(* The session journal on disk is four file kinds per session id:

     session-<id>.meta   "mipsd-meta"   the request, journalled before work
     session-<id>.ckpt   "run"          a run checkpoint (Executor's)
     session-<id>.soak   "soak"         a soak checkpoint
     session-<id>.done   "mipsd-done"   the recorded final response

   fsck restores the journal's one invariant after arbitrary torn writes:
   every session either has a valid .done (its result is the truth and any
   leftover working files are stale), or a valid .meta (the session is a
   pure function of its journalled request, so anything else about it may
   be deleted and recomputed), or it is unrecoverable and gets moved into
   quarantine/ rather than wedging daemon startup.  Snapshot containers
   are digest-checked, so "valid" detects truncation and bit damage, not
   just unparsable garbage. *)

module Snapshot = Mips_resilience.Snapshot
module Json = Mips_obs.Json

type verdict = Intact | Repaired of string list | Quarantined of string list

type report = {
  dir : string;
  scanned : int;
  intact : int;
  repaired : int;
  quarantined : int;
  tmp_removed : int;
  sessions : (string * verdict) list;
}

type file = Meta | Ckpt | Soak | Done

let ext = function
  | Meta -> ".meta"
  | Ckpt -> ".ckpt"
  | Soak -> ".soak"
  | Done -> ".done"

let kind = function
  | Meta -> "mipsd-meta"
  | Ckpt -> Executor.checkpoint_kind
  | Soak -> "soak"
  | Done -> "mipsd-done"

let name id file = "session-" ^ id ^ ext file
let path dir id file = Filename.concat dir (name id file)

(* "session-<id><ext>" for a known ext *)
let classify f =
  List.find_map
    (fun file ->
      match Filename.chop_suffix_opt ~suffix:(ext file) f with
      | Some base
        when String.length base > 8 && String.starts_with ~prefix:"session-" base ->
          Some (String.sub base 8 (String.length base - 8), file)
      | _ -> None)
    [ Meta; Ckpt; Soak; Done ]

(* the sessions among directory entries [names], sorted by id, each with
   the journal files it has *)
let sessions names =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun f ->
      match classify f with
      | Some (id, file) ->
          Hashtbl.replace tbl id
            (file :: Option.value ~default:[] (Hashtbl.find_opt tbl id))
      | None -> ())
    names;
  Hashtbl.fold (fun id files acc -> (id, files) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* a container of [file]'s kind, its sections read by [decode] *)
let read path file decode =
  match Snapshot.read_file path with
  | Ok c when String.equal c.Snapshot.kind (kind file) -> decode c
  | Ok _ | Error _ -> None

let section c name = Result.to_option (Snapshot.section c name)

let write path file sections =
  Snapshot.write_file path (Snapshot.encode { Snapshot.kind = kind file; sections })

let write_meta path req = write path Meta [ ("request", Protocol.encode_request req) ]

let read_meta path =
  read path Meta (fun c ->
      Option.bind (section c "request") (fun r ->
          Result.to_option (Protocol.decode_request r)))

let write_done path ~tenant resp =
  write path Done [ ("tenant", tenant); ("response", Protocol.encode_response resp) ]

let read_done path =
  read path Done (fun c ->
      match (section c "tenant", section c "response") with
      | Some tenant, Some r ->
          Option.map (fun resp -> (tenant, resp))
            (Result.to_option (Protocol.decode_response r))
      | _ -> None)

(* Checkpoint payloads are re-validated on resume (a damaged run
   checkpoint just restarts the run), so container validity is the bar
   there; .meta and .done are the recovery roots and must decode all the
   way down. *)
let valid path = function
  | Meta -> read_meta path <> None
  | Done -> read_done path <> None
  | (Ckpt | Soak) as file -> read path file (fun _ -> Some ()) <> None

let pending dir =
  sessions (Array.to_list (Sys.readdir dir))
  |> List.filter_map (fun (id, files) ->
         if List.mem Meta files && read_done (path dir id Done) = None then
           Option.map (fun req -> (id, req)) (read_meta (path dir id Meta))
         else None)

let fsck dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "not a directory: %s" dir)
  else begin
    let files =
      Sys.readdir dir |> Array.to_list |> List.sort String.compare
    in
    (* leftovers of interrupted atomic writes: never the live copy *)
    let tmp_removed =
      List.fold_left
        (fun n f ->
          if Filename.check_suffix f ".tmp" then begin
            (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
            n + 1
          end
          else n)
        0 files
    in
    let quarantine_dir = Filename.concat dir "quarantine" in
    let quarantine id present =
      if not (Sys.file_exists quarantine_dir) then (
        try Unix.mkdir quarantine_dir 0o755 with Unix.Unix_error _ -> ());
      List.filter_map
        (fun file ->
          let name = name id file in
          let src = Filename.concat dir name in
          if Sys.file_exists src then (
            try
              Sys.rename src (Filename.concat quarantine_dir name);
              Some name
            with Sys_error _ -> None)
          else None)
        present
    in
    let sessions =
      List.map
        (fun (id, present) ->
          let have file = List.mem file present in
          let ok file = have file && valid (path dir id file) file in
          let rm file =
            try Sys.remove (path dir id file) with Sys_error _ -> ()
          in
          let verdict =
            if ok Done then begin
              (* the recorded result is the truth; working files are
                 leftovers of a crash after completion *)
              let stale = List.filter have [ Meta; Ckpt; Soak ] in
              if stale = [] then Intact
              else begin
                List.iter rm stale;
                Repaired
                  (List.map (fun f -> "removed stale " ^ name id f) stale)
              end
            end
            else if ok Meta then begin
              (* recoverable from the journalled request: drop anything
                 that would poison the resume *)
              let actions = ref [] in
              List.iter
                (fun file ->
                  if have file && not (ok file) then begin
                    rm file;
                    actions := ("removed corrupt " ^ name id file) :: !actions
                  end)
                [ Done; Ckpt; Soak ];
              if !actions = [] then Intact else Repaired (List.rev !actions)
            end
            else
              (* no valid result, no valid request: nothing to replay
                 from — move the wreckage aside so the daemon still
                 starts *)
              Quarantined (quarantine id present)
          in
          (id, verdict))
        (sessions files)
    in
    let count p = List.length (List.filter (fun (_, v) -> p v) sessions) in
    Ok
      {
        dir;
        scanned = List.length sessions;
        intact = count (function Intact -> true | _ -> false);
        repaired = count (function Repaired _ -> true | _ -> false);
        quarantined = count (function Quarantined _ -> true | _ -> false);
        tmp_removed;
        sessions;
      }
  end

let report_json r =
  let verdict_json = function
    | Intact -> Json.Obj [ ("verdict", Json.Str "intact") ]
    | Repaired actions ->
        Json.Obj
          [ ("verdict", Json.Str "repaired");
            ("actions", Json.List (List.map (fun a -> Json.Str a) actions)) ]
    | Quarantined files ->
        Json.Obj
          [ ("verdict", Json.Str "quarantined");
            ("files", Json.List (List.map (fun f -> Json.Str f) files)) ]
  in
  Json.Obj
    [ ("schema", Json.Str "mipsd-fsck/1");
      ("dir", Json.Str r.dir);
      ("scanned", Json.Int r.scanned);
      ("intact", Json.Int r.intact);
      ("repaired", Json.Int r.repaired);
      ("quarantined", Json.Int r.quarantined);
      ("tmp_removed", Json.Int r.tmp_removed);
      ( "sessions",
        Json.Obj
          (List.map (fun (id, v) -> (id, verdict_json v)) r.sessions) ) ]

let pp_report ppf r =
  Format.fprintf ppf
    "fsck %s: %d session%s scanned, %d intact, %d repaired, %d quarantined"
    r.dir r.scanned
    (if r.scanned = 1 then "" else "s")
    r.intact r.repaired r.quarantined;
  if r.tmp_removed > 0 then
    Format.fprintf ppf ", %d stale temp file%s removed" r.tmp_removed
      (if r.tmp_removed = 1 then "" else "s");
  List.iter
    (fun (id, v) ->
      match v with
      | Intact -> ()
      | Repaired actions ->
          List.iter
            (fun a -> Format.fprintf ppf "@.  repaired %s: %s" id a)
            actions
      | Quarantined files ->
          List.iter
            (fun f -> Format.fprintf ppf "@.  quarantined %s: %s" id f)
            files)
    r.sessions
