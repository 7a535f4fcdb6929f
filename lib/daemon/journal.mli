(** The [mipsd] session journal: the one owner of its on-disk format (file
    names, container kinds and sections), and its [fsck].

    The journal's invariant is that every session on disk is one of:
    {ul
    {- {e finished} — a valid [.done] holds the recorded response; any
       leftover [.meta]/[.ckpt]/[.soak] is stale and removable;}
    {- {e recoverable} — a valid [.meta] holds the request, and because
       every job is a deterministic function of its journalled
       parameters, corrupt checkpoints (or a torn [.done]) may simply be
       deleted and recomputed;}
    {- {e unrecoverable} — neither root decodes.  These are moved into
       [quarantine/] so a damaged journal degrades to a smaller journal
       instead of a daemon that refuses to start.}}

    Run by [mipsd fsck] and by {!Server.start} before recovery, so the
    recovery scan only ever sees a journal the invariant holds for.
    Validity checks ride the {!Mips_resilience.Snapshot} container digest:
    truncation and bit damage from a torn write are detected, not just
    unparsable bytes. *)

(** {2 The format} *)

(** A session's four files: its request, journalled before any work; a run
    checkpoint; a soak checkpoint; its recorded final response. *)
type file = Meta | Ckpt | Soak | Done

val path : string -> string -> file -> string
(** [path dir id file] is [dir/session-<id><ext>]. *)

val kind : file -> string
(** The {!Mips_resilience.Snapshot} container kind [file] carries. *)

val write_meta : string -> Protocol.request -> unit
val write_done : string -> tenant:string -> Protocol.response -> unit

val read_done : string -> (string * Protocol.response) option
(** The owning tenant and the response; [None] unless both decode from a
    [Done] container.  fsck judges [.meta] and [.done] files with the same
    readers. *)

val pending : string -> (string * Protocol.request) list
(** The sessions in [dir] that recovery resubmits, sorted by id: a valid
    [.meta] and no valid [.done]. *)

(** {2 fsck} *)

type verdict =
  | Intact
  | Repaired of string list  (** repair actions taken *)
  | Quarantined of string list  (** files moved into [quarantine/] *)

type report = {
  dir : string;
  scanned : int;  (** sessions examined *)
  intact : int;
  repaired : int;
  quarantined : int;
  tmp_removed : int;  (** leftover atomic-write [.tmp] files deleted *)
  sessions : (string * verdict) list;  (** sorted by session id *)
}

val fsck : string -> (report, string) result
(** Scan and repair [dir] in place.  [Error] only when [dir] is not a
    readable directory — damaged session files are never an error, they
    are what fsck exists to absorb. *)

val report_json : report -> Mips_obs.Json.t
(** Schema ["mipsd-fsck/1"]. *)

val pp_report : Format.formatter -> report -> unit
