(** The one driver behind every checkpointed loop.  The caller's [step]
    keeps all loop state in what it drives, so slicing never changes what
    runs: [k] slices of [n] steps are one [k*n]-step run. *)

type outcome = Finished | Exhausted | Stopped

val run :
  ?max_slices:int -> every:int -> total:int -> step:(int -> bool) ->
  boundary:(int -> unit) -> unit -> outcome
(** Run [total] steps as calls [step n], [n = min every left] ([every] at
    least 1); [step] returns [true] when the work completed early
    ([Finished]).  [boundary done_] runs between slices only — never after
    the last — with the steps run so far.  [Stopped] when [max_slices]
    slices ran first; [Exhausted] when all [total] ran. *)
