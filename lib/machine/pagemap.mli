(** The off-chip page-level mapping unit.

    Translates {e global} virtual addresses (as produced by the on-chip
    segmentation, {!Segmap}) to physical addresses.  Because the
    segmentation already folded the process id into the address, "an
    off-chip page map [can] simultaneously contain entries for many
    processes without a corresponding increase in the tag field size"
    (paper, Section 3.1).

    The machine has separate instruction and data spaces (the dual
    instruction/data memory interface), so each mapping is keyed by the
    space as well as the page number.  The map is a flat table per space,
    indexed by global virtual page, as the paper's off-chip map is one
    table lookup per reference. *)

type space = Ispace | Dspace [@@deriving eq, ord, show]

type entry = {
  frame : int;  (** physical frame number *)
  writable : bool;
  mutable referenced : bool;
  mutable dirty : bool;
}

type t

exception Fault of space * int
(** Raised by {!translate} with the faulting global virtual address. *)

val page_bits : int
(** log2 of {!page_words}. *)

val page_words : int
(** Page size in words (1024 words = 4 KB). *)

val create : unit -> t
(** An empty map.  Each space's table of the global space's
    [2{^Segmap.vspace_bits} / page_words] pages is allocated on its first
    mapping there, so translation is one array read whatever the number of
    entries, and allocates nothing. *)

val clear : t -> unit
(** Remove every mapping in place: afterwards the map answers as
    {!create}'s does, [entries] order included, and costs the entries it
    held, not the size of the global space. *)

val map : t -> space -> vpage:int -> frame:int -> writable:bool -> unit
(** @raise Invalid_argument when [vpage] lies outside the global virtual
    space, where no translation can reach it. *)

val unmap : t -> space -> vpage:int -> unit
val find : t -> space -> vpage:int -> entry option

val translate : t -> space -> write:bool -> int -> int
(** [translate t space ~write gaddr] is the physical word address.
    Sets the referenced bit, and the dirty bit when [write].
    @raise Fault on a missing entry or a write to a read-only page. *)

val drop_clean : t -> pick:int -> (space * int) option
(** Silently unmap one {e clean} (non-dirty) entry — a simulated TLB drop
    for fault injection.  The victim is chosen deterministically by [pick]
    (modulo the clean-entry count, in sorted key order).  Dirty pages are
    never dropped: this map is the only record of where their data lives, so
    dropping one would lose writes rather than model a transient.  [None]
    when every entry is dirty or the map is empty. *)

val entries : t -> (space * int * entry) list
(** All mappings, for inspection and page-replacement policies. *)

