(** A reusable buffer of 64-byte line indexes, flushed as coalesced runs.

    The one form of every commit line set: a journal slot's logged
    targets, table marks and table clears, a group-commit epoch's merged
    batch, and the CoW engine's shadow, publish and clear lines.  It
    grows by doubling and is never shrunk, so a buffer reused across
    transactions stops allocating once it has held its largest set. *)

type t

val create : unit -> t

val clear : t -> unit
(** Empty the buffer, keeping its storage. *)

val is_empty : t -> bool

val add : t -> int -> unit
(** Add one line index.  Duplicates are allowed (a line equal to the
    last one added is skipped at once; [flush] skips the rest). *)

val add_range : t -> off:int -> len:int -> unit
(** Add every line intersecting the byte range [\[off, off+len)]
    ([len > 0]). *)

val append : t -> t -> unit
(** [append t src] adds every entry of [src] to [t]. *)

val remove_lines : t -> first:int -> last:int -> unit
(** Drop every entry in [\[first, last\]]. *)

val flush : Pmem.Device.t -> t -> unit
(** Sort the entries in place and flush the distinct lines as one
    [Device.flush] call per contiguous run, never merged across a gap,
    in ascending order.  The buffer keeps its (now sorted) entries. *)
