(** [Pbytes] — mutable persistent byte buffer.

    Where {!Pstring} is an immutable blob, a [Pbytes] supports in-place
    logged sub-range writes and transactional resizing — the building
    block for file-like data.  Layout mirrors {!Pvec}: a small header
    ([length | capacity | data pointer]) plus a data block that doubles
    on demand. *)

type 'p t

val make : ?capacity:int -> 'p Journal.t -> 'p t
(** An empty buffer. *)

val of_string : string -> 'p Journal.t -> 'p t
val length : 'p t -> int
val capacity : 'p t -> int

val get : 'p t -> int -> char
val read : 'p t -> pos:int -> len:int -> string
(** Raises [Invalid_argument] when the range leaves the buffer. *)

val to_string : 'p t -> string

val set : 'p t -> int -> char -> 'p Journal.t -> unit
val write : 'p t -> pos:int -> string -> 'p Journal.t -> unit
(** Overwrite [pos, pos + length s); must lie inside the buffer. *)

val append : 'p t -> string -> 'p Journal.t -> unit
(** Extend at the end, growing the data block as needed. *)

val truncate : 'p t -> int -> 'p Journal.t -> unit
(** Shorten to the given length (raises if longer than the contents). *)

val drop : 'p t -> 'p Journal.t -> unit
val off : 'p t -> int

val unsafe_at : Pool_impl.t -> int -> 'p t
(** The buffer whose header block is at the given offset, unchecked.
    Library-internal: lets a container that stores a buffer handle read
    it without building a {!ptype} descriptor per access. *)

val ptype : unit -> ('p t, 'p) Ptype.t
