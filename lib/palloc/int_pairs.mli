(** A set of [(key, value)] int pairs, looked up by key: an
    open-addressed flat array that allocates only when it grows.

    It backs the journal's per-transaction dedup sets, the pool's
    held-locks table and {!Buddy}'s free-head index.  Keys must not be [-1], and a value of [-1] reads
    as absent to {!find}. *)

type t

val create : unit -> t

val find : t -> int -> int
(** [find t key] is the value of an entry with [key], or [-1] when there
    is none. *)

val mem : t -> int -> int -> bool
(** [mem t key v]: the pair [(key, v)] is present. *)

val add : t -> int -> int -> unit
(** Add a pair; a key may be added more than once. *)

val replace : t -> int -> int -> unit
(** [replace t key v] sets the value of the entry {!find} reads to [v],
    in place.  Raises [Not_found] when there is no entry with [key]. *)

val remove : t -> int -> unit
(** Remove one entry with [key], if any: the one {!find} reads. *)

val clear : t -> unit
(** Empty the table, shrinking it back to its initial size if it grew. *)
