(** The one chained hash table behind {!Phashtbl} and {!Pstrmap}.

    A header block [count | nbuckets | dir], a directory of [nbuckets]
    chain heads (a power of two), and one block per entry:
    [key word | next | key-owned words | value].  The directory doubles,
    with a transactional rehash, when the load factor reaches 2.  The
    key module owns everything about the key: the word stored first in
    each entry, the bucket it hashes to, the match test, the blocks the
    key owns, and how it reads in [check] errors. *)

module type KEY = sig
  type t
  type word
  (** The key word stored first in each entry. *)

  val name : string
  (** The public module's name: prefixes errors; lowercased, it names
      the descriptor. *)

  val meta : int
  (** Entry bytes before the value. *)

  val word : t -> word
  val bucket : word -> int -> int
  (** [bucket w nb]: the chain of [w] among [nb] buckets. *)

  val stored : Pool_impl.t -> int -> word
  (** The key word of the entry at this offset. *)

  val matches : Pool_impl.t -> int -> word -> t -> bool
  (** Whether the entry holds this key (whose word is given). *)

  val store : Pool_impl.tx -> t -> int
  (** Allocate what the key owns, before its entry; returns the owned
      block (0 if none). *)

  val init : Pool_impl.t -> int -> word -> int -> unit
  (** Write the key's words into a fresh entry, given {!store}'s block. *)

  val release : Pool_impl.tx -> int -> unit
  (** Free what the entry's key owns. *)

  val get : Pool_impl.t -> int -> t
  val check : Pool_impl.t -> int -> (word, string) result
  (** The entry's key word, once its key-owned words are consistent. *)

  val to_string : t -> string
  val reach : Pool_impl.t -> int -> Ptype.edge list
  (** References out of the entry's key. *)
end

module Make (K : KEY) : sig
  type ('a, 'p) t

  val make : vty:('a, 'p) Ptype.t -> ?nbuckets:int -> 'p Journal.t -> ('a, 'p) t
  val length : ('a, 'p) t -> int
  val buckets : ('a, 'p) t -> int
  val is_empty : ('a, 'p) t -> bool
  val add : ('a, 'p) t -> key:K.t -> 'a -> 'p Journal.t -> unit
  val find : ('a, 'p) t -> K.t -> 'a option
  val mem : ('a, 'p) t -> K.t -> bool
  val remove : ('a, 'p) t -> K.t -> 'p Journal.t -> bool
  val fold : ('a, 'p) t -> init:'b -> f:('b -> K.t -> 'a -> 'b) -> 'b
  val iter : ('a, 'p) t -> (K.t -> 'a -> unit) -> unit
  val keys : ('a, 'p) t -> K.t list
  val to_list : ('a, 'p) t -> (K.t * 'a) list

  val clear : ('a, 'p) t -> 'p Journal.t -> unit
  (** Logs and zeroes only the non-empty chain heads. *)

  val drop : ('a, 'p) t -> 'p Journal.t -> unit
  val off : ('a, 'p) t -> int
  val check : ('a, 'p) t -> (unit, string) result
  val ptype : ('a, 'p) Ptype.t -> (('a, 'p) t, 'p) Ptype.t
  val ptype_rec : ('a, 'p) Ptype.t Lazy.t -> (('a, 'p) t, 'p) Ptype.t
end
