(** Brand-indexed persistent type descriptors — the [PSafe] witness.

    A [('a, 'p) Ptype.t] is evidence that values of OCaml type ['a] may be
    stored in pools of brand ['p], together with the machinery to do so:
    a fixed byte footprint, serialization, ownership release ([drop]) and
    reference enumeration ([reach], used by the heap reachability checker).

    The descriptor plays the role of Rust's [PSafe] auto trait: OCaml
    values for which no descriptor can be built (closures, file handles,
    mutable volatile structures, pointers into other pools) simply cannot
    enter a pool.  Pointer descriptors ({!Pbox.ptype}, {!Prc.ptype}, …)
    force the inner brand to equal the outer pool's brand, which is what
    makes cross-pool pointers a compile-time type error.

    All footprints are multiples of 8 bytes so fields stay aligned. *)

type ('a, +'p) t

type edge = { block : int; follow : Pool_impl.t -> edge list }
(** One owned or weak reference out of a stored value: the referenced
    block's offset and a continuation enumerating that block's own
    outgoing references. *)

(** {1 Descriptor fields} *)

val name : ('a, 'p) t -> string
val size : ('a, 'p) t -> int
val hash : ('a, 'p) t -> int
(** Stable hash of the structural name; stored in the pool header to
    detect root-type mismatches across reopens. *)

val read : ('a, 'p) t -> Pool_impl.t -> int -> 'a
val write : ('a, 'p) t -> Pool_impl.t -> int -> 'a -> unit
(** Raw serialization.  Logging is the caller's responsibility; every
    mutator in the typed API logs before calling [write]. *)

val drop : ('a, 'p) t -> Pool_impl.tx -> int -> unit
(** Release everything the stored value owns (recursively), inside a
    transaction. *)

val reach : ('a, 'p) t -> Pool_impl.t -> int -> edge list

(** {1 Scalars} *)

val unit : (unit, 'p) t
val int : (int, 'p) t
val int64 : (int64, 'p) t
val bool : (bool, 'p) t
val char : (char, 'p) t
val float : (float, 'p) t

(** {1 Combinators} *)

val pair : ('a, 'p) t -> ('b, 'p) t -> ('a * 'b, 'p) t
val triple : ('a, 'p) t -> ('b, 'p) t -> ('c, 'p) t -> ('a * 'b * 'c, 'p) t
val option : ('a, 'p) t -> ('a option, 'p) t
(** Tagged: 8-byte tag + payload; [None] zeroes the payload so dead
    pointers cannot survive in it. *)

val either : ('a, 'p) t -> ('b, 'p) t -> (('a, 'b) Either.t, 'p) t
(** Binary sum: 8-byte tag + the larger payload, with the unused tail
    zeroed on writes.  The building block for persisting variant types
    (compose with {!map} for richer sums). *)

val fixed_string : int -> (string, 'p) t
(** Inline string of at most [n] bytes (length-prefixed, padded). *)

val array : int -> ('a, 'p) t -> ('a array, 'p) t
(** Inline fixed-length array; reading yields exactly [n] elements and
    writing requires exactly [n]. *)

val map : ?name:string -> to_:('a -> 'b) -> of_:('b -> 'a) -> ('a, 'p) t -> ('b, 'p) t
(** Isomorphism lifting, for mapping tuples onto user records. *)

val record2 :
  name:string ->
  inj:('a -> 'b -> 'r) ->
  proj:('r -> 'a * 'b) ->
  ('a, 'p) t ->
  ('b, 'p) t ->
  ('r, 'p) t

val record3 :
  name:string ->
  inj:('a -> 'b -> 'c -> 'r) ->
  proj:('r -> 'a * 'b * 'c) ->
  ('a, 'p) t ->
  ('b, 'p) t ->
  ('c, 'p) t ->
  ('r, 'p) t

val record4 :
  name:string ->
  inj:('a -> 'b -> 'c -> 'd -> 'r) ->
  proj:('r -> 'a * 'b * 'c * 'd) ->
  ('a, 'p) t ->
  ('b, 'p) t ->
  ('c, 'p) t ->
  ('d, 'p) t ->
  ('r, 'p) t

val record5 :
  name:string ->
  inj:('a -> 'b -> 'c -> 'd -> 'e -> 'r) ->
  proj:('r -> 'a * 'b * 'c * 'd * 'e) ->
  ('a, 'p) t ->
  ('b, 'p) t ->
  ('c, 'p) t ->
  ('d, 'p) t ->
  ('e, 'p) t ->
  ('r, 'p) t

val record6 :
  name:string ->
  inj:('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'r) ->
  proj:('r -> 'a * 'b * 'c * 'd * 'e * 'f) ->
  ('a, 'p) t ->
  ('b, 'p) t ->
  ('c, 'p) t ->
  ('d, 'p) t ->
  ('e, 'p) t ->
  ('f, 'p) t ->
  ('r, 'p) t

(** {1 Building new descriptors (pointer libraries only)} *)

val make :
  name:string ->
  size:int ->
  read:(Pool_impl.t -> int -> 'a) ->
  write:(Pool_impl.t -> int -> 'a -> unit) ->
  drop:(Pool_impl.tx -> int -> unit) ->
  reach:(Pool_impl.t -> int -> edge list) ->
  ('a, 'p) t
(** Escape hatch used by {!Prc}, {!Parc} and the cell wrapper types to
    define their own layouts; containers use {!handle}.  [size] must be
    a multiple of 8. *)

(** {1 Container handles} *)

type ('a, 'p) elt =
  | Of of ('a, 'p) t  (** element type known: named ["<elt> <name>"] *)
  | Of_rec of ('a, 'p) t Lazy.t
      (** recursive knot, forced on first use: named ["<name>"] *)

val handle :
  name:string ->
  wrap:(Pool_impl.t -> int -> ('a, 'p) t -> 'h) ->
  hdr:('h -> int) ->
  drop:('h -> 'p Journal.t -> unit) ->
  edges:('h -> edge list) ->
  ('a, 'p) elt ->
  ('h, 'p) t
(** The one descriptor of a container handle stored as an 8-byte offset
    to its header block (0 = none).  [wrap pool hdr elt] rebuilds the
    handle, [hdr] is its header offset, [drop] releases a non-null
    handle, and [edges h] enumerates the references out of its header
    block.  Every container's [ptype] and [ptype_rec] come from here;
    element-less handles pass [Of_rec (lazy unit)] to keep their bare
    name.  Names are stable: {!hash} of the root type is stored in the
    pool header. *)

val field_offsets : ('a, 'p) t list -> int list
(** Cumulative offsets of consecutive fields (test support). *)
