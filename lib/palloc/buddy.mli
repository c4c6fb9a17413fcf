(** Crash-consistent buddy allocator over a {!Pmem.Device} heap region.

    Durable state is the {!Alloc_table}; free space is tracked in volatile
    per-stripe free lists derived from it, so the allocator itself never
    needs multi-word atomic updates.  {!attach} reads no table byte: the
    first operation on a stripe builds its lists from its table slice,
    and pays for it.  The volatile side is O(1) per operation and sized
    by the free heads, not the heap: array-backed LIFO stacks per order,
    a sparse {!Int_pairs} index from each free head to its order and
    stack position (buddy-membership tests and O(1) unlinking), and a
    non-empty-order bitmask, so reserve/insert/merge never scan.  The
    index costs 32–64 B per free head against a fixed 9 B per 64-byte
    block for per-block arrays, so it is the larger only on a heap where
    about one block in seven or more heads a free list.

    Transactional allocation uses a three-step protocol driven by the
    journal layer:

    + {!reserve} removes a block from the volatile free lists (no durable
      effect — a crash here loses nothing);
    + the journal durably records the allocation intent (seals the undo
      entry);
    + {!commit} marks the table byte {e dirty-only}; the journal collects
      the mark's 64-byte table line (see {!mark_line}) and flushes all
      collected lines in coalesced runs under its commit fence.

    The mark-after-seal order is the safety invariant: a mark can only
    become durable after its undo entry is sealed, so recovery frees any
    block whose mark persisted without a committed transaction, and a mark
    that failed to persist is indistinguishable from a rolled-back
    reservation.

    If the transaction aborts, {!cancel} (before commit) or a journal-driven
    {!dealloc} (after commit) undoes the allocation.  Frees inside a
    transaction are deferred by the journal and applied at commit via
    {!dealloc}, which is idempotent at the table level. *)

exception Out_of_pmem
(** No stripe can satisfy the request. *)

exception Invalid_free of int
(** Raised by {!dealloc} when the offset is not the head of a live block
    (double free or wild free). *)

type t

type reservation = private { r_idx : int; r_order : int }

val create :
  ?stripes:int -> Pmem.Device.t -> table_base:int -> heap_base:int -> heap_len:int -> t
(** Format a fresh heap (zeroes the allocation table).  [stripes]
    (default 1) partitions the heap into independently locked arenas —
    the paper's per-thread allocators; allocations prefer the caller's
    {e hint} stripe and steal from others under pressure.  Stripe
    boundaries sit on power-of-two block indices, so buddies never cross
    them; with [n] stripes the largest allocatable block is roughly
    [heap/n]. *)

val attach :
  ?stripes:int -> Pmem.Device.t -> table_base:int -> heap_base:int -> heap_len:int -> t
(** Bind to an existing heap without reading it: a stripe's free lists
    are built from its table slice at its first use, which is also where
    an impossible order byte ({!Alloc_table.iter_allocated}) raises.
    The striping is volatile policy, not media format: any [stripes]
    value may be used on any heap. *)

val table : t -> Alloc_table.t
val max_order : t -> int
val stripes : t -> int
val order_of_size : int -> int
(** Smallest order whose block size is >= the given byte size. *)

val size_of_order : int -> int

(** {1 Reservation protocol} *)

val reserve : ?hint:int -> t -> int -> reservation
(** [reserve t size] claims a block of at least [size] bytes from the
    volatile free lists, preferring stripe [hint mod stripes] (taken
    non-negative, so any [int] is a valid hint).  Raises {!Out_of_pmem}. *)

val cancel : t -> reservation -> unit
(** Return an uncommitted reservation to the free lists. *)

val commit : t -> reservation -> unit
(** Mark the reservation allocated in the table, dirty-only.  The caller
    owns durability: collect {!mark_line} and flush it (batched) before
    the transaction's commit fence. *)

val commit_durable : t -> reservation -> unit
(** [commit] + persist of the table byte, for non-transactional callers. *)

val offset_of_reservation : t -> reservation -> int

val mark_line : t -> reservation -> int
(** Device line number of the table byte {!commit} dirties — the unit the
    journal collects for coalesced flushing. *)

val line_of_offset : t -> int -> int
(** Device line number of the table byte for the block headed at a heap
    offset (the clear line of a deferred free). *)

(** {1 One-shot interface (non-transactional callers and recovery)} *)

val alloc : ?hint:int -> t -> int -> int
(** [reserve] + [commit_durable]; returns the block's byte offset. *)

val dealloc : ?durable:bool -> t -> int -> unit
(** Free the block headed at the given offset and merge buddies in the
    volatile lists.  With [durable] (default [true]) the table clear is
    persisted immediately; [~durable:false] leaves it dirty for a caller
    that batches table lines (see {!line_of_offset}).  Raises
    {!Invalid_free}. *)

val dealloc_if_live : ?durable:bool -> t -> int -> unit
(** Like {!dealloc} but a no-op when the block is already free — the
    idempotent form used when re-applying drop logs during recovery. *)

val rebuild : t -> unit
(** Drop the volatile free lists, to be built again from the table at each
    stripe's next use (after recovery has edited table bytes directly). *)

(** {1 Introspection} *)

val block_size : t -> int -> int option
(** Size of the live block headed at the offset, if any. *)

val capacity : t -> int
val free_bytes : t -> int
val used_bytes : t -> int
val fold_free : t -> init:'a -> f:('a -> idx:int -> order:int -> 'a) -> 'a
(** Fold over every block in the volatile free lists (test support). *)

type stripe_stats = {
  ss_lo : int;  (** heap byte offset of the stripe's first block *)
  ss_hi : int;  (** heap byte offset one past the stripe's last block *)
  ss_free_bytes : int;
  ss_depths : int array;  (** free-list depth per order *)
  ss_steals : int;
      (** reservations this stripe served for another stripe's hint *)
  ss_contended : int;  (** lock acquisitions that found the stripe busy *)
}

val stripe_stats : t -> stripe_stats array
(** Per-stripe snapshot for [pool_info heap] and the alloc-scale bench
    — the only place steal/contention totals are reported. *)
