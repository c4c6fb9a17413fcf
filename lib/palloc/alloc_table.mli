(** Persistent allocation table: the durable truth of the buddy allocator.

    One byte per minimum-order (64 B) block of the heap: [0] means the block
    is free or the interior of a larger allocation; [k+1] means the block is
    the head of an allocated block of order [k].  A single-byte store is
    atomic on every platform and idempotent, so marking and unmarking need
    no logging of their own — transactional rollback/redo simply rewrites
    the byte (see DESIGN.md, "Crash-consistency protocols"). *)

type t

val min_block : int
(** Minimum allocation granule in bytes (64, one cache line). *)

val min_block_shift : int

val create : Pmem.Device.t -> table_base:int -> heap_base:int -> heap_len:int -> t
(** Format a fresh table: zero it and persist.  [heap_len] must be a
    multiple of {!min_block}; the table occupies [heap_len / min_block]
    bytes at [table_base]. *)

val attach : Pmem.Device.t -> table_base:int -> heap_base:int -> heap_len:int -> t
(** Bind to an existing (already formatted) table without touching it. *)

val table_bytes : heap_len:int -> int
(** Size of the table needed for a heap of [heap_len] bytes. *)

val nblocks : t -> int
val heap_base : t -> int
val heap_len : t -> int
val device : t -> Pmem.Device.t

val index_of_offset : t -> int -> int
(** Block index of a heap byte offset.  Raises [Invalid_argument] if the
    offset is outside the heap or not block-aligned. *)

val offset_of_index : t -> int -> int

val mark : t -> idx:int -> order:int -> unit
(** Mark block [idx] as the allocated head of an order-[order] block.
    Dirty-only: the store stays in the cache until the caller flushes the
    owning table line (see {!entry_line}).  Transactions collect the lines
    touched by their marks/clears and flush them in coalesced runs under
    the commit fence, instead of paying one persist per table byte. *)

val clear : t -> idx:int -> unit
(** Mark block [idx] free.  Dirty-only and idempotent; durability is the
    caller's responsibility, as with {!mark}. *)

val mark_durable : t -> idx:int -> order:int -> unit
(** One-shot [mark] + persist, for non-transactional callers (recovery,
    fsck repair, benchmarks) that manage no line set of their own. *)

val clear_durable : t -> idx:int -> unit
(** One-shot [clear] + persist. *)

val entry_line : t -> int -> int
(** Device line number (offset / 64) of the table byte for block [idx] —
    the unit a transaction collects for coalesced flushing. *)

val order_at : t -> idx:int -> int option
(** [Some order] if [idx] is an allocated head, [None] if the byte is 0. *)

val iter_allocated : ?lo:int -> ?hi:int -> t -> (idx:int -> order:int -> unit) -> unit
(** Visit every allocated head in index order; the iteration skips the
    interior blocks of each allocation.  [lo] and [hi] (default the whole
    table) bound the walk: it starts at [lo] and loads no byte past [hi].
    The table is read one cache line per load (lines wholly inside an
    allocation are not read at all), so [f] must not write the table: the
    rest of the current line is already buffered and would go stale.
    Raises [Invalid_argument] at a head whose order is too large for its
    block size to be an [int] (a corrupt table byte such as [0x40]),
    before [f] sees it. *)

val is_order_error : string -> bool
(** Whether an [Invalid_argument] message is {!iter_allocated}'s
    rejection of an impossible order: corruption of the image, not a
    misuse of the API.  Tools report it as a finding. *)
