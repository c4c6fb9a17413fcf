(** Untyped persistent-memory pool runtime.

    This module owns everything below the typed API: the on-media layout
    (header, journal slots, allocation table, heap), open/create/recovery,
    journal-slot assignment, the flat transaction engine with per-domain
    nesting, the volatile held-locks and borrow tables backing [Pmutex]
    and [Prefcell], and the volatile birth counters backing [Vweak]
    promotion safety.

    The typed layer ({!Pool}, {!Pbox}, …) adds pool branding on top; no
    user-facing code should call this module directly. *)

exception Pool_closed
(** An operation touched a pool that has been closed (or superseded by a
    {!reopen}). *)

exception Tx_escape
(** A journal or guard object was used after its transaction ended — the
    dynamic analogue of Rust's [TxOutSafe]/lifetime enforcement. *)

exception Borrow_error of string
(** A [Prefcell] mutable-borrow rule was violated. *)

exception Recovery_needed of string
(** Internal corruption was detected at open time. *)

exception Read_only_pool
(** A mutating operation (transaction, save) touched a pool opened in
    {!Read_only} mode. *)

type t

type open_mode =
  | Read_write  (** Normal open: run recovery, bump the generation. *)
  | Read_only
      (** Degraded open for damaged media: nothing is written — recovery
          and the generation bump are skipped, transactions raise
          {!Read_only_pool}.  Reads may observe uncommitted in-flight
          data from an unrecovered journal; the mode exists to salvage
          pools whose damage is detectable but not repairable. *)

type config = {
  size : int;  (** total device bytes *)
  nslots : int;  (** journal slots = max concurrent transactions *)
  slot_size : int;  (** bytes per journal slot *)
}

val default_config : config
(** 64 MiB, 8 slots of 256 KiB. *)

(** {1 Lifecycle} *)

val create :
  ?config:config -> ?latency:Pmem.Latency.t -> ?path:string -> unit -> t
(** Create and format a fresh pool (in memory; backed by [path] only when
    {!close} or {!save} writes it out). *)

val attach : ?mode:open_mode -> Pmem.Device.t -> t
(** Attach to an already-formatted device: verify the header, run journal
    recovery (unless [mode] is {!Read_only}), and build a handle.  Lets a
    tool operate on an in-memory copy of an image without ever writing
    the file back.  Raises {!Recovery_needed} on a bad magic/version, or
    — in [Read_write] mode — on a header checksum mismatch. *)

val open_file : ?mode:open_mode -> ?latency:Pmem.Latency.t -> string -> t
(** [attach (Device.load path)]: load a pool image saved by
    {!close}/{!save} and attach to it. *)

val reopen : t -> t
(** Simulate a restart on the same media: power-cycle the device (losing
    volatile state, applying WPQ-survival semantics), run recovery, and
    return a fresh handle.  The old handle becomes {!Pool_closed}.  This is
    the crash-test entry point. *)

val close : t -> unit
(** Close the pool: forbid new transactions, save to the backing file if
    any, and invalidate the handle. *)

val save : t -> unit
(** Persist the durable image to the backing file without closing. *)

val is_open : t -> bool
val is_read_only : t -> bool
val uid : t -> int
(** Unique id of this open instance (changes on every open/reopen). *)

val generation : t -> int
(** Durable generation counter, bumped at every open. *)

val recovery_stats : t -> Pjournal.Recovery.stats
(** What recovery did when this handle was opened. *)

(** {1 Media access} *)

val device : t -> Pmem.Device.t
val buddy : t -> Palloc.Buddy.t
val check_open : t -> unit

(** {1 Root object} *)

val root_off : t -> int
(** Offset of the root block, or 0 when the root is not yet initialized. *)

val root_ty_hash : t -> int

(** {1 Transactions}

    The engine hands the body a [tx] context; nesting within one domain is
    flattened onto the same context.  On normal return the outermost level
    commits; on exception it aborts and re-raises; on {!Pmem.Device.Crashed}
    it re-raises without touching the media. *)

type tx

val transaction : t -> (tx -> 'a) -> 'a

val tx_pool : tx -> t
val tx_journal : tx -> Pjournal.Journal_impl.t
(** Raises {!Tx_escape} if the transaction has ended. *)

val tx_valid : tx -> bool
val tx_validity : tx -> bool ref
(** Shared flag that guards created inside the transaction capture; it
    flips to [false] when the transaction ends. *)

(** {1 Shared-pool domain binding and group commit}

    Several domains may share one pool handle.  A worker that will issue
    many transactions registers once: it is bound to a dedicated journal
    slot (and that slot's allocator stripe) until it unregisters, so its
    transactions skip slot acquisition and never migrate between stripes.
    Unregistered domains still work — they fall back to the shared
    acquire/release slot pool.

    Orthogonally, {!set_group_commit} installs a cross-transaction epoch
    combiner ({!Pjournal.Group_commit}): commits publish their line sets
    to the current epoch, whose leader issues one merged flush run and a
    single fence for every member — K concurrent commits cost one fence
    epoch instead of K fences.  A solo committer pays exactly the
    private cost.  The combiner is volatile and rebuilt per open. *)

val register_domain : t -> int
(** Bind the calling domain to a dedicated journal slot and return its
    index.  Idempotent.  Raises [Invalid_argument] when every slot is
    taken — registration never blocks. *)

val unregister_domain : t -> unit
(** Release the calling domain's dedicated slot (no-op if unbound).
    Raises [Invalid_argument] if the domain has a transaction open. *)

val slot_of_domain : t -> int option
(** The calling domain's bound slot, if registered. *)

val set_group_commit : t -> bool -> unit
(** Enable (with a fresh combiner) or disable cross-transaction group
    commit for this pool.  An epoch closes once every dirty transaction
    not blocked in {!tx_lock} has published, so a dirty transaction
    must not wait for another domain's commit any other way
    (DESIGN.md §13).  Call it with no transaction open. *)

val group_commit_stats : t -> Pjournal.Group_commit.stats option
(** Epoch/occupancy counters of the active combiner, if any. *)

(** {1 Logged heap operations (journal-capability level)} *)

val tx_alloc : tx -> int -> int
val tx_free : tx -> int -> unit
val tx_log : tx -> off:int -> len:int -> unit
val tx_log_nodedup : tx -> off:int -> len:int -> unit

val tx_set_int : tx -> int -> int -> unit
(** [tx_set_int tx off v] undo-logs the word at [off], then stores [v]
    there: the one logged word store, the log-before-write rule for
    every single-word container update. *)

val tx_add_target : tx -> off:int -> len:int -> unit
(** Register a range for commit-time persistence without undo logging —
    only sound for ranges inside blocks allocated by this transaction. *)

val tx_set_root : tx -> off:int -> ty_hash:int -> unit

(** {1 Volatile side tables} *)

val tx_lock : tx -> int -> unit
(** Acquire the pool-level lock keyed by a block offset, held until the
    outermost transaction ends (commit, abort or crash).  Returns at once
    when the calling domain already holds it.  When another domain holds
    it, the caller drops its group-commit mark, sleeps until the offset
    is released, and takes the mark back once the offset is its own.
    The pool keeps only the offsets currently held, and a lock allocates
    nothing. *)

val borrow_mut_flag : tx -> int -> unit
(** Mark a cell offset mutably borrowed for the rest of the transaction.
    Raises {!Borrow_error} if it already is. *)

val release_borrow_flag : t -> int -> unit
(** End a mutable borrow early (guard released before transaction end). *)

val is_borrowed : t -> int -> bool

val birth : t -> int -> int
(** Volatile birth counter for a block offset, registered at the first
    call (0) and bumped by every later allocation at the offset during
    this open; lets volatile weak pointers detect block reuse.  Only
    registered offsets are counted: an allocation costs one lookup in
    the map of registered offsets (empty until a weak pointer is
    demoted) and takes no mutex. *)

(** {1 Accounting} *)

type pool_stats = {
  heap_capacity : int;
  heap_used : int;
  live_blocks : int;
  transactions : int;  (** committed *)
  aborts : int;
  log_requests : int;  (** [tx_log]/[tx_log_nodedup] calls (pre-dedup) *)
  allocations : int;
  frees : int;
  logged_bytes : int;  (** undo-entry bytes sealed since open *)
  lifetime_transactions : int;
  (** committed across the pool's whole life: a persistent counter folded
      into the header at {!save}/{!close} plus this open's volatile count
      — deliberately {e not} persisted per transaction, so commits carry
      no extra persist points.  A crash loses the unfolded tail. *)
  lifetime_aborts : int;
}

val stats : t -> pool_stats
