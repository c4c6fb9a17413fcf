(** Runtime undo journal bound to one persistent slot.

    A slot is a fixed region: a 64-byte header ([phase], advisory
    [count], [drop_count], spill head, checksum [epoch]), an undo-entry
    area growing up from the header, and a drop-entry area growing down
    from the end.  The entry stream ends at a checksummed tail: every
    entry is sealed together with the zero terminator word that follows
    it in one persist, and recovery walks to the terminator instead of
    trusting a counter — the header counts are advisory and stay
    volatile until truncation zeroes them (fsck still reconciles
    nonzero counts on legacy images).  Drop entries are
    volatile until {!commit} persists them in one batch (the paper's
    constant-time [DropLog]); a transaction that never commits simply
    discards them.

    Protocols (also in DESIGN.md):

    - [data_log]: save old bytes -> single persist of entry+terminator ->
      caller may now modify the target range;
    - [alloc]: reserve (volatile) -> persist Alloc entry + terminator ->
      dirty-only allocation-table mark, its 64-byte line collected for
      the commit-time batch (mark-after-seal: a mark can only become
      durable under the commit fence, after its undo entry is sealed);
    - [commit]: flush the logged target ranges (one flush per unique
      64-byte line, contiguous lines coalesced) + the batched table mark
      lines + the drop records (only if there are drops; counts stay
      volatile), then ONE fence — the commit point -> apply drops as
      dirty table clears -> truncate.  Under group commit
      ({!Group_commit}) the flushes and the fence are issued by the
      epoch leader for every concurrent committer at once;
    - [abort]: restore data logs in reverse -> revert logged allocations
      as dirty table clears -> truncate;
    - [truncate]: flush the batched clear lines + fence (only when
      clears are pending — their durability must strictly precede log
      invalidation), then one batched persist resets the header,
      rewrites the terminator and bumps the epoch, invalidating stale
      entry bytes.

    Steady-state persist cost: a data-only transaction pays one persist
    per sealed entry plus 2 fences (commit, truncate); allocations add
    one coalesced mark flush under the commit fence; deferred frees add
    the drop-record flush and the clear flush + fence.  Under group
    commit with epoch occupancy k, the commit fence is shared: 1/k of a
    fence per transaction. *)

exception Journal_full
(** The log cannot grow: the heap has no room for another spill region,
    or the drop area (the slot's reserved tail quarter) is exhausted.
    The transaction can still abort cleanly. *)

exception Not_in_transaction
(** A logging operation was invoked on an inactive journal. *)

type t

val format : Pmem.Device.t -> base:int -> size:int -> unit
(** Zero a slot's header and write the empty log's terminator durably
    (pool-creation time). *)

val attach :
  ?alloc_hint:int -> Pmem.Device.t -> Palloc.Buddy.t -> base:int -> size:int -> t
(** Bind to a formatted slot.  The slot must be idle (run {!Recovery}
    first after a crash).  [alloc_hint] names the allocator stripe this
    slot's transactions prefer — pairing each journal with its own arena,
    the paper's per-thread allocator design. *)

val size : t -> int
val tx_overhead_ns : int
(** Fixed simulated cost charged per outermost transaction (the paper's
    [TxNop], ~198 ns, medium-independent). *)

val begin_tx : t -> unit
(** Start a flat transaction.  Raises [Invalid_argument] if already
    active; nesting is flattened by the layer above. *)

val data_log : t -> off:int -> len:int -> unit
(** Undo-log the current contents of a range.  Exact duplicate ranges
    within one transaction are logged once, and so is any range whose
    every 64-byte line is already fully covered by a single earlier
    entry (line-granularity dedup: the earlier entries already guarantee
    both the undo bytes and the commit flush). *)

val add_target : t -> off:int -> len:int -> unit
(** Register a range to be persisted at commit without logging it — for
    writes into blocks allocated in this same transaction, whose rollback
    is the allocation rollback itself (the fresh-allocation
    optimization). *)

val data_log_nodedup : t -> off:int -> len:int -> unit
(** Like {!data_log} but always appends a fresh entry; used for shared
    counters ([Parc]) whose every update must be individually undoable
    (newest-first replay restores the oldest value). *)

val alloc : t -> int -> int
(** Transactionally allocate: the block is live immediately but rolled
    back if the transaction aborts or the system crashes before commit. *)

val free : t -> int -> unit
(** Defer freeing of a live block until commit.  Raises
    [Palloc.Buddy.Invalid_free] if the offset was already dropped in this
    transaction or is not a live block head. *)

val commit :
  ?group:Group_commit.t -> ?joinable:Group_commit.joinable -> t -> unit
(** Commit the transaction.  Without [group], execute
    {!Protocol.commit_plan}: flush the logged targets, table marks and
    drop records, then one commit fence, then apply deferred frees and
    truncate.  With [group], execute {!Protocol.group_commit_plan}
    instead: publish the same line set to the epoch combiner, whose
    leader flushes the merged runs of every concurrent committer and
    issues ONE fence for the whole epoch (a solo member pays exactly
    the private cost); publishing withdraws [joinable]'s mark (see
    {!Group_commit.commit}).  The trailing truncate is per-member
    either way.  May raise {!Pmem.Device.Crashed} if the device dies under
    the epoch leader. *)

val abort : t -> unit

val set_defer_seals : t -> bool -> unit
(** Collapse per-entry seal persists into a single log-tail flush+fence,
    issued just before the commit plan runs (and whenever a spill moves
    the cursor to a new region).  Entries still get their terminator
    word at append time; only their durability is deferred, so the
    collapsed fence still precedes every target-line and table-mark
    flush — a landed store always has a durable entry behind it, exactly
    as with eager seals.

    {b Sound only for write-aside (redo) use} of the journal, where home
    locations stay unflushed until commit: a deferred entry then never
    races its own target onto media.  Undo-style users, whose home
    stores may be flushed mid-transaction (e.g. by a concurrent group
    leader's merged run), must leave this off — the default.  The flag
    is sticky on the slot until set again. *)

(** {1 Introspection (tests and stats)} *)

val entry_count : t -> int
val drop_count : t -> int

val spill_count : t -> int
(** Heap-allocated overflow regions chained to this transaction's log.
    Slots hold small transactions inline; larger ones spill, so there is
    no fixed bound on transaction size (heap capacity aside). *)

val logged_bytes : t -> int
(** Bytes of undo-entry area consumed in the {e current} region only. *)

val tx_logged_bytes : t -> int
(** Total entry bytes sealed since {!begin_tx}, across every spill region
    — the per-transaction logging volume telemetry attributes to a
    commit.  Stable after {!commit}/{!abort} until the next
    {!begin_tx}. *)

(** {1 Fault injection (sanitizer positive controls)} *)

val set_fault_elision : flush:bool -> fence:bool -> unit
(** Globally elide persist primitives at {!commit}: [flush] skips the
    step-1 flushes of the logged target ranges (user data never reaches
    the write-pending queue); [fence] skips the single commit fence
    (flushed data sits in the WPQ at the commit point).  Journal
    bookkeeping persists are never elided.  Both default to [false];
    set through {!Engines.Engine_common.Fault_profile}, and reset with
    [set_fault_elision ~flush:false ~fence:false]. *)

val set_fault_duplication : flush:bool -> fence:bool -> unit
(** Globally {e duplicate} persist primitives at {!commit} — the
    profiler's positive controls, dual to {!set_fault_elision}: still
    crash-safe, deliberately wasteful.  [flush] re-runs the step-1
    target flushes after they already reached the write-pending queue
    (pure E2 write-back waste); [fence] issues two extra commit fences
    after the real one, both draining an empty queue (E1 waste; two in
    a row so {!Psan}'s W2 redundant-fence warning fires as well).  Both
    default to [false]; set through
    {!Engines.Engine_common.Fault_profile}. *)
