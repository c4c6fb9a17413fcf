(** The PM stack's one instrumentation bus.

    Every layer — device, allocator, journal, group commit, pool —
    reports what it does as a typed protocol event on this bus, and
    every consumer is a subscriber: the Chrome-trace ring
    ({!Trace.install_ring}), the metrics registry ({!Metrics.install}),
    the persistency sanitizer ([Psan]) and any {!Recorder} — the
    persist-waste capture ([Pprof.Capture]) and the conformance capture
    ([Pmodel.Mconform.capture]) are recorders.  Any number of them may
    watch the same run at once; each sees every event in emission
    order.  Psan and conformance are the live and the replay front-end
    of one protocol monitor ([Psan.Monitor]), so a recorded run replays
    to the findings psan reported live.

    One atomic gate covers all subscribers.  With none subscribed every
    emission site reduces to a single atomic load and a branch, and no
    event value is even constructed — instrumentation cannot perturb
    the simulated clock.  Handlers run synchronously on the emitting
    thread (so a subscriber may consult [Domain.self ()] to attribute
    events), must do their own synchronization, and must not themselves
    touch the device or emit on this bus.

    Devices are identified by [Pmem.Device.id] — a process-unique
    integer — so this library stays free of any dependency on the
    layers it observes.  Every [ns] is the device's simulated clock
    after the action. *)

type tx_outcome = Commit | Abort | Crash

type event =
  | Store of { dev : int; off : int; len : int; ns : float }
      (** A CPU store into the device's volatile view. *)
  | Flush of { dev : int; off : int; len : int; ns : float; lines : int; dur_ns : float }
      (** A [clflushopt]-style write-back request over a byte range
          spanning [lines] cache lines; [dur_ns] is its simulated cost. *)
  | Fence of { dev : int; ns : float; lines : int; dur_ns : float }
      (** An [sfence]: the write-pending queue drains [lines] lines to
          media at a simulated cost of [dur_ns]. *)
  | Power_cycle of { dev : int }
      (** Power-failure semantics applied; all cache state is gone. *)
  | Tx_begin of { dev : int; ns : float; slot : int }
      (** Outermost transaction opened on the calling domain, on
          journal slot [slot]. *)
  | Tx_end of
      { dev : int; outcome : tx_outcome; ns : float; logged_bytes : int; undo_depth : int }
      (** Outermost transaction finished on the calling domain, having
          sealed [logged_bytes] of journal entries; [undo_depth] entries
          were in its log at the end. *)
  | Log of { dev : int; off : int; len : int; entry : int; ns : float }
      (** An undo-log entry now covers [off, off+len): the old contents
          are durably saved, so in-place stores there are rollback-safe.
          [entry] is the journal entry's size in bytes (0 when the
          coverage needs no journal entry, e.g. a redo intent). *)
  | Alloc of { dev : int; off : int; len : int; entry : int; ns : float }
      (** A block allocated by the current transaction (actual block
          size); stores into it need no undo entry — rollback is the
          allocation rollback itself.  [entry] as for {!Log}. *)
  | Commit_point of { dev : int; ns : float }
      (** The commit fence of the calling domain's transaction has
          executed (or, under fault injection, was elided): every range
          the transaction stored must be durable {e now}.  Emitted
          before the journal truncates, whose own persists would mask a
          missing commit fence. *)
  | Region_reserve of { dev : int; off : int; len : int; ns : float }
      (** The journal reserved [off, off+len) of the heap for its own
          bookkeeping (a spill region); writes there are journal
          protocol, not user data. *)
  | Region_release of { dev : int; off : int }
      (** The spill region starting at [off] was released. *)
  | Exempt_push of { dev : int }
      (** Begin a privileged window (recovery): heap stores are the
          recovery protocol restoring logged state, not user code. *)
  | Exempt_pop of { dev : int }
  | Pool_layout of {
      dev : int;
      journal_base : int;
      slot_size : int;
      nslots : int;
      table_base : int;
      heap_base : int;
      heap_len : int;
      cow_base : int;
      cow_len : int;
    }
      (** A pool is now live on [dev]; its full media geometry.  Data
          lives in [heap_base, heap_base + heap_len) and everything
          below [heap_base] is pool metadata; subscribers classify
          every byte range as header / journal slot (and which) /
          allocation table / heap from it.
          [cow_base, cow_base + cow_len) is the CoW root-cell region
          inside the header page ([0,0] on captures that predate it). *)
  | Journal_truncate of { dev : int; slot_base : int; epoch : int }
      (** The journal slot at [slot_base] retired its log: terminator
          reset, header fields zeroed and the epoch bumped to [epoch] —
          after this no stale entry can verify against the slot's salt. *)
  | Drop_apply of { dev : int; off : int }
      (** A deferred free (drop record) was applied as an
          allocation-table clear for the block at [off] — only legal
          after the commit point made the drop records durable. *)
  | Recovery_phase of { dev : int; phase : string; ns : float; dur_ns : float }
      (** One recovery phase ([walk], [rollback], [drop_apply],
          [remark], [truncate], [cow], [fsck]) finished
          having taken [dur_ns] simulated nanoseconds.  Journal phases
          are reported per slot. *)
  | Recovery of {
      dev : int; ns : float; dur_ns : float;
      slots : int; rolled_back : int; completed : int; entries_skipped : int;
    }
      (** Open-time journal recovery of the pool on [dev] finished
          after [dur_ns] (attach reads no allocation-table byte). *)
  | Cow_shadow of { dev : int; off : int; len : int }
      (** The current CoW transaction wrote [off, off+len) as shadow
          state (a fresh node or the root block's inactive copy):
          unreachable until the root swap publishes it, so stores there
          need no undo coverage — the CoW analogue of {!Alloc}. *)
  | Cow_retire of { dev : int; off : int; len : int }
      (** A committed root swap retired the block at [off, off+len):
          readers of the pre-swap state may still hold it, but no store
          may land there until the allocator reissues it — a store into
          a retired block is the CoW use-after-retire violation. *)
  | Epoch of { dev : int; members : int }
      (** The group-commit combiner fenced one epoch on behalf of
          [members] transactions. *)
  | Block_alloc of { dev : int; off : int; len : int; ns : float }
      (** The allocator committed the block [off, off+len) (rounded
          block size) — transactional or not. *)
  | Block_free of { dev : int; off : int; len : int; ns : float }
      (** The allocator returned the block [off, off+len) to its free
          lists. *)

val dev_of : event -> int
(** The device an event happened on; every event names one. *)

(** {1 Subscription} *)

type handle

val subscribe : (event -> unit) -> handle
(** Add [f] to the subscribers; it sees every event emitted from now
    until {!unsubscribe}.  Existing subscribers are unaffected. *)

val unsubscribe : handle -> unit
(** Remove one subscriber; a no-op if it is already gone. *)

val on : unit -> bool
(** Whether any subscriber is present — the guard every emission site
    checks before constructing an event. *)

val emit : event -> unit
(** Deliver to every subscriber, in subscription order; no-op when
    {!on} is false.  Emission sites should still guard with {!on} so
    the event value itself is never built on the uninstrumented path. *)

(** {1 Recording} *)

(** A subscriber that records the stream in memory, each event tagged
    with its emitting domain's id.  Emitters serialize on the recorder's
    mutex, so the recorded order respects every cross-domain
    happens-before the pool establishes. *)
module Recorder : sig
  type t

  val start : unit -> t
  val cut : t -> (int * event) list
  (** The events recorded since [start] or the previous [cut], oldest
      first; recording continues. *)

  val stop : t -> (int * event) list
  (** Unsubscribe, then [cut]. *)
end

(** {1 Transaction attribution} *)

(** Per-domain transaction tallies.  A tally opens at {!Tx_begin} and
    counts the {!Flush} and {!Fence} events the {e same domain} emits on
    the same device until {!close} at {!Tx_end}: on a shared pool,
    sibling domains' persists are never charged to it.  State is
    domain-local, so observing takes no lock. *)
module Tally : sig
  type tally = { t0 : float; mutable flushes : int; mutable fences : int }

  type t

  val create : unit -> t
  val observe : t -> event -> unit

  val close : t -> dev:int -> tally option
  (** Remove and return the calling domain's open tally on [dev];
      [None] when the transaction began before the subscriber did. *)
end

(** {1 Persistence}

    Captures are [{"schema": "corundum-probe-v1", "events": [...]}]
    documents, one object per event tagged by ["t"].  Fields added to
    an event after the schema was fixed load as 0 from older captures;
    retired [pool_attach] records are skipped. *)

val outcome_name : tx_outcome -> string
(** ["commit"], ["abort"], ["crash"]. *)

val to_json : event list -> Json.t
val of_json : Json.t -> event list
(** Raises [Failure] on an unknown schema or a malformed event. *)

val save : string -> event list -> unit
val load : string -> event list
