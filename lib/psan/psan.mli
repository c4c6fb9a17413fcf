(** Online persist-ordering and logging sanitizer: the live front-end
    of {!Monitor}, which [Pmodel.Mconform] replays captures through.

    Psan steps one process-wide monitor with every {!Ptelemetry.Probe}
    event and the emitting domain.  The monitor replays every store,
    flush and fence through a {!Pmem.Persist_line.Shadow} — the
    device's own per-line persist semantics — tracking which heap
    ranges the open transaction has undo-logged or freshly allocated,
    and psan reports each violation with the offset, the owning
    transaction and the simulated time: Corundum's static guarantees,
    checked against the actual event order (DESIGN.md §10).
    {!Monitor.replay} of a {!Ptelemetry.Probe.Recorder} capture finds
    what psan reported live.

    {2 Violation classes}

    - {b V1} [unlogged-store]: in-place store inside a transaction to
      heap data with no covering undo-log entry or same-transaction
      allocation.  Rollback would not restore it.
    - {b V2} [missing-flush]: a range stored by the transaction is
      still dirty (never flushed) at the commit point.  A crash after
      commit loses supposedly-committed data.
    - {b V3} [missing-fence]: a range stored by the transaction was
      flushed but sits in the write-pending queue at the commit point —
      no fence ordered it before commit, so it may still be lost.
    - {b V4} [store-outside-tx]: store to pool heap data outside any
      transaction (no rollback protocol is in effect at all).
    - {b V5} [use-after-retire]: store into a block a committed CoW
      root swap retired ({!Ptelemetry.Probe.Cow_retire}) before the
      allocator reissued it.  The old version is gone from the object
      graph; the store can corrupt a block the allocator may hand out
      concurrently.

    {2 Warnings} (waste, not corruption)

    - {b W1} [redundant-flush]: a flush over lines none of which held
      unwritten-back data.
    - {b W2} [redundant-fence]: back-to-back fences with an empty
      write-pending queue.

    Journal slots, the allocation table and the pool header are
    protocol regions and statically exempt (everything below the heap);
    journal spill regions inside the heap are exempted dynamically for
    their lifetime, and recovery's out-of-transaction restores are
    exempt inside the [Exempt_push]/[Exempt_pop] bracket.  User escape
    hatches ({!Punsafe}) are accommodated with {!exempt}.

    Findings are deduplicated per (class, device, line). *)

module Monitor = Monitor

type violation_class = Monitor.violation_class = V1 | V2 | V3 | V4 | V5 | W1 | W2

val class_name : violation_class -> string
(** ["V1"] … ["W2"]. *)

val class_title : violation_class -> string
(** Short human label, e.g. ["unlogged in-place store in transaction"]. *)

val is_warning : violation_class -> bool
(** True for W1/W2. *)

type finding = Monitor.finding = {
  cls : violation_class;
  dev : int;  (** {!Pmem.Device.id} of the offending device *)
  off : int;  (** byte offset of the offending range (line-clipped) *)
  len : int;
  tx : int option;  (** psan's id of the owning transaction, if any *)
  ns : float;  (** simulated time of the judgement *)
  detail : string;  (** line shadow state and what was expected *)
}

(** {1 Lifecycle} *)

val enable : unit -> unit
(** Reset all shadow state and findings, then subscribe to the probe
    bus alongside any other subscribers (trace ring, metrics, captures).
    User exemptions registered with {!exempt} survive.

    Enable {e before} creating or attaching pools: psan learns each
    device's heap bounds from its [Pool_layout] event, and stores on a
    device attached while psan was off are not monitored. *)

val disable : unit -> unit
(** Unsubscribe.  Findings remain readable until the next {!enable} or
    {!reset}. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Clear shadow state and findings (keeps the subscription and the
    user exemptions). *)

(** {1 Exemptions} *)

val exempt : dev:int -> off:int -> len:int -> unit
(** Declare [off, off+len) on device [dev] as deliberately outside the
    transactional protocol (a {!Punsafe} region).  Stores there raise
    no V1/V4 and are not checked at commit.  May be called before the
    pool is attached or psan is enabled; survives {!reset} and power
    cycles. *)

val unexempt : dev:int -> off:int -> len:int -> unit
(** Remove an exact range previously passed to {!exempt}. *)

(** {1 Findings} *)

val violations : unit -> finding list
(** V1–V5 findings, oldest first. *)

val warnings : unit -> finding list
(** W1/W2 findings, oldest first. *)

val violation_count : unit -> int
val warning_count : unit -> int

val clean : unit -> bool
(** [violation_count () = 0] — warnings do not spoil cleanliness. *)

(** {1 Reports} *)

val report_text : unit -> string
(** Human-readable report: one line per finding plus a summary.  Ends
    with ["psan: clean"] when there are no violations. *)

val report_json : unit -> string
(** [{"violations": […], "warnings": […], "summary": {…}}] with
    per-class counts and a ["clean"] flag in the summary. *)
