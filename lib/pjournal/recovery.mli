(** Crash recovery for journal slots.

    Runs at pool-open time, after {!Pmem.Device.power_cycle} (or a process
    restart) and {e before} the buddy allocator rebuilds its volatile free
    lists, since recovery edits allocation-table bytes directly.

    Each slot is walked to its checksummed tail
    ({!Log_entry.walk_to_tail}); if any sealed entries are found the
    transaction was in flight: data entries are restored newest-first,
    logged allocations are reverted, and the rollback {e re-marks} any
    drop-record offsets whose table bytes an interrupted batched clear
    already zeroed (the drop records are durable strictly before any
    clear, and each carries the block's order).  A slot with no walkable
    entries but cleared drop-record offsets re-marks only a {e partial}
    clear — that can only be an interrupted free-only truncate, whose
    commit was never acknowledged; an {e all-cleared} drop area belongs
    to a committed transaction whose truncate tore and keeps its
    outcome.  The header entry and drop counts are advisory and never
    trusted — the drop area is scanned until the first non-verifying
    record.  A legacy slot in phase [Committing] (older images only)
    had durably decided to commit: its drops are re-applied (idempotent)
    and the slot is truncated.  Recovery itself is idempotent, so a
    crash during recovery is handled by running it again.

    Media faults: every entry carries a salted checksum ({!Log_entry}).
    A tail word that fails verification ends the valid prefix — it and
    anything after are treated as never written (only the tail write,
    sealed entry plus terminator in one persist, can be torn) — and
    [entries_skipped] records that a torn tail was discarded (1 per
    slot; without a trusted persistent counter the number of lost
    entries is unknowable, and by the seal ordering it is at most 1).  A
    corrupt drop entry is skipped individually (frees are idempotent and
    independent).  Wild or cyclic spill chains are dropped rather than
    followed; the repairing fsck ({!Corundum.Pool_check}) reclaims what
    such wreckage leaks. *)

type stats = {
  slots_scanned : int;
  rolled_back : int;  (** in-flight transactions undone *)
  completed : int;  (** committing transactions finished *)
  data_restored : int;  (** data undo entries applied *)
  allocs_reverted : int;  (** allocations rolled back *)
  drops_applied : int;  (** deferred frees re-applied *)
  drops_remarked : int;
      (** deferred frees rolled back — table bytes re-marked after an
          interrupted batched clear flush *)
  entries_skipped : int;  (** slots whose torn tail write was discarded *)
  drops_skipped : int;  (** drop entries discarded as torn/corrupt *)
  phase_ns : (string * float) list;
      (** simulated nanoseconds per recovery phase ([walk], [rollback],
          [drop_apply], [remark], [truncate]), summed across slots.
          Measured on the simulated clock (a pure counter fold), so the
          timers cannot perturb the latency they report; each phase is
          also published as a {!Ptelemetry.Probe.Recovery_phase} event
          when a probe subscriber is installed. *)
}

val empty_stats : stats

val add_phase :
  string -> float -> (string * float) list -> (string * float) list
(** [add_phase name dur phases] sums [dur] into the entry for [name]
    (appending a new entry if absent) — the merge per-slot stats use,
    exported so pool attach can fold its table-scan phase into the same
    ledger. *)

val recover_slot :
  Pmem.Device.t -> Palloc.Alloc_table.t -> base:int -> size:int -> stats
(** Recover one slot. *)

val recover :
  Pmem.Device.t ->
  Palloc.Alloc_table.t ->
  journal_base:int ->
  slot_size:int ->
  nslots:int ->
  stats
(** Recover a contiguous array of slots. *)
