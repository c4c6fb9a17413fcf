(** Cross-transaction group commit: the epoch combiner.

    Transactions committing concurrently into one shared pool publish
    the 64-byte lines their commit must make durable; one leader per
    epoch issues the merged, deduplicated flush runs and a single fence
    on behalf of every member (an sfence drains the whole write-pending
    queue, so the one fence is every member's commit point at once).
    K concurrent commits cost one fence epoch instead of K; a solo
    commit degenerates to the private path with zero extra fences.

    Interpreted by {!Journal_impl.commit} as the [Merge_runs] and
    [Epoch_fence] phases of {!Protocol.group_commit_plan}; modeled and
    crash-enumerated by [Pmodel].  See DESIGN.md §13. *)

type t

val create : Pmem.Device.t -> t
(** A fresh combiner for one device.  Build one per shared pool at
    open/attach time — never reuse a combiner across a power cycle (a
    crash poisons it). *)

type joinable
(** A transaction's joinable mark; one per journal slot, reused. *)

val joinable : unit -> joinable

val mark : t -> joinable -> unit
(** The transaction became dirty: a leader keeps its epoch open for it
    until it publishes or is unmarked.  Idempotent. *)

val unmark : t -> joinable -> bool
(** Withdraw the mark without publishing (the transaction ended, or
    blocks on a lock a leader may hold) and wake the leader.  Returns
    whether it was marked. *)

val commit : ?joinable:joinable -> t -> lines:Line_buf.t -> unit
(** Join the open epoch, publishing [lines] (the transaction's commit
    line set: logged targets, table marks, drop records; copied, so the
    caller may reuse the buffer) and withdrawing [joinable]'s mark.  The first publisher
    leads: it closes the epoch once the previous epoch's fence is
    issued and no marked transaction is left to publish, then issues
    the merged flush runs and the single fence.  Returns once the
    epoch's fence has been issued — everything published is then
    durable.  Raises {!Pmem.Device.Crashed} if the device dies before
    this epoch's fence (the member's slot is rolled back independently
    by recovery); after that every call raises until a fresh combiner
    is built. *)

type stats = {
  epochs : int;  (** fence epochs issued *)
  commits : int;  (** transactions committed through the combiner *)
  solo_epochs : int;  (** epochs with exactly one member *)
  max_occupancy : int;  (** largest member count of any epoch *)
}

val stats : t -> stats
val mean_occupancy : stats -> float
(** [commits /. epochs]; 0 when no epoch has completed. *)
