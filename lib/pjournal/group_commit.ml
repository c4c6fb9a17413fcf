(* Cross-transaction group commit: the epoch combiner.

   K transactions committing concurrently into one pool each publish the
   64-byte lines their commit must make durable (logged target ranges,
   batched alloc-table marks, drop records).  The first publisher of an
   epoch becomes its leader; everyone arriving while the previous
   epoch's leader is still at the device joins the open epoch, and when
   the device frees up the leader closes the epoch and issues the
   merged, deduplicated flush runs plus ONE fence on behalf of every
   member.  An sfence drains the whole write-pending queue, so the one
   fence is every member's commit point at once: K concurrent commits
   cost one fence epoch instead of K.

   The epoch closes on membership, never on a timer: the leader waits
   (on the condition, not spinning) until no marked transaction is left
   to publish.  A transaction is marked while it is dirty and not
   blocked on a volatile lock, so read-only transactions never hold an
   epoch open and lock waiters cannot deadlock it (DESIGN.md §13).

   A solo commit degenerates to the private path with zero extra
   fences: the lone joinable arrival is its own leader, finds no flush
   in flight and nobody left to wait for, closes the epoch immediately
   and pays exactly its own coalesced flush runs plus the single fence.

   Leader failure: if the device crashes under the leader's flush or
   fence, the combiner is poisoned — the crashed flag wakes every
   waiter, and because a failed epoch is never marked complete, every
   member of the unfenced epoch (and every later arrival) observes
   {!Pmem.Device.Crashed} instead of a false commit.
   Durability-wise nothing special is needed: each member's log entries
   were sealed (persisted) before it published, so recovery rolls each
   slot back independently.  A pool reopen builds a fresh combiner. *)

module D = Pmem.Device
module Pr = Ptelemetry.Probe

type stats = {
  epochs : int;
  commits : int;
  solo_epochs : int;
  max_occupancy : int;
}

(* One transaction's joinable mark: a per-slot flag, written only by
   the domain running that slot's transaction (under [lock] whenever it
   changes [pending]). *)
type joinable = { mutable marked : bool }

let joinable () = { marked = false }

type t = {
  dev : D.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable open_epoch : int; (* the epoch currently accepting members *)
  mutable completed : int; (* highest epoch whose fence has been issued *)
  mutable flushing : bool; (* a leader is at the device right now *)
  mutable crashed : bool; (* poisoned: a leader hit Device.Crashed *)
  mutable batch : Line_buf.t; (* merged line set of the open epoch *)
  mutable spare : Line_buf.t; (* the previous epoch's batch, flushed *)
  mutable members : int; (* commits joined to the open epoch *)
  mutable pending : int; (* marked transactions that have not published *)
  (* volatile statistics, guarded by [lock] *)
  mutable s_epochs : int;
  mutable s_commits : int;
  mutable s_solo : int;
  mutable s_max_occupancy : int;
}

let create dev =
  {
    dev;
    lock = Mutex.create ();
    cond = Condition.create ();
    open_epoch = 0;
    completed = -1;
    flushing = false;
    crashed = false;
    batch = Line_buf.create ();
    spare = Line_buf.create ();
    members = 0;
    pending = 0;
    s_epochs = 0;
    s_commits = 0;
    s_solo = 0;
    s_max_occupancy = 0;
  }

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      epochs = t.s_epochs;
      commits = t.s_commits;
      solo_epochs = t.s_solo;
      max_occupancy = t.s_max_occupancy;
    }
  in
  Mutex.unlock t.lock;
  s

let mean_occupancy s =
  if s.epochs = 0 then 0.0 else float_of_int s.commits /. float_of_int s.epochs

let mark t j =
  if not j.marked then begin
    Mutex.lock t.lock;
    j.marked <- true;
    t.pending <- t.pending + 1;
    Mutex.unlock t.lock
  end

(* Unmarking may be what a waiting leader needs to close its epoch. *)
let withdraw t j =
  j.marked <- false;
  t.pending <- t.pending - 1;
  Condition.broadcast t.cond

let unmark t j =
  if not j.marked then false
  else begin
    Mutex.lock t.lock;
    withdraw t j;
    Mutex.unlock t.lock;
    true
  end

(* Join the open epoch with [lines], the caller's deduplicated commit
   line set, withdrawing the caller's [joinable] mark in the same
   critical section.  Returns once the epoch's fence has been issued —
   by this caller if it ended up leading, by the leader otherwise.
   Raises [D.Crashed] if the device dies before this epoch's fence. *)
let commit ?joinable t ~lines =
  Mutex.lock t.lock;
  (match joinable with Some j when j.marked -> withdraw t j | _ -> ());
  if t.crashed then begin
    Mutex.unlock t.lock;
    raise D.Crashed
  end;
  let e = t.open_epoch in
  Line_buf.append t.batch lines;
  t.members <- t.members + 1;
  if t.members = 1 then begin
    (* Leader.  The epoch stays open while the previous epoch is still
       at the device or a marked transaction has yet to publish: every
       publisher meanwhile joins epoch [e] and is fenced below in one
       go. *)
    while (t.flushing || t.pending > 0) && not t.crashed do
      Condition.wait t.cond t.lock
    done;
    if t.crashed then begin
      Mutex.unlock t.lock;
      raise D.Crashed
    end;
    let n = t.members in
    (* Swap in the spare: the previous leader is done flushing it. *)
    let batch = t.batch in
    t.batch <- t.spare;
    t.spare <- batch;
    Line_buf.clear t.batch;
    t.members <- 0;
    t.open_epoch <- e + 1;
    t.flushing <- true;
    Mutex.unlock t.lock;
    let failure =
      (* Merge_runs + Epoch_fence, outside the lock: members of the next
         epoch accumulate while the device works. *)
      try
        Line_buf.flush t.dev batch;
        D.fence t.dev;
        None
      with exn -> Some exn
    in
    Mutex.lock t.lock;
    t.s_epochs <- t.s_epochs + 1;
    t.s_commits <- t.s_commits + n;
    if n = 1 then t.s_solo <- t.s_solo + 1;
    if n > t.s_max_occupancy then t.s_max_occupancy <- n;
    (* Advance [completed] ONLY on success: members decide "was my
       epoch fenced?" by [completed >= e], so completing a failed
       epoch would make its members report commit (and truncate their
       logs) for data that was never fenced.  On failure the poisoned
       flag both wakes the waiters and tells them the truth. *)
    t.flushing <- false;
    (match failure with
    | Some _ -> t.crashed <- true
    | None -> t.completed <- e);
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    if Pr.on () then Pr.emit (Pr.Epoch { dev = D.id t.dev; members = n });
    match failure with Some exn -> raise exn | None -> ()
  end
  else begin
    (* Member: wait for this epoch's fence. *)
    while t.completed < e && not t.crashed do
      Condition.wait t.cond t.lock
    done;
    (* Crashed with our epoch fenced means a LATER epoch died — our
       commit point still happened. *)
    let failed = t.completed < e in
    Mutex.unlock t.lock;
    if failed then raise D.Crashed
  end
