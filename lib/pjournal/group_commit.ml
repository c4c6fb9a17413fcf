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

   A solo commit degenerates to today's path with zero extra fences:
   the lone arrival is its own leader, finds no flush in flight, closes
   the epoch immediately and pays exactly its own coalesced flush runs
   plus the single fence.

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

(* Flush a set of 64-byte line indexes: one flush call per contiguous
   run.  Runs are never merged across a gap — a clean line between two
   dirty ones must not be flushed (it would be a useless flush, and the
   sanitizer says so).  Shared with the solo commit path in
   {!Journal_impl}. *)
let line = 64

let flush_lines dev lines =
  let sorted =
    List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) lines [])
  in
  let flush_run first last =
    D.flush dev (first * line) ((last - first + 1) * line)
  in
  match sorted with
  | [] -> ()
  | l0 :: rest ->
      let first = ref l0 and last = ref l0 in
      List.iter
        (fun l ->
          if l = !last + 1 then last := l
          else begin
            flush_run !first !last;
            first := l;
            last := l
          end)
        rest;
      flush_run !first !last

type stats = {
  epochs : int;
  commits : int;
  solo_epochs : int;
  max_occupancy : int;
}

type t = {
  dev : D.t;
  linger : int;
  (* Leader spin budget: after the previous epoch's device work drains,
     the leader holds its epoch open for up to [linger] quiet spin
     rounds, restarting the budget whenever a new member joins
     (batch-until-quiet).  This widens the batching window beyond the
     previous flush's duration — pure wall-clock cost on the leader,
     never a fence and never simulated time, and 0 disables it.  The
     window self-limits: a joined member is blocked until the epoch
     fences, so the batch can never exceed the number of committing
     domains. *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable cur_linger : int;
  (* The adaptive budget actually spent: halved after every solo epoch
     (down to a small floor), restored to [linger] after any grouped
     one.  A steady solo workload decays within ~log2(linger) commits
     to the floor — a microsecond-scale probe window that keeps
     concurrency detectable — while a commit storm keeps the budget
     pinned at full (a single grouped epoch re-arms it, and six
     consecutive solo epochs are needed to halve it below 2% of
     full). *)
  mutable open_epoch : int; (* the epoch currently accepting members *)
  mutable completed : int; (* highest epoch whose fence has been issued *)
  mutable flushing : bool; (* a leader is at the device right now *)
  mutable crashed : bool; (* poisoned: a leader hit Device.Crashed *)
  batch : (int, unit) Hashtbl.t; (* merged line set of the open epoch *)
  mutable members : int; (* commits joined to the open epoch *)
  (* volatile statistics, guarded by [lock] *)
  mutable s_epochs : int;
  mutable s_commits : int;
  mutable s_solo : int;
  mutable s_max_occupancy : int;
}

let create ?(linger = 0) dev =
  {
    dev;
    linger;
    cur_linger = linger;
    lock = Mutex.create ();
    cond = Condition.create ();
    open_epoch = 0;
    completed = -1;
    flushing = false;
    crashed = false;
    batch = Hashtbl.create 64;
    members = 0;
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

(* Join the open epoch with [lines], the caller's deduplicated commit
   line set.  Returns once the epoch's fence has been issued — by this
   caller if it ended up leading, by the leader otherwise.  Raises
   [D.Crashed] if the device dies before this epoch's fence. *)
let commit t ~lines =
  Mutex.lock t.lock;
  if t.crashed then begin
    Mutex.unlock t.lock;
    raise D.Crashed
  end;
  let e = t.open_epoch in
  Hashtbl.iter (fun l () -> Hashtbl.replace t.batch l ()) lines;
  t.members <- t.members + 1;
  if t.members = 1 then begin
    (* Leader.  Waiting for the previous epoch's device work to finish
       is the batching window: everyone arriving meanwhile joins epoch
       [e] and is fenced below in one go. *)
    while t.flushing && not t.crashed do
      Condition.wait t.cond t.lock
    done;
    if t.crashed then begin
      Mutex.unlock t.lock;
      raise D.Crashed
    end;
    (* Linger: let commits racing in on other domains join this epoch
       before it closes. *)
    if t.cur_linger > 0 then begin
      let budget = ref t.cur_linger and last = ref t.members in
      while !budget > 0 && not t.crashed do
        Mutex.unlock t.lock;
        for _ = 1 to 32 do
          Domain.cpu_relax ()
        done;
        Mutex.lock t.lock;
        if t.members > !last then begin
          last := t.members;
          budget := t.linger
        end
        else decr budget
      done
    end;
    let n = t.members in
    let batch = Hashtbl.copy t.batch in
    Hashtbl.reset t.batch;
    t.members <- 0;
    t.open_epoch <- e + 1;
    t.flushing <- true;
    Mutex.unlock t.lock;
    let failure =
      (* Merge_runs + Epoch_fence, outside the lock: members of the next
         epoch accumulate while the device works. *)
      try
        flush_lines t.dev batch;
        D.fence t.dev;
        None
      with exn -> Some exn
    in
    Mutex.lock t.lock;
    t.s_epochs <- t.s_epochs + 1;
    t.s_commits <- t.s_commits + n;
    if n = 1 then t.s_solo <- t.s_solo + 1;
    if n > t.s_max_occupancy then t.s_max_occupancy <- n;
    if n > 1 then t.cur_linger <- t.linger
    else
      t.cur_linger <-
        max (min t.linger 64) (t.cur_linger - (t.cur_linger / 4));
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
