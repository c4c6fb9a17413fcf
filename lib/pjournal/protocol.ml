(* The journal's commit/abort/truncate protocol as data.

   Each phase is one persist-granular step of the protocol; the plan
   functions return the exact ordered phase list the implementation
   executes ({!Journal_impl}) and the model checker enumerates crashes
   over ({!Pmodel}).  Keeping the ordering here — in one place, as a
   value — is what lets the checker certify the same instruction stream
   the implementation runs, and what makes a future reordering (group
   commit, fence elision) a one-line change that the checker judges
   before any pool does. *)

type phase =
  (* commit *)
  | Flush_targets
      (* every logged target range flushed, one flush per dirty line *)
  | Flush_marks (* the tx's batched alloc-table marks (mark-after-seal) *)
  | Persist_drop_area (* the drop records flushed (counts stay volatile) *)
  | Commit_fence (* THE commit point: one fence makes all of it durable *)
  | Apply_drops (* deferred frees become dirty table clears *)
  (* group commit *)
  | Merge_runs
      (* the epoch leader flushes the merged, deduplicated union of every
         member's commit lines (targets + marks + drop records) as
         coalesced runs *)
  | Epoch_fence
      (* the single epoch fence, issued once by the leader: every
         member's commit point at once (the WPQ drains whole) *)
  (* abort *)
  | Restore_data (* logged pre-images copied back, flushed per entry *)
  | Restore_fence (* one fence covers every restore flush *)
  | Revert_allocs (* this tx's allocations become dirty table clears *)
  (* truncate *)
  | Release_spills (* spill chain blocks freed (dirty table clears) *)
  | Persist_clears (* batched clear flush + fence, BEFORE invalidation *)
  | Reset_header
      (* one batched header persist: counts zeroed, epoch bumped,
         terminator reset — the log is retired *)
  (* CoW commit (the mod engine: no undo log on the hot path) *)
  | Seal_intent
      (* the allocation/retire intent record written, flushed and fenced
         — durable BEFORE any mark or shadow line can land *)
  | Shadow_flush
      (* shadow-node lines and alloc-table mark lines flushed in
         coalesced runs; nothing here is reachable from the root yet *)
  | Root_swap
      (* THE CoW commit point: one 8-byte store (root-pointer CAS /
         generation bump / link publish) plus an unfenced flush of its
         line — buffered durability, made durable by the next fence or
         left for recovery to roll forward *)
  | Retire_old
      (* one fence orders the swap before the retired blocks' table
         clears, which are then stored and flushed unfenced — a durable
         clear therefore implies a durable commit *)

let name = function
  | Flush_targets -> "flush-targets"
  | Flush_marks -> "flush-marks"
  | Persist_drop_area -> "persist-drop-area"
  | Commit_fence -> "commit-fence"
  | Apply_drops -> "apply-drops"
  | Merge_runs -> "merge-runs"
  | Epoch_fence -> "epoch-fence"
  | Restore_data -> "restore-data"
  | Restore_fence -> "restore-fence"
  | Revert_allocs -> "revert-allocs"
  | Release_spills -> "release-spills"
  | Persist_clears -> "persist-clears"
  | Reset_header -> "reset-header"
  | Seal_intent -> "seal-intent"
  | Shadow_flush -> "shadow-flush"
  | Root_swap -> "root-swap"
  | Retire_old -> "retire-old"

(* Commit: targets, marks and the drop area all become durable under the
   single commit fence; only then do the deferred frees apply.  The
   trailing truncate phases are appended by the caller via
   {!truncate_plan} (they depend on what the commit accumulated).  Every
   plan below is one of a few constant lists, chosen, not built, per
   transaction. *)
let commit_plan ~ndrops =
  if ndrops > 0 then
    [ Flush_targets; Flush_marks; Persist_drop_area; Commit_fence; Apply_drops ]
  else [ Flush_targets; Flush_marks; Commit_fence; Apply_drops ]

(* Group commit: the per-transaction flush phases collapse into the
   leader's single merged run, and the per-transaction commit fence into
   the one epoch fence.  Everything that [commit_plan] would flush
   (targets, marks, drop records) rides in the merged run, so the two
   plans make exactly the same bytes durable at the commit point — which
   is why the checker can certify them against the same invariants.  The
   trailing truncate stays per-member: its header persist is the
   member's durability acknowledgment. *)
let group_commit_plan = [ Merge_runs; Epoch_fence; Apply_drops ]

(* Abort: restore pre-images newest-first under one fence, then revert
   allocations.  An empty log skips straight to the truncate. *)
let abort_plan ~entries =
  if entries = 0 then [] else [ Restore_data; Restore_fence; Revert_allocs ]

(* Truncate: pending table clears are persisted strictly BEFORE the
   header persist invalidates the log — a durable clear beside a dead
   log would be unrecoverable, while a missed clear is re-derived from
   the still-walkable log.  Releasing spills itself produces clears, so
   [Release_spills] always implies [Persist_clears]. *)
let truncate_plan ~spills ~clears =
  if spills then [ Release_spills; Persist_clears; Reset_header ]
  else if clears then [ Persist_clears; Reset_header ]
  else [ Reset_header ]

(* CoW commit (the mod engine's minimally-ordered protocol).  A
   transaction with neither allocations nor frees needs no intent — its
   shadow lines are unreachable until the swap, so the whole commit is
   one fence: flush shadows, fence, swap.  Allocations and frees add a
   durable intent record sealed under its own fence FIRST (nothing else
   of the transaction is flushed yet, so nothing else can have landed),
   which recovery compares against the root cell's generation to roll
   the transaction forward or back.  Frees append the retire tail: a
   fence ordering the swap before the table clears, then the clears
   flushed unfenced.

   Per-op cost at the fence floor: update [Shadow_flush; Commit_fence;
   Root_swap] = 2 flushes / 1 fence; alloc+write adds [Seal_intent] =
   4/2; free is [Seal_intent; Root_swap; Retire_old] = 3/2 (no shadow
   lines, so the commit fence collapses into the retire fence). *)
let cow_commit_plan ~allocs ~frees ~shadow =
  match (allocs || frees, shadow || allocs, frees) with
  | false, false, _ -> [ Root_swap ]
  | false, true, _ -> [ Shadow_flush; Commit_fence; Root_swap ]
  | true, false, false -> [ Seal_intent; Root_swap ]
  | true, false, true -> [ Seal_intent; Root_swap; Retire_old ]
  | true, true, false -> [ Seal_intent; Shadow_flush; Commit_fence; Root_swap ]
  | true, true, true ->
      [ Seal_intent; Shadow_flush; Commit_fence; Root_swap; Retire_old ]
