module D = Pmem.Device
module Pr = Ptelemetry.Probe

type stats = {
  slots_scanned : int;
  rolled_back : int;
  completed : int;
  data_restored : int;
  allocs_reverted : int;
  drops_applied : int;
  drops_remarked : int;
  entries_skipped : int;
  drops_skipped : int;
  phase_ns : (string * float) list;
}

let empty_stats =
  {
    slots_scanned = 0;
    rolled_back = 0;
    completed = 0;
    data_restored = 0;
    allocs_reverted = 0;
    drops_applied = 0;
    drops_remarked = 0;
    entries_skipped = 0;
    drops_skipped = 0;
    phase_ns = [];
  }

let add_phase name dur phases =
  match List.assoc_opt name phases with
  | Some d -> (name, d +. dur) :: List.remove_assoc name phases
  | None -> phases @ [ (name, dur) ]

let add_stats a b =
  {
    slots_scanned = a.slots_scanned + b.slots_scanned;
    rolled_back = a.rolled_back + b.rolled_back;
    completed = a.completed + b.completed;
    data_restored = a.data_restored + b.data_restored;
    allocs_reverted = a.allocs_reverted + b.allocs_reverted;
    drops_applied = a.drops_applied + b.drops_applied;
    drops_remarked = a.drops_remarked + b.drops_remarked;
    entries_skipped = a.entries_skipped + b.entries_skipped;
    drops_skipped = a.drops_skipped + b.drops_skipped;
    phase_ns =
      List.fold_left
        (fun acc (name, dur) -> add_phase name dur acc)
        a.phase_ns b.phase_ns;
  }

(* Time one recovery phase on the simulated clock.  [simulated_ns] is a
   pure fold over the device's persist counters, so the timers cannot
   perturb the very latency they measure; the probe emission rides the
   recovery exempt window and is gated like every other site. *)
let timed dev phases name f =
  let t0 = D.simulated_ns dev in
  let r = f () in
  let t1 = D.simulated_ns dev in
  phases := add_phase name (t1 -. t0) !phases;
  if Pr.on () then
    Pr.emit
      (Pr.Recovery_phase
         { dev = D.id dev; phase = name; ns = t1; dur_ns = t1 -. t0 });
  r

(* Revert an allocation-table byte if it is still set (idempotent).
   Recovery manages no batched line set, so the clear is persisted
   one-shot. *)
let clear_if_live table off =
  match Palloc.Alloc_table.index_of_offset table off with
  | exception Invalid_argument _ -> false (* wild offset on a corrupt image *)
  | idx -> (
      match Palloc.Alloc_table.order_at table ~idx with
      | Some _ ->
          Palloc.Alloc_table.clear_durable table ~idx;
          true
      | None -> false)

(* Scan the drop area for salt-valid slots.  Slots are consed downward
   from the slot end and each carries the current epoch's checksum, so
   the scan stops at the first word that is not a verifying [Drop].  The
   header drop count is deliberately not trusted: a torn truncate can
   zero it (8-byte store granularity) while salt-valid slots remain, and
   the epoch bump that would invalidate those slots rides in the same
   line and may equally not have landed. *)
let scan_drops dev table ~base ~size ~salt =
  let capacity = Log_entry.drop_capacity ~slot_size:size in
  let rec go i acc =
    if i > capacity then List.rev acc
    else
      let at = Log_entry.drop_at ~slot_base:base ~slot_size:size i in
      match Log_entry.read dev ~salt ~at with
      | Log_entry.Drop { off; order }, _ -> (
          match Palloc.Alloc_table.index_of_offset table off with
          | exception Invalid_argument _ -> List.rev acc
          | idx -> go (i + 1) ((idx, order) :: acc))
      | (Log_entry.Data _ | Log_entry.Alloc _), _ -> List.rev acc
      | exception Invalid_argument _ -> List.rev acc
  in
  go 1 []

(* Roll BACK deferred frees whose batched clear flush partially landed.
   Drop slots become durable at the commit fence, strictly before any
   table clear can, so a salt-valid slot whose table byte is 0 names a
   block the transaction held live at commit; rolling the transaction
   back must re-mark it.  Runs before allocation reverts, so a block
   allocated and freed in the same transaction nets out free.
   Idempotent: only bytes currently 0 are rewritten.

   [rollback] is the caller's verdict on the transaction.  With sealed
   entries still walkable the transaction is being rolled back, so every
   cleared drop is re-marked.  With no walkable entries the table bytes
   themselves are the evidence: a mix of live and cleared bytes can only
   be the interrupted clear flush of a free-only transaction (a
   transaction {e with} entries reaches its truncate — the only thing
   that invalidates the log — strictly after the clear fence), so the
   cleared minority is re-marked; all-cleared means the frees fully
   applied and the committed outcome is kept — re-marking then could
   resurrect the frees of a committed transaction whose truncate tore. *)
let remark_drops table slots ~rollback =
  let cleared =
    List.filter
      (fun (idx, _) -> Palloc.Alloc_table.order_at table ~idx = None)
      slots
  in
  let any_live = List.length cleared < List.length slots in
  if cleared = [] || not (rollback || any_live) then 0
  else begin
    List.iter
      (fun (idx, order) -> Palloc.Alloc_table.mark_durable table ~idx ~order)
      cleared;
    List.length cleared
  end

(* A corrupt image can carry a wild or cyclic spill chain; treat it as
   empty — the repairing fsck is the tool that reclaims such wreckage. *)
let spill_chain_or_empty dev ~slot_base =
  match Log_entry.spill_chain dev ~slot_base with
  | chain -> chain
  | exception Invalid_argument _ -> []

(* Mirror of the runtime truncate: release the spill chain (idempotent
   single-byte table clears), then rewrite the terminator, zero the
   header fields and bump the epoch — after which no stale entry bytes
   can verify against this slot's salt.  From phase [Committing]
   ([ordered]), the log invalidation must be durable before the phase
   word returns to 0: the deferred frees were already applied, and a
   torn truncate showing phase=0 beside a still-walkable log would make
   a re-run roll back the committed transaction.  Elsewhere the epoch
   line lands before the terminator: a log that looks empty with
   salt-valid drop slots would make a re-run re-mark a rolled-back
   transaction's reverted allocations (a leak).  Re-running after a
   crash mid-recovery always converges. *)
let truncate ?(ordered = false) dev table ~base =
  (match spill_chain_or_empty dev ~slot_base:base with
  | [] -> ()
  | spills -> List.iter (fun off -> ignore (clear_if_live table off)) spills);
  let epoch = D.read_int dev (base + Log_entry.hdr_epoch) + 1 in
  Log_entry.retire_header dev ~slot_base:base ~epoch;
  let phase = base + Log_entry.hdr_phase
  and count = base + Log_entry.hdr_count
  and term = base + Log_entry.hdr_size in
  (if ordered then begin
     D.persist dev count (term + Log_entry.terminator_size - count);
     D.write_u64 dev phase Log_entry.phase_normal;
     D.persist dev phase 8
   end
   else begin
     D.write_u64 dev phase Log_entry.phase_normal;
     D.persist dev base Log_entry.hdr_size;
     D.persist dev term Log_entry.terminator_size
   end);
  if Pr.on () then
    Pr.emit (Pr.Journal_truncate { dev = D.id dev; slot_base = base; epoch })

let recover_slot dev table ~base ~size =
  let field off = D.read_int dev (base + off) in
  let phase = D.read_u64 dev (base + Log_entry.hdr_phase) in
  let advisory = field Log_entry.hdr_count in
  let ndrops = field Log_entry.hdr_drops in
  let epoch = field Log_entry.hdr_epoch in
  let salt = Log_entry.salt ~slot_base:base ~epoch in
  let phases = ref [] in
  let finish stats = { stats with phase_ns = !phases } in
  if phase = Log_entry.phase_committing then begin
    (* The transaction durably committed; finish its deferred frees.  A
       drop entry that fails verification is skipped (frees are
       idempotent and independent); the leak is visible to fsck. *)
    let applied = ref 0 and skipped = ref 0 in
    timed dev phases "drop_apply" (fun () ->
        for i = 1 to ndrops do
          let at = Log_entry.drop_at ~slot_base:base ~slot_size:size i in
          match Log_entry.read dev ~salt ~at with
          | Log_entry.Drop { off; order = _ }, _ ->
              if clear_if_live table off then incr applied
          | (Log_entry.Data _ | Log_entry.Alloc _), _ -> incr skipped
          | exception Invalid_argument _ -> incr skipped
        done);
    timed dev phases "truncate" (fun () ->
        truncate ~ordered:true dev table ~base);
    finish
      {
        empty_stats with
        slots_scanned = 1;
        completed = 1;
        drops_applied = !applied;
        drops_skipped = !skipped;
      }
  end
  else begin
    (* Walk the sealed entries to the tail terminator.  A [Bad_entry] or
       [Chain_end] stop is the torn tail write that never durably
       finished — the visited prefix is the whole durable log. *)
    let entries = ref [] in
    let visited, _cursor, reason =
      timed dev phases "walk" (fun () ->
          Log_entry.walk_to_tail dev ~slot_base:base ~slot_size:size ~salt
            (fun e -> entries := e :: !entries))
    in
    let torn = match reason with Log_entry.Terminator -> false | _ -> true in
    if visited > 0 then begin
      (* In-flight transaction: undo newest-first.  First roll back any
         deferred frees whose batched clear flush partially landed
         (possible only after the commit fence made the drop slots
         durable), so a block allocated and freed in the same
         transaction is live again before the allocation revert frees
         it. *)
      let remarked =
        timed dev phases "remark" (fun () ->
            remark_drops table
              (scan_drops dev table ~base ~size ~salt)
              ~rollback:true)
      in
      let restored = ref 0 and reverted = ref 0 in
      timed dev phases "rollback" (fun () ->
          List.iter
            (fun e ->
              match e with
              | Log_entry.Data { off; len; payload } ->
                  D.copy_within dev ~src:payload ~dst:off ~len;
                  D.flush dev off len;
                  incr restored
              | Log_entry.Alloc _ | Log_entry.Drop _ -> ())
            !entries;
          D.fence dev;
          List.iter
            (fun e ->
              match e with
              | Log_entry.Alloc { off; order = _ } ->
                  if clear_if_live table off then incr reverted
              | Log_entry.Data _ | Log_entry.Drop _ -> ())
            !entries);
      timed dev phases "truncate" (fun () -> truncate dev table ~base);
      finish
        {
          empty_stats with
          slots_scanned = 1;
          rolled_back = 1;
          data_restored = !restored;
          allocs_reverted = !reverted;
          drops_remarked = remarked;
          entries_skipped = (if torn then 1 else 0);
        }
    end
    else begin
      (* No durable entries.  Scrub any residue — a torn tail, a stale
         phase/advisory/drop field, salt-valid drop slots, or an
         orphaned spill chain left by a crash mid-seal or mid-truncate.
         A free-only transaction seals no entries at all, so an
         interrupted clear flush lands in this branch too:
         [remark_drops ~rollback:false] rolls its partial clears back
         and keeps fully-applied ones, and the truncate's epoch bump
         then invalidates the surviving slots. *)
      let drops = scan_drops dev table ~base ~size ~salt in
      let remarked =
        timed dev phases "remark" (fun () ->
            remark_drops table drops ~rollback:false)
      in
      if
        torn || phase <> Log_entry.phase_normal || advisory <> 0 || ndrops <> 0 || drops <> []
        || spill_chain_or_empty dev ~slot_base:base <> []
      then timed dev phases "truncate" (fun () -> truncate dev table ~base);
      finish
        {
          empty_stats with
          slots_scanned = 1;
          rolled_back = (if remarked > 0 then 1 else 0);
          drops_remarked = remarked;
          entries_skipped = (if torn then 1 else 0);
        }
    end
  end

let recover dev table ~journal_base ~slot_size ~nslots =
  let acc = ref empty_stats in
  for i = 0 to nslots - 1 do
    let base = journal_base + (i * slot_size) in
    acc := add_stats !acc (recover_slot dev table ~base ~size:slot_size)
  done;
  !acc
