exception Journal_full
exception Not_in_transaction

module D = Pmem.Device
module Int_pairs = Palloc.Int_pairs
module Pr = Ptelemetry.Probe

(* Fault-injection knobs for the sanitizer's positive controls
   (Engines.Engine_common.Fault_profile).  They elide exactly one
   persist primitive each at commit: the step-1 flushes of the logged
   target ranges, or the single commit fence.  Journal bookkeeping
   persists (drop area, truncation) are protocol, not user data, and
   are never elided. *)
let elide_commit_flush = ref false
let elide_commit_fence = ref false

let set_fault_elision ~flush ~fence =
  elide_commit_flush := flush;
  elide_commit_fence := fence

(* The profiler's positive controls: the opposite defect.  Instead of
   eliding a persist these repeat one — crash-safe but wasteful, the
   kind of overcaution pprof exists to expose.  [flush] runs the step-1
   target flushes a second time (every line is already in the WPQ, so
   the repeat is pure write-back waste); [fence] issues two extra
   commit fences after the real one (both drain an empty WPQ — two in a
   row so the sanitizer's W2 redundant-fence check fires too). *)
let dup_commit_flush = ref false
let dup_commit_fence = ref false

let set_fault_duplication ~flush ~fence =
  dup_commit_flush := flush;
  dup_commit_fence := fence

let tx_overhead_ns = 198
let spill_min = 16 * 1024
let line = 64

type t = {
  dev : D.t;
  buddy : Palloc.Buddy.t;
  base : int;
  size : int;
  alloc_hint : int; (* preferred allocator stripe (the slot's index) *)
  mutable active : bool;
  mutable count : int; (* volatile entry count (advisory once persisted) *)
  mutable cursor : int; (* absolute address of the next entry byte *)
  mutable cur_limit : int; (* absolute end of the current entry region *)
  mutable last_region : int; (* base of the chain's last region *)
  mutable spills : int list; (* spill block offsets, newest first *)
  mutable drops : int list; (* drop offsets, newest first *)
  mutable ndrops : int; (* length of [drops], kept O(1) *)
  mutable epoch : int; (* volatile mirror of the persistent epoch *)
  mutable salt : Log_entry.salt; (* checksum salt for (base, epoch) *)
  dedup : Int_pairs.t; (* (off, len) ranges already logged *)
  lines : Int_pairs.t; (* line indexes fully covered by the log, as (l, 0) *)
  dropped : Int_pairs.t; (* offsets freed by this transaction, as (off, 0) *)
  targets : Line_buf.t; (* lines of the data ranges to persist at commit *)
  mutable tx_logged : int; (* entry bytes sealed in the current transaction *)
  marks : Line_buf.t;
      (* alloc-table lines dirtied by this tx's allocation marks; flushed
         as coalesced runs under the commit fence (mark-after-seal) *)
  clears : Line_buf.t;
      (* alloc-table lines dirtied by clears (applied drops, reverted
         allocations, released spills), persisted by the truncate *)
  commit_lines : Line_buf.t; (* the group-commit line set, rebuilt per commit *)
  mutable defer_seals : bool;
      (* collapse per-entry seal persists into one log-tail flush+fence
         just before the commit plan runs (redo-style users only) *)
  mutable unsealed : (int * int) option;
      (* [lo, hi) byte range of deferred, not-yet-durable entry bytes;
         always one contiguous run within the current entry region *)
}

let format dev ~base ~size =
  if size < Log_entry.hdr_size + 256 then invalid_arg "Journal_impl.format: slot too small";
  D.fill dev base Log_entry.hdr_size '\000';
  (* terminator: the empty log ends right after the header *)
  D.write_u64 dev (base + Log_entry.hdr_size) 0L;
  D.persist dev base (Log_entry.hdr_size + Log_entry.terminator_size)

let attach ?(alloc_hint = 0) dev buddy ~base ~size =
  let epoch = D.read_int dev (base + Log_entry.hdr_epoch) in
  {
    dev;
    buddy;
    base;
    size;
    alloc_hint;
    active = false;
    count = 0;
    cursor = base + Log_entry.hdr_size;
    cur_limit = Log_entry.main_entry_limit ~slot_base:base ~slot_size:size;
    last_region = base;
    spills = [];
    drops = [];
    ndrops = 0;
    epoch;
    salt = Log_entry.salt ~slot_base:base ~epoch;
    dedup = Int_pairs.create ();
    lines = Int_pairs.create ();
    dropped = Int_pairs.create ();
    targets = Line_buf.create ();
    tx_logged = 0;
    marks = Line_buf.create ();
    clears = Line_buf.create ();
    commit_lines = Line_buf.create ();
    defer_seals = false;
    unsealed = None;
  }

let size t = t.size
let entry_count t = t.count
let drop_count t = t.ndrops
let spill_count t = List.length t.spills
let logged_bytes t =
  if t.last_region = t.base then t.cursor - t.base - Log_entry.hdr_size
  else t.cursor - t.last_region - Log_entry.spill_header

let tx_logged_bytes t = t.tx_logged
let set_defer_seals t on = t.defer_seals <- on

let require_active t = if not t.active then raise Not_in_transaction

let begin_tx t =
  if t.active then invalid_arg "Journal_impl.begin_tx: already in a transaction";
  t.active <- true;
  t.count <- 0;
  t.cursor <- t.base + Log_entry.hdr_size;
  t.cur_limit <- Log_entry.main_entry_limit ~slot_base:t.base ~slot_size:t.size;
  t.last_region <- t.base;
  t.spills <- [];
  t.drops <- [];
  t.ndrops <- 0;
  Line_buf.clear t.targets;
  t.tx_logged <- 0;
  t.unsealed <- None;
  Int_pairs.clear t.dedup;
  Int_pairs.clear t.lines;
  Int_pairs.clear t.dropped;
  Line_buf.clear t.marks;
  D.charge_ns t.dev tx_overhead_ns

(* Seal the entry just written at absolute [at] of [len] bytes: write the
   zero terminator word right after it and persist entry and terminator
   together — a single flush+fence.  A crash mid-persist leaves either
   the old terminator (entry never happened), a torn entry (checksum
   fails: never happened), or the full entry plus its terminator; the
   tail walk reads back exactly the durable prefix, so no persistent
   counter update is needed.

   With [defer_seals] set the persist is elided and the entry's bytes
   (terminator included) extend a volatile [unsealed] range instead; the
   whole range becomes durable in one flush+fence at commit (or when a
   spill moves the cursor to a new region).  Sound only for redo-style
   use: home locations then stay unflushed until commit, so no store an
   entry covers can reach media before the collapsed seal fence. *)
let extend_unsealed t ~lo ~hi =
  t.unsealed <-
    (match t.unsealed with
    | None -> Some (lo, hi)
    | Some (l, h) -> Some (min l lo, max h hi))

let seal_entry t ~at ~len =
  D.write_u64 t.dev (at + len) 0L;
  if t.defer_seals then
    extend_unsealed t ~lo:at ~hi:(at + len + Log_entry.terminator_size)
  else D.persist t.dev at (len + Log_entry.terminator_size);
  t.count <- t.count + 1;
  t.tx_logged <- t.tx_logged + len

(* Chain a fresh spill region big enough for [need] entry bytes.  The
   ordering makes every intermediate state recoverable: the region's own
   header (and a terminator, so the freshly linked region walks as empty)
   becomes durable before the chain points at it, and the chain points at
   it before its allocation-table mark (an unmarked chained block is
   freed as a no-op by recovery's idempotent sweep). *)
let add_spill t need =
  let exact = need + Log_entry.spill_header in
  let r =
    (* prefer a roomy region; fall back to the exact need under pressure *)
    match Palloc.Buddy.reserve ~hint:t.alloc_hint t.buddy (max spill_min exact) with
    | r -> r
    | exception Palloc.Buddy.Out_of_pmem -> (
        try Palloc.Buddy.reserve ~hint:t.alloc_hint t.buddy exact
        with Palloc.Buddy.Out_of_pmem -> raise Journal_full)
  in
  let off = Palloc.Buddy.offset_of_reservation t.buddy r in
  let actual = Palloc.Buddy.size_of_order (r : Palloc.Buddy.reservation).r_order in
  (* Declared before the first header store: from here on, writes into
     [off, off+actual) are journal protocol, not user data. *)
  if Pr.on () then
    Pr.emit
      (Pr.Region_reserve { dev = D.id t.dev; off; len = actual; ns = D.simulated_ns t.dev });
  D.write_u64 t.dev off 0L;
  D.write_int t.dev (off + 8) actual;
  D.write_u64 t.dev (off + Log_entry.spill_header) 0L;
  D.persist t.dev off (Log_entry.spill_header + Log_entry.terminator_size);
  let link =
    if t.last_region = t.base then t.base + Log_entry.hdr_spill else t.last_region
  in
  D.write_int t.dev link off;
  D.persist t.dev link 8;
  Palloc.Buddy.commit t.buddy r;
  t.spills <- off :: t.spills;
  t.last_region <- off;
  t.cursor <- off + Log_entry.spill_header;
  t.cur_limit <- off + actual

(* Make any deferred entry bytes durable: one flush over the contiguous
   log-tail run, one fence.  No-op unless seals were deferred. *)
let flush_pending_seal t =
  match t.unsealed with
  | None -> ()
  | Some (lo, hi) ->
      D.flush t.dev lo (hi - lo);
      D.fence t.dev;
      t.unsealed <- None

let ensure_room t need =
  (* +terminator: every entry is sealed together with the zero word that
     follows it, so room for that word must exist in the same region *)
  if t.cursor + need + Log_entry.terminator_size > t.cur_limit then begin
    (* mark the continuation so walkers stop parsing this region here *)
    if t.cursor + 8 <= t.cur_limit then begin
      Log_entry.write_jump t.dev ~at:t.cursor;
      if t.defer_seals then extend_unsealed t ~lo:t.cursor ~hi:(t.cursor + 8)
    end;
    (* the deferred tail must stay one contiguous run per region, so seal
       it before the cursor moves into the fresh spill block (the spill's
       own header persists fence anyway) *)
    flush_pending_seal t;
    add_spill t (need + Log_entry.terminator_size)
  end

(* Line-granularity dedup bookkeeping: a 64-byte line is marked once some
   single logged range covers it entirely; a later range whose every line
   is marked needs no new entry (its undo bytes and its commit flush are
   both already guaranteed by the earlier entries). *)
let mark_covered_lines t ~off ~len =
  let first = (off + line - 1) / line and last = ((off + len) / line) - 1 in
  for l = first to last do
    if not (Int_pairs.mem t.lines l 0) then Int_pairs.add t.lines l 0
  done

let lines_covered t ~off ~len =
  let l = ref (off / line) and last = (off + len - 1) / line in
  while !l <= last && Int_pairs.mem t.lines !l 0 do
    incr l
  done;
  !l > last

let append_data t ~off ~len =
  let need = Log_entry.data_entry_size len in
  ensure_room t need;
  let at = t.cursor in
  Log_entry.write_data t.dev ~salt:t.salt ~at ~off ~len;
  t.cursor <- t.cursor + need;
  seal_entry t ~at ~len:need;
  mark_covered_lines t ~off ~len;
  Line_buf.add_range t.targets ~off ~len;
  if Pr.on () then
    Pr.emit (Pr.Log { dev = D.id t.dev; off; len; entry = need; ns = D.simulated_ns t.dev })

let data_log t ~off ~len =
  require_active t;
  if len <= 0 then invalid_arg "Journal_impl.data_log: non-positive length";
  if not (Int_pairs.mem t.dedup off len) && not (lines_covered t ~off ~len)
  then begin
    append_data t ~off ~len;
    Int_pairs.add t.dedup off len
  end

let add_target t ~off ~len =
  require_active t;
  Line_buf.add_range t.targets ~off ~len

let data_log_nodedup t ~off ~len =
  require_active t;
  if len <= 0 then invalid_arg "Journal_impl.data_log: non-positive length";
  append_data t ~off ~len

let alloc t bytes =
  require_active t;
  let r = Palloc.Buddy.reserve ~hint:t.alloc_hint t.buddy bytes in
  let off = Palloc.Buddy.offset_of_reservation t.buddy r in
  (match
     let need = Log_entry.alloc_entry_size in
     ensure_room t need;
     let at = t.cursor in
     Log_entry.write_alloc t.dev ~salt:t.salt ~at ~off
       ~order:(r : Palloc.Buddy.reservation).r_order;
     t.cursor <- t.cursor + need;
     seal_entry t ~at ~len:need
   with
  | () -> ()
  | exception e ->
      Palloc.Buddy.cancel t.buddy r;
      raise e);
  (* Mark-after-seal: the dirty table mark follows the sealed undo entry
     and only reaches media in the batched mark flush under the commit
     fence, so a durable mark always has a durable entry to revert it. *)
  Palloc.Buddy.commit t.buddy r;
  Line_buf.add t.marks (Palloc.Buddy.mark_line t.buddy r);
  if Pr.on () then
    Pr.emit
      (Pr.Alloc
         {
           dev = D.id t.dev;
           off;
           len = Palloc.Buddy.size_of_order (r : Palloc.Buddy.reservation).r_order;
           entry = Log_entry.alloc_entry_size;
           ns = D.simulated_ns t.dev;
         });
  off

let free t off =
  require_active t;
  if Int_pairs.mem t.dropped off 0 then raise (Palloc.Buddy.Invalid_free off);
  let order =
    match Palloc.Buddy.block_size t.buddy off with
    | Some size -> Palloc.Buddy.order_of_size size
    | None -> raise (Palloc.Buddy.Invalid_free off)
  in
  if t.ndrops >= Log_entry.drop_capacity ~slot_size:t.size then raise Journal_full;
  (* Volatile append into the drop area; durable only at commit.  The
     block's order rides in the slot so recovery can re-mark the table
     byte if a crash interrupts the batched clear flush. *)
  let at = Log_entry.drop_at ~slot_base:t.base ~slot_size:t.size (t.ndrops + 1) in
  Log_entry.write_drop t.dev ~salt:t.salt ~at ~off ~order;
  t.drops <- off :: t.drops;
  t.ndrops <- t.ndrops + 1;
  Int_pairs.add t.dropped off 0

(* Truncate the slot: terminator back at the head of the entry area,
   advisory counts zeroed, spill head unchained, phase reset, and —
   crucially — the epoch bumped, so any sealed entry bytes left beyond
   the terminator (in the slot or in a recycled spill region) can never
   again verify against this slot's salt.

   [t.clears] carries the alloc-table lines dirtied by clears the caller
   just applied (deferred frees at commit, allocation reverts at abort);
   spill-region releases add their own clear lines to it.  The whole set
   is flushed as coalesced runs and fenced {e before} the header persist
   (I-CLEARS-BEFORE-INVALIDATE): a durable table clear with the log
   already invalidated would be unrecoverable, whereas clears that miss
   the fence are re-derived from the still-walkable log (drop slots
   carry their order for re-marking; alloc entries free idempotently).

   The header persist itself is ONE batched flush+fence: per-u64 tearing
   can only leave the old log intact (rolled back again, idempotently —
   rolling back a committed-but-unacknowledged transaction is already a
   legal outcome of a crash between the commit fence and the truncate)
   or invalidated, and the phase word is 0 on both sides. *)
let exec_truncate_phase t = function
  | Protocol.Release_spills ->
      List.iter
        (fun off ->
          Line_buf.add t.clears (Palloc.Buddy.line_of_offset t.buddy off);
          Palloc.Buddy.dealloc_if_live ~durable:false t.buddy off)
        t.spills;
      if Pr.on () then
        List.iter
          (fun off -> Pr.emit (Pr.Region_release { dev = D.id t.dev; off }))
          t.spills
  | Protocol.Persist_clears ->
      Line_buf.flush t.dev t.clears;
      D.fence t.dev
  | Protocol.Reset_header ->
      t.epoch <- t.epoch + 1;
      Log_entry.retire_header t.dev ~slot_base:t.base ~epoch:t.epoch;
      D.write_u64 t.dev (t.base + Log_entry.hdr_phase) Log_entry.phase_normal;
      D.persist t.dev t.base (Log_entry.hdr_size + Log_entry.terminator_size);
      if Pr.on () then
        Pr.emit
          (Pr.Journal_truncate
             { dev = D.id t.dev; slot_base = t.base; epoch = t.epoch })
  | _ -> assert false (* not a truncate phase *)

(* Interpret a plan phase by phase, with no closure built per call. *)
let rec run exec t = function
  | [] -> ()
  | ph :: rest ->
      exec t ph;
      run exec t rest

let truncate_clears t =
  run exec_truncate_phase t
    (Protocol.truncate_plan ~spills:(t.spills <> [])
       ~clears:(not (Line_buf.is_empty t.clears)));
  t.salt <- Log_entry.salt ~slot_base:t.base ~epoch:t.epoch;
  t.count <- 0;
  t.cursor <- t.base + Log_entry.hdr_size;
  t.cur_limit <- Log_entry.main_entry_limit ~slot_base:t.base ~slot_size:t.size;
  t.last_region <- t.base;
  t.spills <- [];
  t.drops <- [];
  t.ndrops <- 0;
  Line_buf.clear t.targets;
  (* abandoned unsealed bytes are dirty-unflushed lines: they can never
     land, and the header persist above re-epochs the slot anyway *)
  t.unsealed <- None;
  Int_pairs.clear t.dedup;
  Int_pairs.clear t.lines;
  Int_pairs.clear t.dropped;
  Line_buf.clear t.marks

let truncate t =
  Line_buf.clear t.clears;
  truncate_clears t

(* Flush the logged target lines: overlapping and duplicate ranges cost
   one flush per dirty line, and contiguous lines coalesce into a single
   flush call. *)
let flush_target_lines t = Line_buf.flush t.dev t.targets

(* One commit phase of {!Protocol.commit_plan}, interpreted against the
   device.  [t.clears] accumulates the table-clear lines that the
   trailing truncate persists. *)
let exec_commit_phase t = function
  | Protocol.Flush_targets ->
      (* Make every logged target range durable, one flush per unique
         dirty line (contiguous lines coalesce). *)
      if not !elide_commit_flush then begin
        flush_target_lines t;
        if !dup_commit_flush then flush_target_lines t
      end
  | Protocol.Flush_marks ->
      (* The transaction's batched allocation-table marks, flushed as
         coalesced runs under the same fence.  This is journal protocol,
         not user data, so it is never elided: every mark's undo entry
         was sealed before the mark was written (mark-after-seal), so
         the marks may only become durable here, under the commit
         fence. *)
      Line_buf.flush t.dev t.marks
  | Protocol.Persist_drop_area ->
      (* The drop records become durable at the commit point, not
         before.  The header counts stay volatile: recovery scans the
         drop area by salted checksum and walks the log to its
         terminator, so persisting advisory counts here would be pure
         write-back waste (it used to cost every freeing transaction
         one E3 flush).  fsck treats advisory 0 beside a walked tail
         as the normal case. *)
      D.flush t.dev
        (Log_entry.drop_at ~slot_base:t.base ~slot_size:t.size t.ndrops)
        (t.ndrops * Log_entry.drop_entry_size)
  | Protocol.Commit_fence ->
      if not !elide_commit_fence then begin
        D.fence t.dev;
        if !dup_commit_fence then begin
          D.fence t.dev;
          D.fence t.dev
        end
      end;
      (* The commit point: everything this transaction stored must be
         durable now.  Emitted before the truncate, whose own persists
         drain the WPQ and would mask an elided or forgotten commit
         fence. *)
      if Pr.on () then
        Pr.emit
          (Pr.Commit_point { dev = D.id t.dev; ns = D.simulated_ns t.dev })
  | Protocol.Apply_drops ->
      (* Apply deferred frees as dirty table clears; their lines become
         durable in one batched flush+fence inside the truncate,
         strictly before the log is invalidated.  Idempotent: recovery
         re-marks from the drop slots (which became durable at the
         commit fence) if the clear flush is interrupted. *)
      List.iter
        (fun off ->
          Line_buf.add t.clears (Palloc.Buddy.line_of_offset t.buddy off);
          Palloc.Buddy.dealloc_if_live ~durable:false t.buddy off;
          if Pr.on () then Pr.emit (Pr.Drop_apply { dev = D.id t.dev; off }))
        t.drops
  | _ -> assert false (* not a commit phase *)

(* The transaction's full commit line set — logged target lines, the
   batched alloc-table marks, and the drop records.  This is exactly
   what [commit_plan]'s three flush phases would flush; under group
   commit the whole set is published to the epoch combiner and rides in
   the leader's merged run. *)
let commit_line_set t =
  let lines = t.commit_lines in
  Line_buf.clear lines;
  Line_buf.append lines t.targets;
  Line_buf.append lines t.marks;
  if t.ndrops > 0 then begin
    let lo = Log_entry.drop_at ~slot_base:t.base ~slot_size:t.size t.ndrops in
    Line_buf.add_range lines ~off:lo ~len:(t.base + t.size - lo)
  end;
  lines

(* One group-commit phase of {!Protocol.group_commit_plan}.  The fault
   elision/duplication knobs apply to the solo path only (the
   sanitizer's positive controls run private pools). *)
let exec_group_phase t gc joinable = function
  | Protocol.Merge_runs ->
      (* Publish our line set (withdrawing our joinable mark) and wait
         out the epoch: the leader (maybe us) flushes the merged runs
         and issues the epoch fence inside this call.  Raises
         [D.Crashed] if the device dies before our epoch's fence — the
         slot rolls back independently at recovery. *)
      Group_commit.commit ?joinable gc ~lines:(commit_line_set t)
  | Protocol.Epoch_fence ->
      (* The fence itself was issued once, by the epoch leader, inside
         [Merge_runs]; observing epoch completion is this member's
         commit point. *)
      if Pr.on () then
        Pr.emit
          (Pr.Commit_point { dev = D.id t.dev; ns = D.simulated_ns t.dev })
  | ph -> exec_commit_phase t ph

let rec run_group t gc joinable = function
  | [] -> ()
  | ph :: rest ->
      exec_group_phase t gc joinable ph;
      run_group t gc joinable rest

let commit ?group ?joinable t =
  require_active t;
  t.active <- false;
  if t.count = 0 && t.ndrops = 0 then ()
  else begin
    (* Deferred entry seals become durable here, under ONE collapsed
       flush+fence, strictly before any target or mark flush: a landed
       target line or table mark must always have a durable entry behind
       it, exactly as with per-entry seals — only the fence count
       changes. *)
    flush_pending_seal t;
    Line_buf.clear t.clears;
    (match group with
    | Some gc -> run_group t gc joinable Protocol.group_commit_plan
    | None -> run exec_commit_phase t (Protocol.commit_plan ~ndrops:t.ndrops));
    (* Truncate: clear flush + fence (when needed), then one batched
       header persist retires the log.  Per-member even under group
       commit: the header persist is this transaction's durability
       acknowledgment. *)
    truncate_clears t
  end

(* One abort phase of {!Protocol.abort_plan}.  [entries] is the walked
   durable log, newest-first — the order undo must apply. *)
let exec_abort_phase t entries = function
  | Protocol.Restore_data ->
      List.iter
        (fun e ->
          match e with
          | Log_entry.Data { off; len; payload } ->
              D.copy_within t.dev ~src:payload ~dst:off ~len;
              D.flush t.dev off len
          | Log_entry.Alloc _ | Log_entry.Drop _ -> ())
        entries
  | Protocol.Restore_fence -> D.fence t.dev
  | Protocol.Revert_allocs ->
      (* Allocation reverts are dirty clears, made durable in the
         batched clear flush inside the truncate (same ordering as
         commit's deferred frees: clears strictly before log
         invalidation). *)
      List.iter
        (fun e ->
          match e with
          | Log_entry.Alloc { off; order = _ } ->
              Line_buf.add t.clears (Palloc.Buddy.line_of_offset t.buddy off);
              Palloc.Buddy.dealloc_if_live ~durable:false t.buddy off
          | Log_entry.Data _ | Log_entry.Drop _ -> ())
        entries
  | _ -> assert false (* not an abort phase *)

let abort t =
  require_active t;
  t.active <- false;
  if t.count = 0 then truncate t
  else begin
    (* Collect the sealed entries by walking to the tail terminator
       (following any spill chain).  The walk reads the device's current
       contents, so deferred (not-yet-durable) entries are restored too;
       no seal flush is needed first — under the redo-only constraint
       their home stores were never flushed either, so a crash mid-abort
       leaves the pre-transaction image durable on both sides. *)
    let entries = ref [] in
    let _visited, _cursor, _reason =
      Log_entry.walk_to_tail t.dev ~slot_base:t.base ~slot_size:t.size
        ~salt:t.salt (fun e -> entries := e :: !entries)
    in
    Line_buf.clear t.clears;
    List.iter
      (exec_abort_phase t !entries)
      (Protocol.abort_plan ~entries:(List.length !entries));
    truncate_clears t
  end
