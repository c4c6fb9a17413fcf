(* The one monitor of the persistence protocol, a plain value stepped
   with each probe event and [~who], the domain that emitted it.  It
   owns the per-device context ({!dev}: layout, regions, spills, the
   recovery bracket, line persist states, retired blocks, slot epochs,
   the last fence), which {!observe} steps alone for pprof, and the
   per-(device, domain) transaction state ({!dom}): domains sharing a
   pool interleave on one device, while a fence drains every domain's
   write-pending queue.  The recovery bracket is per device (recovery
   runs at attach, before any domain opens a transaction), and a power
   cycle ends it with every line, spill region and open transaction.

   Every stream is judged by psan's V1–V5/W1–W2 (see {!Psan}),
   deduplicated per (class, device, line), and by the C-rules
   [Pmodel.Mconform] reports, one message per breach:

   - C-FENCE-AT-COMMIT: at a [Commit_point], every store and flush this
     transaction's domain issued is covered by a later fence on the
     device (under group commit the epoch leader on another domain may
     have issued it, so the rule is "a fence after my last dirty work");
   - C-LOG-BEFORE-COMMIT: no log coverage ([Log]/[Alloc]) is added after
     the transaction's commit point;
   - C-DROP-AFTER-COMMIT: every [Drop_apply] happens inside a
     transaction, after its commit point (I-NO-ADVISORY-TRUST's writer
     half: drop records are durable before any clear);
   - C-CLEARS-BEFORE-INVALIDATE: between the commit point and the
     [Journal_truncate] that retires the log, table clears are flushed
     and fenced strictly before the header persist;
   - C-TRUNCATE-IN-TX: log retirement happens inside a transaction or
     inside a recovery ([Exempt]) window, never spontaneously;
   - C-COMMIT-RETIRES: a transaction that reached its commit point
     retires its log before [Tx_end];
   - C-EPOCH-MONOTONE: per slot, successive truncate epochs increase by
     exactly one (I-EPOCH);
   - C-GEOMETRY: log coverage, allocations and drop applications stay
     inside the heap of the attached pool (spill regions are heap
     blocks). *)

module Pr = Ptelemetry.Probe
module PL = Pmem.Persist_line
module Sh = PL.Shadow
module LE = Pjournal.Log_entry

(* {1 The device context} *)

type layout = {
  journal_base : int;
  slot_size : int;
  nslots : int;
  table_base : int;
  heap_base : int;
  heap_len : int;
  cow_base : int;
  cow_len : int;
}

type dev = {
  id : int;
  mutable layout : layout option;  (* from Pool_layout *)
  lines : Sh.t;  (* line owners are the storing domains *)
  spills : (int, int) Hashtbl.t;  (* live spill regions: off -> len *)
  retired : (int, int) Hashtbl.t;  (* CoW-retired blocks: off -> len *)
  epochs : (int, int) Hashtbl.t;  (* slot_base -> last truncate epoch *)
  mutable exempt : int;  (* recovery bracket nesting *)
  mutable queued : int list;  (* the lines the latest flush queued *)
  mutable empty_fences : int;  (* trailing fences that drained nothing *)
  mutable last_fence : int;  (* stream index of the latest fence *)
  mutable cycles : int;  (* power cycles seen *)
}

type ctx = { devs : (int, dev) Hashtbl.t; mutable events : int }

let context () = { devs = Hashtbl.create 8; events = 0 }

let dev ctx id =
  match Hashtbl.find_opt ctx.devs id with
  | Some d -> d
  | None ->
      let d =
        {
          id;
          layout = None;
          lines = Sh.create ();
          spills = Hashtbl.create 8;
          retired = Hashtbl.create 8;
          epochs = Hashtbl.create 4;
          exempt = 0;
          queued = [];
          empty_fences = 0;
          last_fence = -1;
          cycles = 0;
        }
      in
      Hashtbl.add ctx.devs id d;
      d

type region = Header | Cow | Journal | Journal_adv | Table | Heap | Spill

let region d g ~off ~len =
  if off < g.journal_base then
    if g.cow_len > 0 && off >= g.cow_base && off < g.cow_base + g.cow_len then
      Cow
    else Header
  else if off < g.table_base then begin
    let rel = (off - g.journal_base) mod g.slot_size in
    (* The slot header line mixes advisory words (the entry and drop
       counts, which end where the spill link starts) with required ones
       (phase, spill link, epoch), so advisory status is byte-range, not
       line, granular. *)
    if rel >= LE.hdr_count && rel + len <= LE.hdr_spill then Journal_adv else Journal
  end
  else if off < g.heap_base then Table
  else if Hashtbl.fold (fun o l acc -> acc || (off >= o && off < o + l)) d.spills false
  then Spill
  else Heap

let inter a alen b blen = a < b + blen && b < a + alen

(* Step the context of the event's device; returns the event's stream
   index and the device. *)
let observe ctx ~who ev =
  let i = ctx.events in
  ctx.events <- i + 1;
  let d = dev ctx (Pr.dev_of ev) in
  (match ev with
  | Pr.Store { off; len; _ } -> Sh.store d.lines ~who ~off ~len
  | Pr.Flush { off; len; _ } -> d.queued <- Sh.flush d.lines ~off ~len
  | Pr.Fence _ ->
      d.empty_fences <- (if Sh.fence d.lines = 0 then d.empty_fences + 1 else 0);
      d.last_fence <- i
  | Pr.Power_cycle _ ->
      (* Slot epochs are durable; the rest is gone with the power. *)
      Sh.reset d.lines;
      Hashtbl.reset d.spills;
      Hashtbl.reset d.retired;
      d.exempt <- 0;
      d.empty_fences <- 0;
      d.last_fence <- -1;
      d.cycles <- d.cycles + 1
  | Pr.Pool_layout
      { journal_base; slot_size; nslots; table_base; heap_base; heap_len;
        cow_base; cow_len; _ } ->
      d.layout <-
        Some
          { journal_base; slot_size; nslots; table_base; heap_base; heap_len;
            cow_base; cow_len }
  | Pr.Region_reserve { off; len; _ } -> Hashtbl.replace d.spills off len
  | Pr.Region_release { off; _ } -> Hashtbl.remove d.spills off
  | Pr.Exempt_push _ -> d.exempt <- d.exempt + 1
  | Pr.Exempt_pop _ -> d.exempt <- max 0 (d.exempt - 1)
  | Pr.Alloc { off; len; _ } | Pr.Cow_shadow { off; len; _ } ->
      (* a reissued block is no longer retired *)
      Hashtbl.filter_map_inplace
        (fun o l -> if max off o < min (off + len) (o + l) then None else Some l)
        d.retired
  | Pr.Cow_retire { off; len; _ } -> Hashtbl.replace d.retired off len
  | _ -> ());
  (i, d)

(* {1 The monitor} *)

type dom = {
  mutable tx : int option;  (* ordinal of the open transaction *)
  mutable covered : (int * int) list;  (* logged ranges ∪ fresh allocs *)
  mutable stored : (int * int) list;  (* heap, non-exempt stores *)
  mutable saw_cp : bool;
  mutable since_cp : (int * Pr.event) list;  (* own events only, reversed *)
  mutable is_cow : bool;  (* stored into the CoW root-cell region *)
  mutable last_dirty : int;  (* latest Store/Flush by this domain *)
}

type violation_class = V1 | V2 | V3 | V4 | V5 | W1 | W2

type finding = {
  cls : violation_class;
  dev : int;
  off : int;
  len : int;
  tx : int option;
  ns : float;
  detail : string;
}

type t = {
  ctx : ctx;
  doms : (int * int, dom) Hashtbl.t;  (* (device, domain) *)
  user_exempt : int -> (int * int) list;
  on_finding : finding -> unit;
  seen : (violation_class * int * int, unit) Hashtbl.t;
  mutable found : finding list;  (* newest first *)
  mutable violations : (int * string) list;  (* C-rules, newest first *)
  mutable txs : int;
  mutable commit_points : int;
  mutable truncates : int;
  mutable drop_applies : int;
}

let create ?(exempt = fun _ -> []) ?(on_finding = ignore) () =
  {
    ctx = context ();
    doms = Hashtbl.create 8;
    user_exempt = exempt;
    on_finding;
    seen = Hashtbl.create 64;
    found = [];
    violations = [];
    txs = 0;
    commit_points = 0;
    truncates = 0;
    drop_applies = 0;
  }

(* A transaction boundary or a power cycle: the domain starts over. *)
let restart (ts : dom) tx =
  ts.tx <- tx;
  ts.covered <- [];
  ts.stored <- [];
  ts.saw_cp <- false;
  ts.since_cp <- [];
  ts.is_cow <- false

let dom t ~dev ~who =
  match Hashtbl.find_opt t.doms (dev, who) with
  | Some ts -> ts
  | None ->
      let ts =
        { tx = None; covered = []; stored = []; saw_cp = false; since_cp = [];
          is_cow = false; last_dirty = -1 }
      in
      Hashtbl.add t.doms (dev, who) ts;
      ts

let record t cls d ~off ~len ~tx ~ns detail =
  let key = (cls, d.id, PL.line_of off) in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    let f = { cls; dev = d.id; off; len; tx; ns; detail } in
    t.found <- f :: t.found;
    t.on_finding f
  end

(* {2 V-rules}

   Ranges are (off, len) lists, unordered and possibly overlapping;
   coverage checks subtract covering intervals from the query segment
   and look at what survives.  Lists are per-transaction and small. *)

let subtract segs (o, l) =
  let e = o + l in
  List.concat_map
    (fun (so, sl) ->
      let se = so + sl in
      if e <= so || o >= se then [ (so, sl) ]
      else
        (if o > so then [ (so, o - so) ] else [])
        @ if e < se then [ (e, se - e) ] else [])
    segs

let remaining segs cover = List.fold_left subtract segs cover

let on_store t d (ts : dom) ~off ~len ~ns =
  let tx = ts.tx in
  (* Use-after-retire: no store may land in a retired block until the
     allocator reissues it, no matter how well-covered the tx is. *)
  Hashtbl.iter
    (fun o l ->
      let lo = max off o and hi = min (off + len) (o + l) in
      if hi > lo then
        record t V5 d ~off:lo ~len:(hi - lo) ~tx ~ns
          "block was retired by a root swap and not reissued")
    d.retired;
  match d.layout with
  | None -> ()
  | Some g ->
      (* Only heap data is checked; protocol regions (everything below
         the heap), live spill regions and user exemptions are not. *)
      let lo = max off g.heap_base and hi = min (off + len) (g.heap_base + g.heap_len) in
      let exempt = Hashtbl.fold (fun o l acc -> (o, l) :: acc) d.spills (t.user_exempt d.id) in
      let segs = if hi > lo then remaining [ (lo, hi - lo) ] exempt else [] in
      if tx = None then
        List.iter
          (fun (o, l) ->
            record t V4 d ~off:o ~len:l ~tx ~ns "heap store with no open transaction")
          segs
      else begin
        ts.stored <- segs @ ts.stored;
        List.iter
          (fun (o, l) ->
            record t V1 d ~off:o ~len:l ~tx ~ns
              "no covering undo-log entry or same-tx allocation")
          (remaining segs ts.covered)
      end

(* At the commit point every range the transaction stored must already
   be durable: dirty means the flush is missing, write-pending means
   the fence is.  Judged here — before the journal truncates — because
   truncation's own persists drain the WPQ and would mask both.  Only
   the committing domain's own residue counts: on a shared pool another
   domain may have re-dirtied one of these lines between this member's
   epoch fence and its commit point, and that is its transaction's
   problem, not this one's. *)
let check_commit t d (ts : dom) ~who ~ns =
  List.iter
    (fun (o, l) ->
      for ln = PL.line_of o to PL.line_of (o + l - 1) do
        let off = PL.line_start ln and len = PL.line_size in
        if List.mem who (Sh.dirty_owners d.lines ln) then
          record t V2 d ~off ~len ~tx:ts.tx ~ns "line still dirty at commit point (missing flush)"
        else if List.mem who (Sh.pending_owners d.lines ln) then
          record t V3 d ~off ~len ~tx:ts.tx ~ns
            "line write-pending at commit point (flush without fence)"
      done)
    ts.stored

(* {2 C-rules} *)

let bad t i fmt =
  Printf.ksprintf (fun msg -> t.violations <- (i, msg) :: t.violations) fmt

let in_heap g off len =
  off >= g.heap_base && off + len <= g.heap_base + g.heap_len

(* Log coverage ([Log], [Alloc]) belongs before the commit point. *)
let cover t i (ts : dom) off len =
  if ts.tx <> None then begin
    if ts.saw_cp then
      bad t i "C-LOG-BEFORE-COMMIT: log coverage added after the commit point";
    ts.covered <- (off, len) :: ts.covered
  end

(* Whether the domain retired its log, or applied drops, since its
   commit point. *)
let retired ts =
  List.exists (function _, Pr.Journal_truncate _ -> true | _ -> false) ts.since_cp

let dropped ts = List.exists (function _, Pr.Drop_apply _ -> true | _ -> false) ts.since_cp

(* C-CLEARS-BEFORE-INVALIDATE, judged at the truncate that retires a
   commit which applied drops: among this domain's events since its
   commit point, the last flush touching the allocation table must be
   followed by a fence, and the header persist (last flush touching the
   slot) must come after that table flush.  The truncate issues its own
   clear fence, so the domain's own stream contains everything the rule
   needs even when other domains interleave on the device. *)
let check_clears_order g ~slot_base evs =
  let last p = List.fold_left (fun m (i, e) -> if p e then max m i else m) (-1) evs in
  let flush_in o l = function Pr.Flush { off; len; _ } -> inter off len o l | _ -> false in
  let tmax = last (flush_in g.table_base (g.heap_base - g.table_base))
  and smax = last (flush_in slot_base g.slot_size) in
  if tmax < 0 then Some "drops applied but no allocation-table flush before truncate"
  else if smax < tmax then
    Some "log invalidated by a header persist that precedes the table-clear flush"
  else if
    not (List.exists (function i, Pr.Fence _ -> i > tmax && i < smax | _ -> false) evs)
  then Some "no fence between the table-clear flush and the header persist"
  else None

(* {2 Stepping} *)

let step t ~who ev =
  let i, d = observe t.ctx ~who ev in
  let ts = dom t ~dev:d.id ~who in
  if ts.saw_cp then ts.since_cp <- (i, ev) :: ts.since_cp;
  let bad fmt = bad t i fmt in
  match ev with
  | Pr.Store { off; len; ns; _ } ->
      ts.last_dirty <- i;
      (* a store into the CoW root-cell region marks the transaction
         as CoW-committed: its "log" is the intent record, retired by
         the next generation's seal, not by a journal truncate *)
      (match d.layout with
      | Some g when g.cow_len > 0 && inter off len g.cow_base g.cow_len ->
          ts.is_cow <- true
      | _ -> ());
      if d.exempt = 0 then on_store t d ts ~off ~len ~ns
  | Pr.Flush { off; len; ns; _ } ->
      ts.last_dirty <- i;
      if d.queued = [] && d.exempt = 0 then
        record t W1 d ~off ~len ~tx:ts.tx ~ns "flushed lines held no unwritten-back data"
  | Pr.Fence { ns; _ } ->
      if d.empty_fences >= 2 && d.exempt = 0 then
        record t W2 d ~off:0 ~len:0 ~tx:ts.tx ~ns
          "consecutive fences with an empty write-pending queue"
  | Pr.Power_cycle _ ->
      Hashtbl.iter
        (fun (dv, _) ts ->
          if dv = d.id then begin
            restart ts None;
            ts.last_dirty <- -1
          end)
        t.doms
  | Pr.Tx_begin _ ->
      if ts.tx <> None then bad "C-TRUNCATE-IN-TX: nested outermost Tx_begin";
      t.txs <- t.txs + 1;
      restart ts (Some t.txs)
  | Pr.Tx_end { outcome; ns; _ } ->
      if ts.tx = None then bad "Tx_end without Tx_begin"
      else if outcome = Pr.Commit && not ts.saw_cp then
        (* The journal had nothing to commit, so no commit point was
           emitted (nor any fence run) — judge here. *)
        check_commit t d ts ~who ~ns;
      if outcome = Pr.Commit && ts.saw_cp && (not (retired ts)) && not ts.is_cow
      then
        bad
          "C-COMMIT-RETIRES: transaction reached its commit point but never \
           retired its log";
      restart ts None
  | Pr.Log { off; len; _ } -> (
      cover t i ts off len;
      (* undo coverage may also name transactional pool-header fields
         (the root pointer), which live below the journal *)
      match d.layout with
      | Some g when not (off + len <= g.journal_base || in_heap g off len) ->
          bad "C-GEOMETRY: log coverage at %#x+%d outside the heap" off len
      | _ -> ())
  | Pr.Alloc { off; len; _ } -> (
      cover t i ts off len;
      match d.layout with
      | Some g when not (in_heap g off len) ->
          bad "C-GEOMETRY: allocation at %#x+%d outside the heap" off len
      | _ -> ())
  | Pr.Cow_shadow { off; len; _ } ->
      (* Shadow state is unreachable until the root swap publishes it,
         so it is rollback-safe exactly like a fresh alloc. *)
      if ts.tx <> None then ts.covered <- (off, len) :: ts.covered
  | Pr.Commit_point { ns; _ } ->
      t.commit_points <- t.commit_points + 1;
      if ts.tx = None then bad "commit point outside a transaction"
      else check_commit t d ts ~who ~ns;
      if d.last_fence <= ts.last_dirty then
        bad "C-FENCE-AT-COMMIT: commit point with dirty work not covered by a fence";
      ts.saw_cp <- true;
      ts.since_cp <- []
  | Pr.Journal_truncate { slot_base; epoch; _ } ->
      t.truncates <- t.truncates + 1;
      if ts.tx = None && d.exempt = 0 then
        bad "C-TRUNCATE-IN-TX: log retired outside any transaction or recovery window";
      (match d.layout with
      | Some g ->
          let rel = slot_base - g.journal_base in
          if rel < 0 || rel mod g.slot_size <> 0 || rel / g.slot_size >= g.nslots
          then bad "C-GEOMETRY: truncate at %#x is not a slot base" slot_base
          else if ts.saw_cp && dropped ts then (
            match check_clears_order g ~slot_base ts.since_cp with
            | Some msg -> bad "C-CLEARS-BEFORE-INVALIDATE: %s" msg
            | None -> ())
      | None -> ());
      (match Hashtbl.find_opt d.epochs slot_base with
      | Some prev when epoch <> prev + 1 ->
          bad "C-EPOCH-MONOTONE: slot %#x epoch %d after %d" slot_base epoch prev
      | _ -> ());
      Hashtbl.replace d.epochs slot_base epoch
  | Pr.Drop_apply { off; _ } -> (
      t.drop_applies <- t.drop_applies + 1;
      if ts.tx = None || not ts.saw_cp then
        bad
          "C-DROP-AFTER-COMMIT: deferred free applied outside a committed \
           transaction's post-fence window";
      if retired ts then
        bad
          "C-DROP-AFTER-COMMIT: deferred free applied after the log was \
           already retired";
      match d.layout with
      | Some g when not (in_heap g off 1) ->
          bad "C-GEOMETRY: drop applied at %#x outside the heap" off
      | _ -> ())
  | _ ->
      (* the context's alone (layout, spills, brackets, retirement) or
         for other subscribers *)
      ()

(* The replay front-end's fold: a fresh monitor over a domain-tagged
   capture ({!Ptelemetry.Probe.Recorder}). *)
let replay events =
  let t = create () in
  List.iter (fun (who, ev) -> step t ~who ev) events;
  t

let findings t = List.rev t.found
let violations t = List.rev t.violations
