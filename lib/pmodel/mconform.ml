(* Trace-driven conformance: replay a probe-captured execution of the
   REAL implementation against the model's protocol order.

   The model checker proves the modeled protocol safe; this module
   closes the loop by checking that the implementation actually follows
   that protocol.  It validates the ordering facts the model's safety
   argument rests on, against the event stream the live journal emits:

   - C-FENCE-AT-COMMIT: at a {!Ptelemetry.Probe.Commit_point}, every
     store and flush this transaction's domain issued is covered by a
     later fence on the device (the commit fence exists — under group
     commit it may have been issued by the epoch leader on another
     domain, which is exactly why the rule is "a fence after my last
     dirty work", not "a fence immediately before my commit point");
   - C-LOG-BEFORE-COMMIT: no log coverage ([Log]/[Alloc]) is added after
     the transaction's commit point;
   - C-DROP-AFTER-COMMIT: every [Drop_apply] happens inside a
     transaction, after its commit point (I-NO-ADVISORY-TRUST's writer
     half: drop records are durable before any clear);
   - C-CLEARS-BEFORE-INVALIDATE: between the commit point and the
     [Journal_truncate] that retires the log, table clears are flushed
     and fenced strictly before the header persist (I-CLEARS-BEFORE-
     INVALIDATE in trace form);
   - C-TRUNCATE-IN-TX: log retirement happens inside a transaction or
     inside a recovery ([Exempt]) window, never spontaneously;
   - C-COMMIT-RETIRES: a transaction that reached its commit point
     retires its log before [Tx_end];
   - C-EPOCH-MONOTONE: per slot, successive truncate epochs increase by
     exactly one (I-EPOCH);
   - C-GEOMETRY: log coverage and drop applications stay inside the
     heap (or a reserved spill region) of the attached pool.

   Transactions are per-DOMAIN: N domains sharing one pool interleave
   their event streams on one device, so every event carries the domain
   that emitted it (probe handlers run synchronously on the emitting
   thread) and the transactional state machine is keyed by
   (device, domain).  Fences are device-global — one domain's fence
   drains every domain's write-pending queue, the fact group commit is
   built on.

   The validator is pure: it consumes a captured event list and returns
   a verdict, so the same code judges live captures and replayed
   traces. *)

module Pr = Ptelemetry.Probe

type geom = {
  journal_base : int;
  slot_size : int;
  nslots : int;
  table_base : int;
  heap_base : int;
  heap_len : int;
  cow_base : int;
  cow_len : int;
}

type verdict = {
  events : int;
  txs : int;
  commit_points : int;
  truncates : int;
  drop_applies : int;
  violations : (int * string) list;  (* (event index, message) *)
}

let ok v = v.violations = []

(* Per-device validator state: geometry, slot epochs, spill regions and
   the index of the latest fence (fences drain the whole device). *)
type dstate = {
  mutable geom : geom option;
  mutable last_fence_i : int;
  epochs : (int, int) Hashtbl.t;  (* slot_base -> last truncate epoch *)
  mutable spills : (int * int) list;  (* reserved (off, len) regions *)
}

let fresh_dstate () =
  { geom = None; last_fence_i = -1; epochs = Hashtbl.create 4; spills = [] }

(* Per-(device, domain) transactional state. *)
type tstate = {
  mutable in_tx : bool;
  mutable saw_cp : bool;
  mutable tr_after_cp : bool;
  mutable is_cow : bool;  (* stored into the CoW root-cell region *)
  mutable exempt : int;
  mutable last_dirty_i : int;  (* latest Store/Flush by this domain *)
  mutable drops_since_cp : int;
  mutable since_cp : (int * Pr.event) list;  (* own events only, reversed *)
}

let fresh_tstate () =
  {
    in_tx = false;
    saw_cp = false;
    tr_after_cp = false;
    is_cow = false;
    exempt = 0;
    last_dirty_i = -1;
    drops_since_cp = 0;
    since_cp = [];
  }

let inter a alen b blen = a < b + blen && b < a + alen

let in_heap g off len =
  off >= g.heap_base && off + len <= g.heap_base + g.heap_len

let in_spill ds off len =
  List.exists (fun (so, sl) -> off >= so && off + len <= so + sl) ds.spills

(* C-CLEARS-BEFORE-INVALIDATE, judged at the truncate that retires a
   commit which applied drops: among this domain's events since its
   commit point, the last flush touching the allocation table must be
   followed by a fence, and the header persist (last flush touching the
   slot) must come after that table flush.  The truncate issues its own
   clear fence, so the domain's own stream contains everything the rule
   needs even when other domains interleave on the device. *)
let check_clears_order g ~slot_base evs =
  let evs = List.rev evs in
  let tmax = ref (-1) and smax = ref (-1) in
  List.iter
    (fun (i, e) ->
      match e with
      | Pr.Flush { off; len; _ } ->
          if inter off len g.table_base (g.heap_base - g.table_base) then
            tmax := i;
          if inter off len slot_base g.slot_size then smax := i
      | _ -> ())
    evs;
  if !tmax < 0 then
    Some "drops applied but no allocation-table flush before truncate"
  else if !smax < !tmax then
    Some "log invalidated by a header persist that precedes the table-clear flush"
  else if
    not
      (List.exists
         (fun (i, e) ->
           match e with Pr.Fence _ -> i > !tmax && i < !smax | _ -> false)
         evs)
  then Some "no fence between the table-clear flush and the header persist"
  else None

let validate (events : (int * Pr.event) list) : verdict =
  let devs : (int, dstate) Hashtbl.t = Hashtbl.create 4 in
  let dstate dev =
    match Hashtbl.find_opt devs dev with
    | Some d -> d
    | None ->
        let d = fresh_dstate () in
        Hashtbl.add devs dev d;
        d
  in
  let doms : (int * int, tstate) Hashtbl.t = Hashtbl.create 8 in
  let tstate dev dom =
    match Hashtbl.find_opt doms (dev, dom) with
    | Some t -> t
    | None ->
        let t = fresh_tstate () in
        Hashtbl.add doms (dev, dom) t;
        t
  in
  let violations = ref [] in
  let txs = ref 0 and cps = ref 0 and trs = ref 0 and das = ref 0 in
  let bad i fmt =
    Printf.ksprintf (fun msg -> violations := (i, msg) :: !violations) fmt
  in
  List.iteri
    (fun i (dom, ev) ->
      let dev =
        match ev with
        | Pr.Store { dev; _ } | Pr.Flush { dev; _ } | Pr.Fence { dev; _ }
        | Pr.Power_cycle { dev }
        | Pr.Tx_begin { dev; _ } | Pr.Tx_end { dev; _ } | Pr.Log { dev; _ }
        | Pr.Alloc { dev; _ } | Pr.Commit_point { dev; _ }
        | Pr.Region_reserve { dev; _ } | Pr.Region_release { dev; _ }
        | Pr.Exempt_push { dev } | Pr.Exempt_pop { dev }
        | Pr.Pool_layout { dev; _ } | Pr.Journal_truncate { dev; _ }
        | Pr.Drop_apply { dev; _ } | Pr.Recovery_phase { dev; _ }
        | Pr.Cow_shadow { dev; _ } | Pr.Cow_retire { dev; _ }
        | Pr.Recovery { dev; _ } | Pr.Epoch { dev; _ } | Pr.Block_alloc { dev; _ }
        | Pr.Block_free { dev; _ } ->
            dev
      in
      let ds = dstate dev in
      let ts = tstate dev dom in
      if ts.saw_cp then ts.since_cp <- (i, ev) :: ts.since_cp;
      match ev with
      | Pr.Pool_layout
          { journal_base; slot_size; nslots; table_base; heap_base; heap_len;
            cow_base; cow_len; _ } ->
          ds.geom <-
            Some
              { journal_base; slot_size; nslots; table_base; heap_base;
                heap_len; cow_base; cow_len }
      | Pr.Recovery_phase _ | Pr.Cow_shadow _
      | Pr.Cow_retire _ | Pr.Recovery _ | Pr.Epoch _ | Pr.Block_alloc _
      | Pr.Block_free _ ->
          ()
      | Pr.Store { off; len; _ } ->
          ts.last_dirty_i <- i;
          (* a store into the CoW root-cell region marks the transaction
             as CoW-committed: its "log" is the intent record, retired by
             the next generation's seal, not by a journal truncate *)
          (match ds.geom with
          | Some g when g.cow_len > 0 && inter off len g.cow_base g.cow_len ->
              ts.is_cow <- true
          | _ -> ())
      | Pr.Flush _ -> ts.last_dirty_i <- i
      | Pr.Fence _ -> ds.last_fence_i <- i
      | Pr.Power_cycle _ ->
          (* volatile context is gone with the power, on every domain *)
          ds.last_fence_i <- -1;
          Hashtbl.iter
            (fun (d, _) t ->
              if d = dev then begin
                t.in_tx <- false;
                t.saw_cp <- false;
                t.tr_after_cp <- false;
                t.is_cow <- false;
                t.exempt <- 0;
                t.last_dirty_i <- -1;
                t.drops_since_cp <- 0;
                t.since_cp <- []
              end)
            doms
      | Pr.Tx_begin _ ->
          if ts.in_tx then bad i "C-TRUNCATE-IN-TX: nested outermost Tx_begin";
          incr txs;
          ts.in_tx <- true;
          ts.saw_cp <- false;
          ts.tr_after_cp <- false;
          ts.is_cow <- false;
          ts.drops_since_cp <- 0;
          ts.since_cp <- []
      | Pr.Tx_end { outcome; _ } ->
          if not ts.in_tx then bad i "Tx_end without Tx_begin";
          if
            outcome = Pr.Commit && ts.saw_cp && not ts.tr_after_cp
            && not ts.is_cow
          then
            bad i
              "C-COMMIT-RETIRES: transaction reached its commit point but \
               never retired its log";
          ts.in_tx <- false;
          ts.saw_cp <- false;
          ts.tr_after_cp <- false;
          ts.is_cow <- false;
          ts.drops_since_cp <- 0;
          ts.since_cp <- []
      | Pr.Log { off; len; _ } ->
          if ts.in_tx && ts.saw_cp then
            bad i "C-LOG-BEFORE-COMMIT: log coverage added after the commit point";
          (* undo coverage may also name transactional pool-header fields
             (the root pointer), which live below the journal *)
          (match ds.geom with
          | Some g
            when not
                   (off + len <= g.journal_base
                   || in_heap g off len || in_spill ds off len) ->
              bad i "C-GEOMETRY: log coverage at %#x+%d outside the heap" off len
          | _ -> ())
      | Pr.Alloc { off; len; _ } ->
          if ts.in_tx && ts.saw_cp then
            bad i "C-LOG-BEFORE-COMMIT: log coverage added after the commit point";
          (match ds.geom with
          | Some g when not (in_heap g off len) ->
              bad i "C-GEOMETRY: allocation at %#x+%d outside the heap" off len
          | _ -> ())
      | Pr.Commit_point _ ->
          incr cps;
          if not ts.in_tx then bad i "commit point outside a transaction";
          if ds.last_fence_i <= ts.last_dirty_i then
            bad i
              "C-FENCE-AT-COMMIT: commit point with dirty work not covered \
               by a fence";
          ts.saw_cp <- true;
          ts.tr_after_cp <- false;
          ts.drops_since_cp <- 0;
          ts.since_cp <- []
      | Pr.Region_reserve { off; len; _ } -> ds.spills <- (off, len) :: ds.spills
      | Pr.Region_release { off; _ } ->
          ds.spills <- List.filter (fun (o, _) -> o <> off) ds.spills
      | Pr.Exempt_push _ -> ts.exempt <- ts.exempt + 1
      | Pr.Exempt_pop _ -> ts.exempt <- max 0 (ts.exempt - 1)
      | Pr.Journal_truncate { slot_base; epoch; _ } ->
          incr trs;
          if (not ts.in_tx) && ts.exempt = 0 then
            bad i
              "C-TRUNCATE-IN-TX: log retired outside any transaction or \
               recovery window";
          (match ds.geom with
          | Some g ->
              let rel = slot_base - g.journal_base in
              if
                rel < 0
                || rel mod g.slot_size <> 0
                || rel / g.slot_size >= g.nslots
              then bad i "C-GEOMETRY: truncate at %#x is not a slot base" slot_base
              else if ts.saw_cp && ts.drops_since_cp > 0 then (
                match check_clears_order g ~slot_base ts.since_cp with
                | Some msg -> bad i "C-CLEARS-BEFORE-INVALIDATE: %s" msg
                | None -> ())
          | None -> ());
          (match Hashtbl.find_opt ds.epochs slot_base with
          | Some prev when epoch <> prev + 1 ->
              bad i "C-EPOCH-MONOTONE: slot %#x epoch %d after %d" slot_base
                epoch prev
          | _ -> ());
          Hashtbl.replace ds.epochs slot_base epoch;
          if ts.saw_cp then ts.tr_after_cp <- true
      | Pr.Drop_apply { off; _ } ->
          incr das;
          if not (ts.in_tx && ts.saw_cp) then
            bad i
              "C-DROP-AFTER-COMMIT: deferred free applied outside a \
               committed transaction's post-fence window";
          if ts.tr_after_cp then
            bad i
              "C-DROP-AFTER-COMMIT: deferred free applied after the log \
               was already retired";
          ts.drops_since_cp <- ts.drops_since_cp + 1;
          (match ds.geom with
          | Some g when not (in_heap g off 1) ->
              bad i "C-GEOMETRY: drop applied at %#x outside the heap" off
          | _ -> ()))
    events;
  {
    events = List.length events;
    txs = !txs;
    commit_points = !cps;
    truncates = !trs;
    drop_applies = !das;
    violations = List.rev !violations;
  }

(* Validate an untagged single-threaded stream (hand-built test vectors,
   replayed captures from before domain tagging). *)
let validate_events (events : Pr.event list) : verdict =
  validate (List.map (fun e -> (0, e)) events)

(* Run [f] with a domain-tagged recorder subscribed alongside any other
   subscriber; returns the captured events alongside [f]'s result. *)
let capture f =
  let r = Pr.Recorder.start () in
  match f () with
  | v -> (Pr.Recorder.stop r, v)
  | exception e ->
      ignore (Pr.Recorder.stop r);
      raise e

let pp_verdict ppf v =
  Format.fprintf ppf
    "%d events, %d txs, %d commit points, %d truncates, %d drop applies: %s@."
    v.events v.txs v.commit_points v.truncates v.drop_applies
    (if ok v then "conformant"
     else Printf.sprintf "%d violations" (List.length v.violations));
  List.iter
    (fun (i, msg) -> Format.fprintf ppf "  at event %d: %s@." i msg)
    v.violations
