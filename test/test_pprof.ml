(* The persist-waste profiler: known-answer minimal schedules for the
   shipped engine's operation windows, synthetic streams exercising each
   elision class, the wasteful fault profiles as positive controls
   (cross-checked against psan's W1/W2 warnings), capture JSON
   round-trips, the capture-diff used by [trace_check --diff], and the
   per-phase recovery timings flowing through the probe bus. *)

open Corundum
module D = Pmem.Device
module Pr = Ptelemetry.Probe
module Json = Ptelemetry.Json
module FP = Engines.Engine_common.Fault_profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh () =
  ignore (Pprof.Capture.stop ());
  Psan.disable ();
  Psan.reset ();
  FP.set FP.Clean

let corundum () = Option.get (Engines.Registry.find "corundum")

let find_window op rows =
  List.find (fun (w : Engines.Waste.op_waste) -> w.Engines.Waste.op = op) rows

(* --- known answers ---------------------------------------------------- *)

(* The shipped engine against its own minimal schedule, at a size/count
   small enough for a unit test.  The per-op costs are known answers
   (the same constants test_telemetry pins for one Pbox update): update,
   alloc+write and free all run exactly at the minimum.  Free used to
   carry one excess E3 flush per transaction — the advisory header-count
   write-back — until the counts were left volatile; its absence is now
   the known answer. *)
let test_corundum_known_answers () =
  fresh ();
  let ops = 8 in
  let rows = Engines.Waste.measure ~size:(8 * 1024 * 1024) ~ops (corundum ()) in
  let exact op ~fl ~mfl ~fe ~mfe =
    let w = find_window op rows in
    let r = w.Engines.Waste.report in
    check_int (op ^ " txs analyzed") ops r.Pprof.txs;
    check_int (op ^ " unanalyzed") 0 r.Pprof.unanalyzed;
    check_int (op ^ " actual flushes") (fl * ops) r.Pprof.actual_flushes;
    check_int (op ^ " min flushes") (mfl * ops) r.Pprof.min_flushes;
    check_int (op ^ " actual fences") (fe * ops) r.Pprof.actual_fences;
    check_int (op ^ " min fences") (mfe * ops) r.Pprof.min_fences;
    w
  in
  let update = exact "update" ~fl:3 ~mfl:3 ~fe:3 ~mfe:3 in
  check_int "update waste flushes" 0
    (Pprof.waste_flushes update.Engines.Waste.report);
  check_int "update waste fences" 0
    (Pprof.waste_fences update.Engines.Waste.report);
  check_int "update findings" 0
    (List.length update.Engines.Waste.report.Pprof.findings);
  let alloc = exact "alloc+write" ~fl:4 ~mfl:4 ~fe:3 ~mfe:3 in
  check_int "alloc+write waste flushes" 0
    (Pprof.waste_flushes alloc.Engines.Waste.report);
  check_int "alloc+write findings" 0
    (List.length alloc.Engines.Waste.report.Pprof.findings);
  let free = exact "free" ~fl:3 ~mfl:3 ~fe:3 ~mfe:3 in
  let r = free.Engines.Waste.report in
  check_int "free waste flushes" 0 (Pprof.waste_flushes r);
  check_int "free waste fences" 0 (Pprof.waste_fences r);
  check_int "free findings" 0 (List.length r.Pprof.findings)

(* The mod (minimally-ordered CoW) engine at the fence floor: one fence
   per update, two for alloc+write and free (the allocator's table
   publish still orders before the swap).  The commit word rides the
   unfenced tail, so the profiler's minimal schedule matches the actual
   one exactly — zero waste on every op.  Any E4 rows in by_class are
   advisory cross-transaction coalescing notes, not net waste, which is
   why only the totals are pinned here. *)
let test_mod_known_answers () =
  fresh ();
  let ops = 8 in
  let engine = Option.get (Engines.Registry.find "mod") in
  let rows = Engines.Waste.measure ~size:(8 * 1024 * 1024) ~ops engine in
  let exact op ~fl ~fe =
    let w = find_window op rows in
    let r = w.Engines.Waste.report in
    check_int (op ^ " txs analyzed") ops r.Pprof.txs;
    check_int (op ^ " actual flushes") (fl * ops) r.Pprof.actual_flushes;
    check_int (op ^ " min flushes") (fl * ops) r.Pprof.min_flushes;
    check_int (op ^ " actual fences") (fe * ops) r.Pprof.actual_fences;
    check_int (op ^ " min fences") (fe * ops) r.Pprof.min_fences;
    check_int (op ^ " waste flushes") 0 (Pprof.waste_flushes r);
    check_int (op ^ " waste fences") 0 (Pprof.waste_fences r)
  in
  exact "update" ~fl:3 ~fe:1;
  exact "alloc+write" ~fl:4 ~fe:2;
  exact "free" ~fl:3 ~fe:2

(* --- synthetic streams ------------------------------------------------ *)

let layout ~dev =
  Pr.Pool_layout
    {
      dev;
      journal_base = 4096;
      slot_size = 64 * 1024;
      nslots = 2;
      table_base = 256 * 1024;
      heap_base = 512 * 1024;
      heap_len = 1024 * 1024;
      cow_base = 1024;
      cow_len = 768;
    }

(* Two flush calls over adjacent heap lines under one fence: the device
   coalesces a contiguous range into one call, so the minimum is one
   flush and the second call is E4. *)
let test_synthetic_e4 () =
  fresh ();
  let dev = 9001 in
  let h = 512 * 1024 in
  let events =
    [
      Pr.Tx_begin { dev; ns = 1.0; slot = 0 };
      Pr.Store { dev; off = h; len = 8; ns = 2.0 };
      Pr.Store { dev; off = h + 64; len = 8; ns = 3.0 };
      Pr.Flush { dev; off = h; len = 64; ns = 4.0; lines = 1; dur_ns = 0. };
      Pr.Flush { dev; off = h + 64; len = 64; ns = 5.0; lines = 1; dur_ns = 0. };
      Pr.Fence { dev; ns = 6.0; lines = 0; dur_ns = 0. };
      Pr.Commit_point { dev; ns = 7.0 };
      Pr.Tx_end { dev; outcome = Pr.Commit; ns = 8.0; logged_bytes = 0; undo_depth = 0 };
    ]
  in
  let r = Pprof.analyze ~label:"e4" ~prelude:[ layout ~dev ] events in
  check_int "txs" 1 r.Pprof.txs;
  check_int "actual flushes" 2 r.Pprof.actual_flushes;
  check_int "min flushes (one contiguous run)" 1 r.Pprof.min_flushes;
  check_int "actual fences" 1 r.Pprof.actual_fences;
  check_int "min fences" 1 r.Pprof.min_fences;
  (match Pprof.waste_by_class r with
  | [ (Pprof.E4, 1, 0) ] -> ()
  | _ -> Alcotest.fail "expected exactly one E4 flush of waste")

(* A flush whose every line is re-dirtied before the governing fence
   wrote back bytes the crash protocol never relied on: E2. *)
let test_synthetic_superseded_e2 () =
  fresh ();
  let dev = 9002 in
  let h = 512 * 1024 in
  let events =
    [
      Pr.Tx_begin { dev; ns = 1.0; slot = 0 };
      Pr.Store { dev; off = h; len = 8; ns = 2.0 };
      Pr.Flush { dev; off = h; len = 64; ns = 3.0; lines = 1; dur_ns = 0. };
      (* re-dirty the same line before any fence: the first write-back
         is superseded *)
      Pr.Store { dev; off = h; len = 8; ns = 4.0 };
      Pr.Fence { dev; ns = 5.0; lines = 0; dur_ns = 0. };
      Pr.Flush { dev; off = h; len = 64; ns = 6.0; lines = 1; dur_ns = 0. };
      Pr.Fence { dev; ns = 7.0; lines = 0; dur_ns = 0. };
      Pr.Commit_point { dev; ns = 8.0 };
      Pr.Tx_end { dev; outcome = Pr.Commit; ns = 9.0; logged_bytes = 0; undo_depth = 0 };
    ]
  in
  let r = Pprof.analyze ~label:"e2" ~prelude:[ layout ~dev ] events in
  check_int "actual flushes" 2 r.Pprof.actual_flushes;
  check_int "min flushes" 1 r.Pprof.min_flushes;
  check_int "waste flushes" 1 (Pprof.waste_flushes r);
  check_int "waste fences" 1 (Pprof.waste_fences r);
  let e2 =
    List.filter (fun (f : Pprof.finding) -> f.Pprof.cls = Pprof.E2)
      r.Pprof.findings
  in
  (match e2 with
  | [ f ] ->
      check_bool "E2 is a flush" true (f.Pprof.kind = `Flush);
      check_int "E2 anchored at the superseded range" h f.Pprof.off
  | _ -> Alcotest.fail "expected exactly one E2 finding")

(* An aborted transaction is scored conservatively: minimum = actual,
   no waste claimed, however sloppy the persists were. *)
let test_aborted_tx_not_scored () =
  fresh ();
  let dev = 9003 in
  let h = 512 * 1024 in
  let events =
    [
      Pr.Tx_begin { dev; ns = 1.0; slot = 0 };
      Pr.Store { dev; off = h; len = 8; ns = 2.0 };
      Pr.Flush { dev; off = h; len = 64; ns = 3.0; lines = 1; dur_ns = 0. };
      Pr.Flush { dev; off = h; len = 64; ns = 4.0; lines = 1; dur_ns = 0. };
      Pr.Fence { dev; ns = 5.0; lines = 0; dur_ns = 0. };
      Pr.Fence { dev; ns = 6.0; lines = 0; dur_ns = 0. };
      Pr.Tx_end { dev; outcome = Pr.Abort; ns = 7.0; logged_bytes = 0; undo_depth = 0 };
    ]
  in
  let r = Pprof.analyze ~label:"abort" ~prelude:[ layout ~dev ] events in
  check_int "no tx analyzed" 0 r.Pprof.txs;
  check_int "one unanalyzed" 1 r.Pprof.unanalyzed;
  check_int "no waste" 0 (Pprof.waste_flushes r + Pprof.waste_fences r);
  check_int "no findings" 0 (List.length r.Pprof.findings)

(* A spill region still live at a power cycle rolls back at recovery:
   a later heap store in the same range is data, not journal protocol.
   Each stream runs one transaction that seals a journal line, then
   commits a heap line — two barriers with work, so two fences are the
   minimum whether or not a spill ever covered that heap range. *)
let test_spill_dies_at_power_cycle () =
  let h = 512 * 1024 in
  let tx dev =
    [
      Pr.Tx_begin { dev; ns = 1.0; slot = 0 };
      Pr.Store { dev; off = 4096 + 64; len = 8; ns = 2.0 };
      Pr.Flush { dev; off = 4096 + 64; len = 8; ns = 3.0; lines = 1; dur_ns = 0. };
      Pr.Fence { dev; ns = 4.0; lines = 1; dur_ns = 0. };
      Pr.Store { dev; off = h; len = 8; ns = 5.0 };
      Pr.Flush { dev; off = h; len = 8; ns = 6.0; lines = 1; dur_ns = 0. };
      Pr.Fence { dev; ns = 7.0; lines = 1; dur_ns = 0. };
      Pr.Commit_point { dev; ns = 8.0 };
      Pr.Tx_end { dev; outcome = Pr.Commit; ns = 9.0; logged_bytes = 0; undo_depth = 0 };
    ]
  in
  let reserve dev = Pr.Region_reserve { dev; off = h; len = 256; ns = 0.5 } in
  List.iter
    (fun (name, dev, before) ->
      fresh ();
      let r = Pprof.analyze ~label:name ~prelude:[ layout ~dev ] (before dev @ tx dev) in
      check_int (name ^ ": txs") 1 r.Pprof.txs;
      check_int (name ^ ": actual fences") 2 r.Pprof.actual_fences;
      check_int (name ^ ": min fences") 2 r.Pprof.min_fences;
      check_int (name ^ ": waste fences") 0 (Pprof.waste_fences r))
    [
      ("no spill", 9005, fun _ -> []);
      ("spill released", 9006, fun dev -> [ reserve dev; Pr.Region_release { dev; off = h } ]);
      ("spill live at power cycle", 9007, fun dev -> [ reserve dev; Pr.Power_cycle { dev } ]);
    ]

(* --- positive controls ------------------------------------------------ *)

(* Run the update window under a wasteful fault profile, analyze the
   capture, then replay the same capture into psan: the profiler must
   see the waste, classify it as promised, and explain every psan
   warning — the one-directional containment the design claims. *)
let wasteful_control profile =
  fresh ();
  let module E = (val corundum () : Engines.Engine_sig.S) in
  Pprof.Capture.start ();
  Fun.protect
    ~finally:(fun () ->
      ignore (Pprof.Capture.stop ());
      FP.set FP.Clean)
    (fun () ->
      let t = E.create ~size:(8 * 1024 * 1024) () in
      let root =
        E.transaction t (fun tx ->
            let r = E.alloc tx 64 in
            E.set_root tx r;
            r)
      in
      let prelude = Pprof.Capture.cut () in
      FP.set profile;
      for i = 1 to 8 do
        E.transaction t (fun tx -> E.write tx root (Int64.of_int i))
      done;
      FP.set FP.Clean;
      let events = Pprof.Capture.stop () in
      let r = Pprof.analyze ~label:(FP.name profile) ~prelude events in
      (* psan judges the same run via replay of the capture. *)
      Psan.reset ();
      Psan.enable ();
      Pprof.replay (prelude @ events);
      Psan.disable ();
      (r, Psan.violations (), Psan.warnings ()))

let explains (w : Psan.finding) (f : Pprof.finding) =
  f.Pprof.dev = w.Psan.dev
  &&
  match w.Psan.cls with
  | Psan.W1 ->
      f.Pprof.cls = Pprof.E2 && f.Pprof.kind = `Flush
      && w.Psan.off < f.Pprof.off + f.Pprof.len
      && f.Pprof.off < w.Psan.off + w.Psan.len
  | Psan.W2 -> f.Pprof.cls = Pprof.E1 && f.Pprof.kind = `Fence
  | _ -> false

let test_double_flush_control () =
  let r, violations, warnings = wasteful_control FP.Double_flush in
  check_int "double-flush stays crash-consistent (no psan violations)" 0
    (List.length violations);
  check_int "one excess flush per tx" 8 (Pprof.waste_flushes r);
  check_bool "waste classified E2" true
    (List.exists
       (fun (cls, fl, _) -> cls = Pprof.E2 && fl > 0)
       (Pprof.waste_by_class r));
  check_bool "psan W1 fired" true (warnings <> []);
  List.iter
    (fun (w : Psan.finding) ->
      check_bool "psan warning is W1" true (w.Psan.cls = Psan.W1);
      check_bool "W1 explained by a pprof E2 finding" true
        (List.exists (explains w) r.Pprof.findings))
    warnings

let test_double_fence_control () =
  let r, violations, warnings = wasteful_control FP.Double_fence in
  check_int "double-fence stays crash-consistent (no psan violations)" 0
    (List.length violations);
  check_int "two excess fences per tx" 16 (Pprof.waste_fences r);
  check_bool "waste classified E1" true
    (List.exists
       (fun (cls, _, fe) -> cls = Pprof.E1 && fe > 0)
       (Pprof.waste_by_class r));
  check_bool "psan W2 fired" true (warnings <> []);
  List.iter
    (fun (w : Psan.finding) ->
      check_bool "psan warning is W2" true (w.Psan.cls = Psan.W2);
      check_bool "W2 explained by a pprof E1 finding" true
        (List.exists (explains w) r.Pprof.findings))
    warnings

(* --- capture persistence ---------------------------------------------- *)

let test_events_json_roundtrip () =
  fresh ();
  let dev = 9004 in
  let h = 512 * 1024 in
  let events =
    [
      layout ~dev;
      Pr.Tx_begin { dev; ns = 1.0; slot = 1 };
      Pr.Log { dev; off = h; len = 16; entry = 48; ns = 1.5 };
      Pr.Alloc { dev; off = h + 128; len = 64; entry = 32; ns = 1.7 };
      Pr.Block_alloc { dev; off = h + 128; len = 64; ns = 1.6 };
      Pr.Store { dev; off = h; len = 8; ns = 2.0 };
      Pr.Flush { dev; off = h; len = 64; ns = 3.5; lines = 1; dur_ns = 1.5 };
      Pr.Fence { dev; ns = 4.0; lines = 1; dur_ns = 0.5 };
      Pr.Commit_point { dev; ns = 5.0 };
      Pr.Epoch { dev; members = 3 };
      Pr.Region_reserve { dev; off = h + 4096; len = 256; ns = 5.2 };
      Pr.Region_release { dev; off = h + 4096 };
      Pr.Journal_truncate { dev; slot_base = 4096; epoch = 3 };
      Pr.Drop_apply { dev; off = h + 128 };
      Pr.Block_free { dev; off = h + 128; len = 64; ns = 5.5 };
      Pr.Tx_end { dev; outcome = Pr.Commit; ns = 6.0; logged_bytes = 80; undo_depth = 2 };
      Pr.Exempt_push { dev };
      Pr.Recovery_phase { dev; phase = "walk"; ns = 7.0; dur_ns = 0.5 };
      Pr.Exempt_pop { dev };
      Pr.Recovery
        { dev; ns = 8.0; dur_ns = 2.0; slots = 2; rolled_back = 1; completed = 0;
          entries_skipped = 0 };
      Pr.Power_cycle { dev };
    ]
  in
  let round = Pr.of_json (Pr.to_json events) in
  check_bool "events survive the JSON round-trip" true (round = events);
  (* a capture written before the span/attribution fields existed loads
     with those fields zeroed *)
  let old =
    Json.of_string
      (Printf.sprintf
         {|{"schema": "corundum-probe-v1", "events": [
             {"t": "tx_begin", "dev": %d, "ns": 1},
             {"t": "flush", "dev": %d, "off": 0, "len": 64, "ns": 2},
             {"t": "fence", "dev": %d, "ns": 3},
             {"t": "log", "dev": %d, "off": 0, "len": 8},
             {"t": "tx_end", "dev": %d, "outcome": "commit", "ns": 4}]}|}
         dev dev dev dev dev)
  in
  check_bool "pre-field captures still load" true
    (Pr.of_json old
    = [
        Pr.Tx_begin { dev; ns = 1.0; slot = 0 };
        Pr.Flush { dev; off = 0; len = 64; ns = 2.0; lines = 0; dur_ns = 0.0 };
        Pr.Fence { dev; ns = 3.0; lines = 0; dur_ns = 0.0 };
        Pr.Log { dev; off = 0; len = 8; entry = 0; ns = 0.0 };
        Pr.Tx_end { dev; outcome = Pr.Commit; ns = 4.0; logged_bytes = 0; undo_depth = 0 };
      ]);
  (* retired [pool_attach] records (heap bounds now ride on
     [pool_layout]) are skipped, so older captures still load *)
  let legacy =
    Json.of_string
      (Printf.sprintf
         {|{"schema": "corundum-probe-v1", "events": [
             {"t": "pool_attach", "dev": %d, "heap_base": %d, "heap_len": 1048576},
             {"t": "power_cycle", "dev": %d}]}|}
         dev h dev)
  in
  check_bool "legacy pool_attach records are skipped" true
    (Pr.of_json legacy = [ Pr.Power_cycle { dev } ]);
  (* a malformed document must raise, not silently drop events *)
  check_bool "unknown schema rejected" true
    (match Pr.of_json (Json.Obj [ ("schema", Json.Str "nope") ]) with
    | _ -> false
    | exception Failure _ -> true)

(* --- capture diff ----------------------------------------------------- *)

let test_capture_diff_canned () =
  let a =
    Json.of_string
      {|{"counters": {"tx.count": 8, "flush.calls": 24},
         "histograms": {"tx.latency_ns": {"count": 8, "p50": 100, "p99": 200}}}|}
  in
  let b =
    Json.of_string
      {|{"counters": {"tx.count": 8, "flush.calls": 32},
         "histograms": {"tx.latency_ns": {"count": 8, "p50": 100, "p99": 400}}}|}
  in
  let entries = Ptelemetry.Capture_diff.diff a b in
  check_int "one counter delta + one histogram shift" 2 (List.length entries);
  check_bool "counter drift is informational" false
    (Ptelemetry.Capture_diff.waste_regressed entries);
  check_bool "render names the changed counter" true
    (let s = Ptelemetry.Capture_diff.render entries in
     let contains hay needle =
       let n = String.length needle in
       let rec go i =
         i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
       in
       go 0
     in
     contains s "flush.calls" && contains s "tx.latency_ns");
  let waste ~fl =
    Json.of_string
      (Printf.sprintf
         {|{"schema": "corundum-waste-v1",
            "engines": {"corundum": [{"op": "free",
                                      "waste_flushes_per_op": %f,
                                      "waste_fences_per_op": 0.0}]}}|}
         fl)
  in
  let worse =
    Ptelemetry.Capture_diff.diff (waste ~fl:1.0) (waste ~fl:2.0)
  in
  check_bool "waste growth regresses" true
    (Ptelemetry.Capture_diff.waste_regressed worse);
  let better =
    Ptelemetry.Capture_diff.diff (waste ~fl:2.0) (waste ~fl:1.0)
  in
  check_bool "waste shrinking passes (one-directional gate)" false
    (Ptelemetry.Capture_diff.waste_regressed better);
  check_int "identical waste diffs empty" 0
    (List.length (Ptelemetry.Capture_diff.diff (waste ~fl:1.0) (waste ~fl:1.0)))

(* --- recovery observability ------------------------------------------- *)

(* Crash a transaction mid-commit, capture the reattach through the
   probe bus, and check the per-phase recovery timings arrive both in
   Recovery.stats.phase_ns (via the pool) and in the pprof report (via
   Recovery_phase probe events) — the full observability loop.  The
   attach loads no allocation-table line: an impossible order byte at a
   free entry of every line would stop any walk of the table, yet only
   the first reserve, which builds its stripe, meets one. *)
let test_recovery_phase_timings () =
  fresh ();
  let config =
    { Pool_impl.size = 4 * 1024 * 1024; nslots = 2; slot_size = 64 * 1024 }
  in
  let pool = Pool_impl.create ~config ~latency:Pmem.Latency.optane () in
  let dev = Pool_impl.device pool in
  let scratch =
    Pool_impl.transaction pool (fun tx -> Pool_impl.tx_alloc tx 256)
  in
  (* Two sealed undo entries, then a crash before the truncate: recovery
     must walk the log and roll the transaction back. *)
  D.set_crash_countdown dev 6;
  (try
     Pool_impl.transaction pool (fun tx ->
         Pool_impl.tx_log tx ~off:scratch ~len:64;
         Pool_impl.tx_log tx ~off:(scratch + 128) ~len:64;
         D.write_u64 dev scratch 999L;
         D.write_u64 dev (scratch + 128) 999L)
   with D.Crashed -> ());
  D.set_crash_countdown dev 0;
  D.power_cycle dev;
  let table = Palloc.Buddy.table (Pool_impl.buddy pool) in
  let module T = Palloc.Alloc_table in
  let live = ref [] in
  T.iter_allocated table (fun ~idx ~order -> live := (idx, idx + (1 lsl order)) :: !live);
  let free idx = not (List.exists (fun (lo, hi) -> lo <= idx && idx < hi) !live) in
  let poisoned = ref (-1) in
  for idx = 0 to T.nblocks table - 1 do
    if T.entry_line table idx <> !poisoned && free idx then begin
      T.mark_durable table ~idx ~order:63;
      poisoned := T.entry_line table idx
    end
  done;
  Pprof.Capture.start ();
  let pool2 = Pool_impl.attach dev in
  let events = Pprof.Capture.stop () in
  Alcotest.match_raises "the first reserve builds a poisoned stripe"
    (function Invalid_argument m -> T.is_order_error m | _ -> false)
    (fun () -> ignore (Palloc.Buddy.reserve (Pool_impl.buddy pool2) 64));
  let stats = Pool_impl.recovery_stats pool2 in
  check_bool "transaction rolled back" true
    (stats.Pjournal.Recovery.rolled_back >= 1);
  let phase name =
    List.assoc_opt name stats.Pjournal.Recovery.phase_ns
  in
  List.iter
    (fun name ->
      check_bool (name ^ " phase timed") true
        (match phase name with Some d -> d > 0.0 | None -> false))
    [ "walk"; "rollback"; "truncate" ];
  check_bool "no table_scan phase" false
    (List.mem_assoc "table_scan" stats.Pjournal.Recovery.phase_ns);
  (* the same ledger reaches an offline observer through the capture *)
  let r = Pprof.analyze ~label:"recovery" events in
  List.iter
    (fun name ->
      check_bool (name ^ " phase in the pprof report") true
        (List.mem_assoc name r.Pprof.recovery_phases))
    [ "walk"; "rollback"; "truncate" ];
  check_bool "recovery persists counted exempt" true
    (r.Pprof.recovery_flushes > 0 || r.Pprof.recovery_fences > 0);
  check_int "no waste claimed inside the recovery window" 0
    (Pprof.waste_flushes r + Pprof.waste_fences r)

let () =
  Alcotest.run "pprof"
    [
      ( "known-answer",
        [
          Alcotest.test_case "corundum windows vs minimal schedule" `Quick
            test_corundum_known_answers;
          Alcotest.test_case "mod engine runs at the fence floor" `Quick
            test_mod_known_answers;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "adjacent-line flushes are E4" `Quick
            test_synthetic_e4;
          Alcotest.test_case "superseded write-back is E2" `Quick
            test_synthetic_superseded_e2;
          Alcotest.test_case "aborted tx scored conservatively" `Quick
            test_aborted_tx_not_scored;
          Alcotest.test_case "spill regions die at a power cycle" `Quick
            test_spill_dies_at_power_cycle;
        ] );
      ( "positive-control",
        [
          Alcotest.test_case "double-flush: E2 waste, psan W1 agreement"
            `Quick test_double_flush_control;
          Alcotest.test_case "double-fence: E1 waste, psan W2 agreement"
            `Quick test_double_fence_control;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "capture JSON round-trip" `Quick
            test_events_json_roundtrip;
        ] );
      ( "diff",
        [
          Alcotest.test_case "canned capture diff and waste gate" `Quick
            test_capture_diff_canned;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "per-phase timings through the probe bus" `Quick
            test_recovery_phase_timings;
        ] );
    ]
