(* The crash-state model checker, checked: the real protocol must verify
   over its full bounded space, every deliberately broken variant must
   yield a counterexample, counterexamples must replay from their repro
   spec, and the trace conformance validator must accept a real capture
   and reject a synthetic protocol violation. *)

module Ms = Pmodel.Mstate
module Mc = Pmodel.Mcheck
module Mw = Pmodel.Mcow
module Mv = Pmodel.Mvariant
module Cf = Pmodel.Mconform
module Pr = Ptelemetry.Probe

let test_correct_protocol_verifies () =
  let r = Mc.run Mv.Correct in
  (match r.Mc.cex with
  | None -> ()
  | Some c -> Alcotest.failf "correct protocol: %s" (Format.asprintf "%a" Mc.pp_cex c));
  let s = r.Mc.stats in
  Alcotest.(check bool) "programs explored" true (s.Mc.programs > 50);
  Alcotest.(check bool) "crash branches explored" true (s.Mc.crash_branches > 1000);
  Alcotest.(check bool)
    "recovery itself crashed" true (s.Mc.nested_branches > 1000)

let test_controls_all_caught () =
  List.iter
    (fun v ->
      (* each seeded bug runs in the model family its mutation targets *)
      let caught =
        match v with
        | Mv.Swap_before_flush ->
            let r = Mw.run ~nested:false v in
            r.Mw.cex <> None
        | _ ->
            let r = Mc.run ~nested:false v in
            r.Mc.cex <> None
      in
      if not caught then
        Alcotest.failf "seeded bug %S produced no counterexample" (Mv.name v))
    Mv.broken

(* The CoW family: the shipped intent/swap protocol must verify over
   its full space (including recovery's own crashes), and the seeded
   premature-root-swap mutation must be caught and replay from its
   spec. *)
let test_cow_correct_verifies () =
  let r = Mw.run Mv.Correct in
  (match r.Mw.cex with
  | None -> ()
  | Some c ->
      Alcotest.failf "correct CoW protocol: %s"
        (Format.asprintf "%a" Mw.pp_cex c));
  let s = r.Mw.stats in
  Alcotest.(check bool) "programs explored" true (s.Mw.programs >= 10);
  Alcotest.(check bool) "crash branches explored" true (s.Mw.crash_branches > 100);
  Alcotest.(check bool)
    "recovery itself crashed" true (s.Mw.nested_branches > 100)

let test_cow_control_caught_and_replays () =
  let r = Mw.run ~nested:false Mv.Swap_before_flush in
  match r.Mw.cex with
  | None -> Alcotest.fail "swap-before-flush produced no counterexample"
  | Some c -> (
      let spec = Mw.repro_string c in
      match Mw.replay spec with
      | Error e -> Alcotest.failf "replay %S failed to parse: %s" spec e
      | Ok None ->
          Alcotest.failf "replay %S found the branch legal after all" spec
      | Ok (Some c') ->
          Alcotest.(check string)
            "replay reproduces the same invariant violation" c.Mw.invariant
            c'.Mw.invariant)

let test_replay_roundtrip () =
  let v = List.hd Mv.broken in
  let r = Mc.run ~nested:false v in
  match r.Mc.cex with
  | None -> Alcotest.failf "no counterexample for %S" (Mv.name v)
  | Some c -> (
      let spec = Mc.repro_string c in
      match Mc.replay spec with
      | Error e -> Alcotest.failf "replay %S failed to parse: %s" spec e
      | Ok None ->
          Alcotest.failf "replay %S found the branch legal after all" spec
      | Ok (Some c') ->
          Alcotest.(check string)
            "replay reproduces the same invariant violation" c.Mc.invariant
            c'.Mc.invariant)

let test_replay_rejects_garbage () =
  (match Mc.replay "no-such-variant:1:0:0:0:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus variant accepted");
  match Mc.replay "correct:1:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated spec accepted"

(* Conformance, positive: a real scenario run (with crash + recovery)
   captured off the probe bus must validate cleanly. *)
let test_conform_real_capture () =
  let module D = Pmem.Device in
  let make () = Crashtest.Scenario.counter () in
  let events, () =
    Cf.capture (fun () ->
        let module I = (val make () : Crashtest.Injector.INSTANCE) in
        I.setup ();
        D.set_crash_countdown (I.device ()) 5;
        match I.run () with
        | () -> Alcotest.fail "crash did not fire"
        | exception D.Crashed ->
            D.reseed (I.device ()) 42;
            I.reopen ())
  in
  let v = Cf.validate events in
  if not (Cf.ok v) then
    Alcotest.failf "real capture flagged: %s" (Format.asprintf "%a" Cf.pp_verdict v);
  Alcotest.(check bool) "events captured" true (v.Cf.events > 0);
  Alcotest.(check bool) "transactions seen" true (v.Cf.txs > 0);
  Alcotest.(check bool) "a log retired" true (v.Cf.truncates > 0)

(* Conformance, concurrent: a multi-domain shared-pool run committing
   through the epoch combiner — interleaved slot streams, merged flush
   runs, one fence per epoch — must also validate cleanly.  The capture
   tags every event with its emitting domain, and the validator judges
   each domain's protocol stream on its own timeline. *)
let test_conform_group_commit_capture () =
  let make () = Crashtest.Scenario.group_commit () in
  let events, () =
    Cf.capture (fun () ->
        let module I = (val make () : Crashtest.Injector.INSTANCE) in
        I.setup ();
        I.run ();
        I.verify ~outcome:`Completed)
  in
  let v = Cf.validate events in
  if not (Cf.ok v) then
    Alcotest.failf "group-commit capture flagged: %s"
      (Format.asprintf "%a" Cf.pp_verdict v);
  let domains = List.sort_uniq compare (List.map fst events) in
  Alcotest.(check bool) "more than one domain emitted" true
    (List.length domains > 1);
  Alcotest.(check bool) "transactions seen" true (v.Cf.txs > 1);
  Alcotest.(check bool) "logs retired" true (v.Cf.truncates > 1)

(* Conformance, negative controls: synthetic event streams that break the
   protocol order must be flagged — otherwise the validator is blind. *)
let layout =
  Pr.Pool_layout
    {
      dev = 0;
      journal_base = 0x40;
      slot_size = 0x100;
      nslots = 2;
      table_base = 0x240;
      heap_base = 0x440;
      heap_len = 0x1000;
      cow_base = 0;
      cow_len = 0;
    }

let has_violation needle v =
  List.exists
    (fun (_, msg) ->
      (* substring search, no Str dependency *)
      let n = String.length needle and m = String.length msg in
      let rec at i = i + n <= m && (String.sub msg i n = needle || at (i + 1)) in
      at 0)
    v.Cf.violations

let test_conform_flags_drop_outside_commit () =
  let v = Cf.validate_events [ layout; Pr.Drop_apply { dev = 0; off = 0x440 } ] in
  Alcotest.(check bool)
    "drop outside a committed tx flagged" true
    (has_violation "C-DROP-AFTER-COMMIT" v)

let test_conform_flags_log_after_commit () =
  let v =
    Cf.validate_events
      [
        layout;
        Pr.Tx_begin { dev = 0; ns = 0.; slot = 0 };
        Pr.Fence { dev = 0; ns = 0.; lines = 0; dur_ns = 0. };
        Pr.Commit_point { dev = 0; ns = 0. };
        Pr.Log { dev = 0; off = 0x440; len = 64; entry = 0; ns = 0. };
      ]
  in
  Alcotest.(check bool)
    "log coverage after commit point flagged" true
    (has_violation "C-LOG-BEFORE-COMMIT" v)

let test_conform_flags_commit_without_fence () =
  let v =
    Cf.validate_events
      [
        layout;
        Pr.Tx_begin { dev = 0; ns = 0.; slot = 0 };
        Pr.Commit_point { dev = 0; ns = 0. };
      ]
  in
  Alcotest.(check bool)
    "commit point without a fence flagged" true
    (has_violation "C-FENCE-AT-COMMIT" v)

let test_conform_flags_epoch_skip () =
  let v =
    Cf.validate_events
      [
        layout;
        Pr.Exempt_push { dev = 0 };
        Pr.Journal_truncate { dev = 0; slot_base = 0x40; epoch = 1 };
        Pr.Journal_truncate { dev = 0; slot_base = 0x40; epoch = 3 };
        Pr.Exempt_pop { dev = 0 };
      ]
  in
  Alcotest.(check bool)
    "epoch skip flagged" true
    (has_violation "C-EPOCH-MONOTONE" v)

let test_conform_flags_geometry () =
  let v =
    Cf.validate_events
      [
        layout;
        Pr.Tx_begin { dev = 0; ns = 0.; slot = 0 };
        Pr.Alloc { dev = 0; off = 0x2000_0000; len = 64; entry = 0; ns = 0. };
      ]
  in
  Alcotest.(check bool)
    "allocation outside the heap flagged" true
    (has_violation "C-GEOMETRY" v)

let () =
  Alcotest.run "corundum_pmodel"
    [
      ( "checker",
        [
          Alcotest.test_case "correct protocol verifies (full space)" `Slow
            test_correct_protocol_verifies;
          Alcotest.test_case "seeded bugs are all caught" `Quick
            test_controls_all_caught;
          Alcotest.test_case "counterexample replays from its spec" `Quick
            test_replay_roundtrip;
          Alcotest.test_case "replay rejects malformed specs" `Quick
            test_replay_rejects_garbage;
          Alcotest.test_case "CoW protocol verifies (full space)" `Slow
            test_cow_correct_verifies;
          Alcotest.test_case "CoW seeded bug caught and replays" `Quick
            test_cow_control_caught_and_replays;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "real crash+recovery capture validates" `Quick
            test_conform_real_capture;
          Alcotest.test_case "concurrent group-commit capture validates" `Quick
            test_conform_group_commit_capture;
          Alcotest.test_case "drop outside commit is flagged" `Quick
            test_conform_flags_drop_outside_commit;
          Alcotest.test_case "log after commit is flagged" `Quick
            test_conform_flags_log_after_commit;
          Alcotest.test_case "commit without fence is flagged" `Quick
            test_conform_flags_commit_without_fence;
          Alcotest.test_case "epoch skip is flagged" `Quick
            test_conform_flags_epoch_skip;
          Alcotest.test_case "out-of-heap allocation is flagged" `Quick
            test_conform_flags_geometry;
        ] );
    ]
