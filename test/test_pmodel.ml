(* The crash-state model checker, checked: both model families' real
   protocols must verify over their full bounded space, every
   deliberately broken variant must yield a counterexample,
   counterexamples must replay from their repro spec, and the trace
   conformance validator must accept a real capture and reject a
   synthetic protocol violation. *)

module Mc = Pmodel.Mcheck
module Mf = Pmodel.Mfamily
module Mv = Pmodel.Mvariant
module Cf = Pmodel.Mconform
module Pr = Ptelemetry.Probe

let test_correct_protocol_verifies () =
  let r = Mf.Journal.run Mv.Correct in
  (match r.Mc.cex with
  | None -> ()
  | Some c ->
      Alcotest.failf "correct protocol: %s"
        (Format.asprintf "%a" Mf.Journal.pp_cex c));
  let s = r.Mc.stats in
  Alcotest.(check bool) "programs explored" true (s.Mc.programs > 50);
  Alcotest.(check bool) "crash branches explored" true (s.Mc.crash_branches > 1000);
  Alcotest.(check bool)
    "recovery itself crashed" true (s.Mc.nested_branches > 1000)

(* Every seeded bug runs in the model family its mutation targets and
   must yield a counterexample there. *)
let test_controls_all_caught () =
  List.iter
    (fun v ->
      if Mf.running v = [] then Alcotest.failf "seeded bug %S runs in no family" (Mv.name v);
      List.iter
        (fun (module F : Mc.S) ->
          if (F.run ~nested:false v).Mc.cex = None then
            Alcotest.failf "seeded bug %S produced no counterexample (%s family)"
              (Mv.name v) F.name)
        (Mf.running v))
    Mv.broken

(* The CoW family: the shipped intent/swap protocol must verify over
   its full space, including recovery's own crashes. *)
let test_cow_correct_verifies () =
  let r = Mf.Cow.run Mv.Correct in
  (match r.Mc.cex with
  | None -> ()
  | Some c ->
      Alcotest.failf "correct CoW protocol: %s"
        (Format.asprintf "%a" Mf.Cow.pp_cex c));
  let s = r.Mc.stats in
  Alcotest.(check bool) "programs explored" true (s.Mc.programs >= 10);
  Alcotest.(check bool) "crash branches explored" true (s.Mc.crash_branches > 100);
  Alcotest.(check bool)
    "recovery itself crashed" true (s.Mc.nested_branches > 100)

(* The CoW family's seeded premature-root-swap mutation must be caught
   and replay from its spec to the same invariant. *)
let test_cow_control_caught_and_replays () =
  let r = Mf.Cow.run ~nested:false Mv.Swap_before_flush in
  match r.Mc.cex with
  | None -> Alcotest.fail "swap-before-flush produced no counterexample"
  | Some c -> (
      let spec = Mf.Cow.repro_string c in
      match Mf.Cow.replay spec with
      | Error e -> Alcotest.failf "replay %S failed to parse: %s" spec e
      | Ok None ->
          Alcotest.failf "replay %S found the branch legal after all" spec
      | Ok (Some c') ->
          Alcotest.(check string)
            "replay reproduces the same invariant violation" c.Mc.invariant
            c'.Mc.invariant)

(* Every control's counterexample replays from its printed spec to the
   same invariant — crash-free end-state counterexamples (point -1)
   included. *)
let test_replay_roundtrip () =
  List.iter
    (fun v ->
      List.iter
        (fun (module F : Mc.S) ->
          match (F.run ~nested:false v).Mc.cex with
          | None -> Alcotest.failf "no counterexample for %S" (Mv.name v)
          | Some c -> (
              let spec = F.repro_string c in
              match F.replay spec with
              | Error e -> Alcotest.failf "replay %S failed: %s" spec e
              | Ok None ->
                  Alcotest.failf "replay %S found the branch legal after all" spec
              | Ok (Some c') ->
                  Alcotest.(check string)
                    (spec ^ " reproduces its invariant violation")
                    c.Mc.invariant c'.Mc.invariant))
        (Mf.running v))
    Mv.broken

(* The crash-free end state of the correct protocol replays as legal in
   both families, and each spec routes to its own family. *)
let test_replay_crash_free () =
  List.iter
    (fun spec ->
      match Mf.of_spec spec with
      | None -> Alcotest.failf "no family owns %S" spec
      | Some (module F : Mc.S) -> (
          match F.replay spec with
          | Ok None -> ()
          | Ok (Some c) ->
              Alcotest.failf "%S: %s" spec (Format.asprintf "%a" F.pp_cex c)
          | Error e -> Alcotest.failf "replay %S failed: %s" spec e))
    [ "correct:1:0:0:-1:0"; "correct:cow:0:-1:0" ]

let test_replay_rejects_garbage () =
  let rejects (module F : Mc.S) spec =
    match F.replay spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s family accepted %S" F.name spec
  in
  List.iter (rejects (module Mf.Journal))
    [ "no-such-variant:1:0:0:0:0"; "correct:1:0" ];
  List.iter (rejects (module Mf.Cow)) [ "correct:cow:0"; "correct:cow:99:0:0" ]

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
          Alcotest.test_case "crash-free end states replay legal" `Quick
            test_replay_crash_free;
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
