(* The persistency sanitizer end to end: negative controls (every
   shipped engine and the canned crash scenarios run psan-clean),
   positive controls (each deliberately-buggy engine variant is flagged
   with the right violation class AND produces corruption the failure
   injector observes in the same run), and the Punsafe escape hatch
   (flagged by default, silenced by an exemption). *)

open Corundum
module D = Pmem.Device
module FP = Engines.Engine_common.Fault_profile

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small =
  { Pool_impl.size = 4 * 1024 * 1024; nslots = 2; slot_size = 64 * 1024 }

let has_class cls = List.exists (fun f -> f.Psan.cls = cls) (Psan.violations ())

let classes_found () =
  List.sort_uniq compare
    (List.map (fun f -> Psan.class_name f.Psan.cls) (Psan.violations ()))

(* Every psan test owns the global sanitizer and fault-profile state;
   restore both whatever happens. *)
let with_psan f =
  Fun.protect
    ~finally:(fun () ->
      Psan.disable ();
      FP.set FP.Clean)
    f

(* --- Punsafe under the sanitizer -------------------------------------- *)

(* An atomic_set bypasses the undo journal by design: to psan it is an
   in-transaction store to previously-persisted data with no covering
   log entry — V1 — unless the cell is declared with [Psan.exempt]. *)
let test_punsafe_flagged () =
  with_psan (fun () ->
      (* enable before the pool exists: psan learns the heap bounds from
         the Pool_layout event *)
      Psan.enable ();
      let module P = Pool.Make () in
      P.create ~config:small ();
      let root =
        P.root
          ~ty:(Pcell.ptype Ptype.int)
          ~init:(fun _ -> Pcell.make ~ty:Ptype.int 0)
          ()
      in
      P.transaction (fun j -> Punsafe.atomic_set (Pbox.get root) 1 j);
      Psan.disable ();
      check_bool "atomic_set without exemption raises V1" true (has_class Psan.V1);
      check_bool "no other violation class" true
        (List.for_all (fun f -> f.Psan.cls = Psan.V1) (Psan.violations ())))

let test_punsafe_exempt_silences () =
  with_psan (fun () ->
      Psan.enable ();
      let module P = Pool.Make () in
      P.create ~config:small ();
      let root =
        P.root
          ~ty:(Pcell.ptype Ptype.int)
          ~init:(fun _ -> Pcell.make ~ty:Ptype.int 0)
          ()
      in
      let dev = Pool_impl.device (P.impl ()) in
      Psan.exempt ~dev:(D.id dev) ~off:(Pool_impl.root_off (P.impl ())) ~len:8;
      for i = 1 to 4 do
        P.transaction (fun j -> Punsafe.atomic_set (Pbox.get root) i j)
      done;
      check_bool "exempted atomic_set is clean" true (Psan.clean ());
      (* the exemption is surgical: removing it restores the report *)
      Psan.unexempt ~dev:(D.id dev) ~off:(Pool_impl.root_off (P.impl ())) ~len:8;
      P.transaction (fun j -> Punsafe.atomic_set (Pbox.get root) 9 j);
      Psan.disable ();
      check_bool "unexempt restores the V1 report" true (has_class Psan.V1))

(* A raw device store into the heap with no transaction open at all. *)
let test_store_outside_tx () =
  with_psan (fun () ->
      Psan.enable ();
      let module P = Pool.Make () in
      P.create ~config:small ();
      ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
      D.write_u64 (Pool_impl.device (P.impl ())) (Pool_impl.root_off (P.impl ()))
        42L;
      Psan.disable ();
      check_bool "raw out-of-tx heap store raises V4" true (has_class Psan.V4))

(* --- negative controls: shipped code is psan-clean --------------------- *)

let test_engines_clean () =
  with_psan (fun () ->
      Psan.enable ();
      List.iter
        (fun (_, (module E : Engines.Engine_sig.S)) ->
          let module T = Workloads.Bst.Make (E) in
          let eng = E.create ~size:(2 * 1024 * 1024) () in
          for i = 1 to 24 do
            T.insert eng (Int64.of_int i)
          done;
          for i = 1 to 24 do
            ignore (T.mem eng (Int64.of_int i) : bool)
          done)
        Engines.Registry.all;
      Psan.disable ();
      if not (Psan.clean ()) then
        Alcotest.failf "engines not psan-clean:\n%s" (Psan.report_text ()))

(* The canned crash scenarios — crashes, recoveries, torn lines and all —
   must sail through the sanitizer: recovery writes are exempt-bracketed
   and every committed transaction obeys the protocol. *)
let test_crash_scenarios_clean () =
  with_psan (fun () ->
      Psan.enable ();
      List.iter
        (fun (name, make) ->
          let r =
            Crashtest.Injector.sweep ~limit:12 ~survival_samples:2
              ~torn_prob:0.3 make
          in
          if not (Crashtest.Injector.is_clean r) then
            Alcotest.failf "scenario %s not crash-clean" name)
        Crashtest.Scenario.all;
      Psan.disable ();
      if not (Psan.clean ()) then
        Alcotest.failf "crash scenarios not psan-clean:\n%s" (Psan.report_text ()))

(* --- positive controls: buggy engine variants -------------------------- *)

(* A crash scenario over the corundum engine's raw write path, shaped so
   every seeded bug class is observable: each transaction writes an
   invariant pair (A=B) on two lines of its own (so a lost flush is not
   silently repaired by a later transaction's undo payload) and performs
   a throwaway allocation (so commit runs its flush/fence sequence even
   when logging is elided). *)
let ntxs = 3

let fault_instance () : (module Crashtest.Injector.INSTANCE) =
  (module struct
    module E = Engines.Corundum_engine

    let eng = ref None
    let e () = Option.get !eng
    let base = ref 0
    let committed = ref 0
    let device () = Pool_impl.device (E.pool (e ()))

    let setup () =
      let en = E.create ~size:(1024 * 1024) () in
      eng := Some en;
      E.transaction en (fun tx ->
          let b = E.alloc tx (ntxs * 128) in
          E.set_root tx b;
          for i = 0 to ntxs - 1 do
            E.write tx (b + (128 * i)) 0L;
            E.write tx (b + (128 * i) + 64) 0L
          done;
          base := b)

    let run () =
      for i = 1 to ntxs do
        E.transaction (e ()) (fun tx ->
            ignore (E.alloc tx 64 : int);
            E.write tx (!base + (128 * (i - 1))) (Int64.of_int i);
            E.write tx (!base + (128 * (i - 1)) + 64) (Int64.of_int i));
        incr committed
      done

    let reopen () =
      let dev = device () in
      D.power_cycle dev;
      eng := Some (E.of_pool (Pool_impl.attach dev))

    let verify ~outcome =
      let dev = device () in
      let cell i j = D.read_u64 dev (!base + (128 * i) + (64 * j)) in
      let c =
        match outcome with `Completed -> ntxs | `Crashed _ -> !committed
      in
      for i = 1 to ntxs do
        let a = cell (i - 1) 0 and b = cell (i - 1) 1 in
        if a <> b then
          failwith (Printf.sprintf "tx %d pair torn: %Ld <> %Ld" i a b);
        let v = Int64.to_int a in
        if i <= c && v <> i then
          failwith
            (Printf.sprintf "tx %d committed but reads %d (lost update)" i v)
        else if i = c + 1 && v <> 0 && v <> i then
          failwith (Printf.sprintf "tx %d half-applied: %d" i v)
        else if i > c + 1 && v <> 0 then
          failwith (Printf.sprintf "tx %d ran early: %d" i v)
      done
  end)

let sweep_faults () =
  Crashtest.Injector.sweep ~survival_samples:4 fault_instance

(* Clean profile: the scenario itself is correct — the sweep passes and
   the sanitizer agrees. *)
let test_fault_profile_clean () =
  with_psan (fun () ->
      FP.set FP.Clean;
      Psan.enable ();
      let r = sweep_faults () in
      Psan.disable ();
      if not (Crashtest.Injector.is_clean r) then
        Alcotest.failf "clean profile not crash-clean: %s"
          (Format.asprintf "%a" Crashtest.Injector.pp_result r);
      if not (Psan.clean ()) then
        Alcotest.failf "clean profile not psan-clean:\n%s" (Psan.report_text ()))

(* Each seeded bug class: psan must name the right class, and the very
   same sweep must observe real corruption — the sanitizer and the
   failure injector agree on what a bug is. *)
let positive_control profile expected_cls () =
  with_psan (fun () ->
      FP.set profile;
      Psan.enable ();
      let r = sweep_faults () in
      Psan.disable ();
      FP.set FP.Clean;
      check_bool
        (Printf.sprintf "profile %s: sweep observes corruption"
           (FP.name profile))
        false
        (Crashtest.Injector.is_clean r);
      if not (has_class expected_cls) then
        Alcotest.failf "profile %s: expected %s, psan found [%s]"
          (FP.name profile)
          (Psan.class_name expected_cls)
          (String.concat "; " (classes_found ())))

let test_missing_log = positive_control FP.Missing_log Psan.V1
let test_missing_flush = positive_control FP.Missing_flush Psan.V2
let test_missing_fence = positive_control FP.Missing_fence Psan.V3

(* Use-after-retire: the mod engine's commit retires the old root block
   (Cow_retire probe), and until the allocator reissues it no store may
   land there — even through a pointer read before the swap.  The retire
   alone is clean; the late store is V5. *)
let test_use_after_retire () =
  with_psan (fun () ->
      Psan.enable ();
      let module E = Engines.Mod_engine in
      let eng = E.create ~size:(2 * 1024 * 1024) () in
      E.transaction eng (fun tx ->
          let o = E.alloc tx 64 in
          E.write tx o 1L;
          E.set_root tx o);
      let old = ref 0 in
      E.transaction eng (fun tx ->
          old := E.root tx;
          let o = E.alloc tx 64 in
          E.write tx o 2L;
          E.set_root tx o;
          E.free tx !old);
      check_bool "retiring a block is not itself a violation" true
        (not (has_class Psan.V5));
      D.write_u64 (Pool_impl.device (E.pool eng)) !old 0xBADL;
      Psan.disable ();
      check_bool "store into the retired block raises V5" true
        (has_class Psan.V5))

(* --- sharing the probe bus ---------------------------------------------- *)

(* A waste capture subscribes alongside psan instead of evicting it:
   after [Waste.measure] has captured and released its own windows, the
   sanitizer must still be watching and catch the missing-flush bug. *)
let test_capture_keeps_psan () =
  with_psan (fun () ->
      Psan.enable ();
      ignore (Engines.Waste.measure (module Engines.Corundum_engine));
      check_bool "waste windows are psan-clean" true (Psan.clean ());
      FP.set FP.Missing_flush;
      ignore (sweep_faults ());
      Psan.disable ();
      check_bool "psan still reports V2 after the capture" true
        (has_class Psan.V2))

(* A shared pool and the run of two domains committing 300 logged
   updates each on it. *)
let two_domain_pool () =
  let pool = Pool_impl.create ~config:small () in
  let dev = Pool_impl.device pool in
  let blocks =
    Pool_impl.transaction pool (fun tx ->
        [ Pool_impl.tx_alloc tx 64; Pool_impl.tx_alloc tx 64 ])
  in
  let worker off () =
    for i = 1 to 300 do
      Pool_impl.transaction pool (fun tx ->
          Pool_impl.tx_log tx ~off ~len:8;
          D.write_u64 dev off (Int64.of_int i))
    done
  in
  ( dev,
    fun () ->
      List.iter Domain.join
        (List.map (fun off -> Domain.spawn (worker off)) blocks) )

(* Two domains committing on one shared pool while a pprof capture
   records: the capture must hold every persist the device counted — no
   event lost to a racing append. *)
let test_two_domain_capture_counts () =
  let dev, run = two_domain_pool () in
  let s0 = D.stats dev in
  Pprof.Capture.start ();
  run ();
  let events = Pprof.Capture.stop () in
  let s1 = D.stats dev in
  let count p = List.length (List.filter p events) in
  check_int "captured flushes = device flush calls"
    (s1.D.flush_calls - s0.D.flush_calls)
    (count (function Ptelemetry.Probe.Flush _ -> true | _ -> false));
  check_int "captured fences = device fences" (s1.D.fences - s0.D.fences)
    (count (function Ptelemetry.Probe.Fence _ -> true | _ -> false))

(* Psan and conformance are the live and the replay front-end of one
   monitor: a fresh monitor folded over the Recorder capture of a run
   finds exactly what psan reported live, and the capture's
   conformance verdict is the one the separate checkers gave — on the
   missing-flush positive control and on the 2-domain shared run. *)
let test_live_replay_parity () =
  with_psan (fun () ->
      let parity name run =
        Psan.enable ();
        let events, () = Pmodel.Mconform.capture run in
        Psan.disable ();
        let replayed = Psan.Monitor.(findings (replay events)) in
        check_bool (name ^ ": replay finds what psan found live") true
          (List.partition (fun f -> not (Psan.is_warning f.Psan.cls)) replayed
          = (Psan.violations (), Psan.warnings ()));
        Format.asprintf "%a" Pmodel.Mconform.pp_verdict
          (Pmodel.Mconform.validate events)
      in
      FP.set FP.Missing_flush;
      let verdict = parity "missing-flush" (fun () -> ignore (sweep_faults ())) in
      FP.set FP.Clean;
      check_bool "missing-flush: psan found V2" true (has_class Psan.V2);
      Alcotest.(check string)
        "missing-flush: conformance verdict"
        "23272 events, 364 txs, 268 commit points, 343 truncates, 0 drop \
         applies: 5 violations\n\
        \  at event 6064: C-EPOCH-MONOTONE: slot 0x1000 epoch 3 after 1\n\
        \  at event 6229: C-EPOCH-MONOTONE: slot 0x1000 epoch 3 after 1\n\
        \  at event 22519: C-EPOCH-MONOTONE: slot 0x1000 epoch 5 after 3\n\
        \  at event 23001: C-EPOCH-MONOTONE: slot 0x1000 epoch 5 after 3\n\
        \  at event 23248: C-EPOCH-MONOTONE: slot 0x1000 epoch 5 after 3\n"
        verdict;
      let verdict = parity "2-domain" (fun () -> snd (two_domain_pool ()) ()) in
      Alcotest.(check string)
        "2-domain: conformance verdict"
        "13857 events, 601 txs, 601 commit points, 601 truncates, 0 drop \
         applies: conformant\n"
        verdict)

(* --- lifecycle --------------------------------------------------------- *)

let test_reset_and_counts () =
  with_psan (fun () ->
      Psan.enable ();
      let module P = Pool.Make () in
      P.create ~config:small ();
      ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
      D.write_u64 (Pool_impl.device (P.impl ())) (Pool_impl.root_off (P.impl ()))
        7L;
      check_int "one violation recorded" 1 (Psan.violation_count ());
      check_bool "not clean" false (Psan.clean ());
      Psan.reset ();
      check_int "reset clears findings" 0 (Psan.violation_count ());
      check_bool "clean after reset" true (Psan.clean ());
      Psan.disable ();
      check_bool "disabled" false (Psan.enabled ()))

let () =
  Alcotest.run "psan"
    [
      ( "punsafe",
        [
          Alcotest.test_case "atomic_set flagged as V1" `Quick
            test_punsafe_flagged;
          Alcotest.test_case "exempt silences, unexempt restores" `Quick
            test_punsafe_exempt_silences;
          Alcotest.test_case "out-of-tx store flagged as V4" `Quick
            test_store_outside_tx;
        ] );
      ( "negative-controls",
        [
          Alcotest.test_case "all engines psan-clean" `Quick test_engines_clean;
          Alcotest.test_case "crash scenarios psan-clean" `Slow
            test_crash_scenarios_clean;
        ] );
      ( "positive-controls",
        [
          Alcotest.test_case "clean profile: sweep and psan agree" `Quick
            test_fault_profile_clean;
          Alcotest.test_case "missing-log: V1 + corruption" `Quick
            test_missing_log;
          Alcotest.test_case "missing-flush: V2 + corruption" `Quick
            test_missing_flush;
          Alcotest.test_case "missing-fence: V3 + corruption" `Quick
            test_missing_fence;
          Alcotest.test_case "use-after-retire: V5" `Quick
            test_use_after_retire;
        ] );
      ( "shared-bus",
        [
          Alcotest.test_case "waste capture keeps psan subscribed" `Quick
            test_capture_keeps_psan;
          Alcotest.test_case "2-domain capture counts every persist" `Quick
            test_two_domain_capture_counts;
          Alcotest.test_case "replay equals live psan" `Quick
            test_live_replay_parity;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "reset and counts" `Quick test_reset_and_counts;
        ] );
    ]
