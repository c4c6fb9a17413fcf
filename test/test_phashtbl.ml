(* Phashtbl: model-based validation, transactional rehash, abort/crash
   atomicity (including a crash sweep through a growth rehash), and leak
   freedom. *)

open Corundum
module M = Map.Make (Int)

let small =
  { Pool_impl.size = 4 * 1024 * 1024; nslots = 2; slot_size = 128 * 1024 }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tbl_root (type b) (module P : Pool.S with type brand = b) () =
  P.root
    ~ty:(Phashtbl.ptype Ptype.int)
    ~init:(fun j -> Phashtbl.make ~vty:Ptype.int ~nbuckets:4 j)
    ()

let assert_ok h =
  match Phashtbl.check h with Ok () -> () | Error e -> Alcotest.fail e

let test_basics () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let h = Pbox.get (tbl_root (module P) ()) in
  check_bool "empty" true (Phashtbl.is_empty h);
  P.transaction (fun j ->
      Phashtbl.add h ~key:1 10 j;
      Phashtbl.add h ~key:2 20 j);
  check_int "length" 2 (Phashtbl.length h);
  check_bool "find" true (Phashtbl.find h 1 = Some 10);
  check_bool "miss" true (Phashtbl.find h 3 = None);
  P.transaction (fun j -> Phashtbl.add h ~key:1 11 j);
  check_bool "replace" true (Phashtbl.find h 1 = Some 11);
  check_int "replace keeps length" 2 (Phashtbl.length h);
  check_bool "remove present" true (P.transaction (fun j -> Phashtbl.remove h 2 j));
  check_bool "remove absent" false (P.transaction (fun j -> Phashtbl.remove h 2 j));
  check_int "shrunk" 1 (Phashtbl.length h);
  assert_ok h

let test_growth_rehash () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let h = Pbox.get (tbl_root (module P) ()) in
  let nb0 = Phashtbl.buckets h in
  P.transaction (fun j ->
      for k = 1 to 200 do
        Phashtbl.add h ~key:k (k * 2) j
      done);
  check_bool "directory grew" true (Phashtbl.buckets h > nb0);
  check_int "all present" 200 (Phashtbl.length h);
  assert_ok h;
  for k = 1 to 200 do
    if Phashtbl.find h k <> Some (k * 2) then
      Alcotest.failf "key %d lost in rehash" k
  done;
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:(Phashtbl.ptype Ptype.int)

let test_abort_rolls_back_rehash () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let h = Pbox.get (tbl_root (module P) ()) in
  P.transaction (fun j ->
      for k = 1 to 7 do
        Phashtbl.add h ~key:k k j
      done);
  let before = Phashtbl.to_list h in
  let nb_before = Phashtbl.buckets h in
  (try
     P.transaction (fun j ->
         for k = 8 to 120 do
           Phashtbl.add h ~key:k k j
         done;
         failwith "abort mid-growth")
   with Failure _ -> ());
  check_int "directory rolled back" nb_before (Phashtbl.buckets h);
  Alcotest.(check (list (pair int int))) "contents rolled back" before
    (Phashtbl.to_list h);
  assert_ok h;
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:(Phashtbl.ptype Ptype.int)

let test_crash_sweep_through_rehash () =
  (* Crash a growth-triggering transaction at every persist point.  The
     pool brand cannot escape its module, so each attempt runs start to
     finish inside one closure; [attempt k] returns whether the schedule
     fired and the persist points consumed. *)
  let attempt k =
    let module P = Pool.Make () in
    P.create ~config:small ();
    let fetch () = tbl_root (module P) () in
    P.transaction (fun j ->
        let h = Pbox.get (fetch ()) in
        for key = 1 to 7 do
          Phashtbl.add h ~key key j
        done);
    let dev = Pool_impl.device (P.impl ()) in
    let p0 = Pmem.Device.persist_points dev in
    if k > 0 then Pmem.Device.set_crash_countdown dev k;
    let crashed =
      match
        P.transaction (fun j ->
            let h = Pbox.get (fetch ()) in
            for key = 8 to 40 do
              Phashtbl.add h ~key key j
            done)
      with
      | () ->
          Pmem.Device.set_crash_countdown dev 0;
          false
      | exception Pmem.Device.Crashed -> true
    in
    let points = Pmem.Device.persist_points dev - p0 in
    P.crash_and_reopen ();
    let h = Pbox.get (fetch ()) in
    (match Phashtbl.check h with
    | Ok () -> ()
    | Error e -> Alcotest.failf "crash@%d: table broken: %s" k e);
    let len = Phashtbl.length h in
    if len <> 7 && len <> 40 then Alcotest.failf "crash@%d: torn size %d" k len;
    for key = 1 to len do
      if Phashtbl.find h key <> Some key then
        Alcotest.failf "crash@%d: key %d missing" k key
    done;
    (match Palloc.Heap_walk.check (Pool_impl.buddy (P.impl ())) with
    | Ok () -> ()
    | Error m -> Alcotest.failf "crash@%d: heap: %s" k m);
    Crashtest.Leak_check.assert_clean (P.impl ())
      ~root_ty:(Phashtbl.ptype Ptype.int);
    (crashed, points)
  in
  let _, points = attempt 0 (* dry run *) in
  let injected = ref 0 in
  for k = 1 to points do
    let crashed, _ = attempt k in
    if crashed then incr injected
  done;
  Alcotest.(check int) "every point crashed" points !injected

let test_owned_values () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let vty = Pstring.ptype () in
  let root =
    P.root ~ty:(Phashtbl.ptype vty)
      ~init:(fun j -> Phashtbl.make ~vty ~nbuckets:4 j)
      ()
  in
  let h = Pbox.get root in
  let live () = (P.stats ()).Pool_impl.live_blocks in
  let baseline = live () in
  P.transaction (fun j ->
      Phashtbl.add h ~key:1 (Pstring.make "one" j) j;
      Phashtbl.add h ~key:2 (Pstring.make "two" j) j);
  check_int "entries + strings" (baseline + 4) (live ());
  P.transaction (fun j -> Phashtbl.add h ~key:1 (Pstring.make "uno" j) j);
  check_int "replaced string reclaimed" (baseline + 4) (live ());
  P.transaction (fun j -> Phashtbl.clear h j);
  check_int "clear cascades" baseline (live ());
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:(Phashtbl.ptype vty)

(* Device stores, flushes and fences of one transaction clearing or
   dropping a 64-bucket table that holds one key. *)
let one_key_cost op =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let h =
    Pbox.get
      (P.root
         ~ty:(Phashtbl.ptype Ptype.int)
         ~init:(fun j -> Phashtbl.make ~vty:Ptype.int ~nbuckets:64 j)
         ())
  in
  P.transaction (fun j -> Phashtbl.add h ~key:5 50 j);
  let d = Pool_impl.device (P.impl ()) in
  let s0 = Pmem.Device.stats d in
  P.transaction (fun j ->
      match op with `Clear -> Phashtbl.clear h j | `Drop -> Phashtbl.drop h j);
  let s1 = Pmem.Device.stats d in
  Pmem.Device.
    (s1.stores - s0.stores, s1.flushes - s0.flushes, s1.fences - s0.fences)

let cost = Alcotest.(triple int int int)

(* [clear] logs and zeroes only the one non-empty chain head; logging
   all 64 heads costs 399 stores, 110 flushes and 68 fences.  [drop]
   zeroes no head. *)
let test_clear_drop_cost () =
  Alcotest.check cost "clear" (21, 9, 5) (one_key_cost `Clear);
  Alcotest.check cost "drop" (15, 4, 3) (one_key_cost `Drop)

(* Heads that [clear] skips are already zero, so an aborted clear still
   restores every chain. *)
let test_clear_abort_keeps_keys () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let h = Pbox.get (tbl_root (module P) ()) in
  P.transaction (fun j ->
      for k = 1 to 40 do
        Phashtbl.add h ~key:(k * 7) k j
      done);
  let before = Phashtbl.to_list h in
  (try
     P.transaction (fun j ->
         Phashtbl.clear h j;
         failwith "abort after clear")
   with Failure _ -> ());
  Alcotest.(check (list (pair int int))) "every key readable" before
    (Phashtbl.to_list h);
  List.iter
    (fun (k, v) -> check_bool "find" true (Phashtbl.find h k = Some v))
    before;
  assert_ok h;
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:(Phashtbl.ptype Ptype.int)

let qcheck_model =
  QCheck.Test.make ~name:"phashtbl matches Map under random ops" ~count:40
    QCheck.(list_of_size Gen.(int_bound 300) (pair int bool))
    (fun ops ->
      let module P = Pool.Make () in
      P.create ~config:small ();
      let h = Pbox.get (tbl_root (module P) ()) in
      let model = ref M.empty in
      List.iteri
        (fun i (k, ins) ->
          if ins then begin
            P.transaction (fun j -> Phashtbl.add h ~key:k i j);
            model := M.add k i !model
          end
          else begin
            ignore (P.transaction (fun j -> Phashtbl.remove h k j));
            model := M.remove k !model
          end)
        ops;
      (match Phashtbl.check h with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_report e);
      Phashtbl.to_list h = M.bindings !model)

let () =
  Alcotest.run "corundum_phashtbl"
    [
      ( "phashtbl",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "growth rehash" `Quick test_growth_rehash;
          Alcotest.test_case "abort rolls back rehash" `Quick
            test_abort_rolls_back_rehash;
          Alcotest.test_case "crash sweep through rehash" `Slow
            test_crash_sweep_through_rehash;
          Alcotest.test_case "owned values" `Quick test_owned_values;
          Alcotest.test_case "clear and drop cost" `Quick test_clear_drop_cost;
          Alcotest.test_case "aborted clear keeps keys" `Quick
            test_clear_abort_keeps_keys;
          QCheck_alcotest.to_alcotest qcheck_model;
        ] );
    ]
