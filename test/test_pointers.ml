(* Tests for reference-counted persistent pointers: Prc, Parc, persistent
   weak references and volatile weak references. *)

open Corundum

let small =
  { Pool_impl.size = 2 * 1024 * 1024; nslots = 4; slot_size = 64 * 1024 }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_prc_basics () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let live () = (P.stats ()).Pool_impl.live_blocks in
  let baseline = live () in
  P.transaction (fun j ->
      let rc = Prc.make ~ty:Ptype.int 41 j in
      check_int "value" 41 (Prc.get rc);
      check_int "strong 1" 1 (Prc.strong_count rc);
      let rc2 = Prc.pclone rc j in
      check_int "strong 2 after clone" 2 (Prc.strong_count rc);
      check_bool "clones are the same object" true (Prc.equal rc rc2);
      Prc.drop rc2 j;
      check_int "strong 1 after drop" 1 (Prc.strong_count rc);
      Prc.drop rc j);
  check_int "block reclaimed at zero" baseline (live ())

let test_prc_dangling_detected () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  P.transaction (fun j ->
      let rc = Prc.make ~ty:Ptype.int 1 j in
      Prc.drop rc j;
      Alcotest.match_raises "get after drop"
        (function Rc_core.Dangling _ -> true | _ -> false)
        (fun () -> ignore (Prc.get rc));
      Alcotest.match_raises "double drop"
        (function Rc_core.Dangling _ -> true | _ -> false)
        (fun () -> Prc.drop rc j);
      Alcotest.match_raises "clone after drop"
        (function Rc_core.Dangling _ -> true | _ -> false)
        (fun () -> ignore (Prc.pclone rc j)))

let test_prc_clone_cheap_after_first () =
  (* Dedup makes repeated count updates log-free: the paper's fast
     Prc::pclone. *)
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  P.transaction (fun j ->
      let rc = Prc.make ~ty:Ptype.int 1 j in
      let jr = Pool_impl.tx_journal (Journal.tx j) in
      let n0 = Pjournal.Journal_impl.entry_count jr in
      let c1 = Prc.pclone rc j in
      let n1 = Pjournal.Journal_impl.entry_count jr in
      let c2 = Prc.pclone rc j in
      let c3 = Prc.pclone rc j in
      let n3 = Pjournal.Journal_impl.entry_count jr in
      check_int "first clone logs once" (n0 + 1) n1;
      check_int "later clones log nothing" n1 n3;
      List.iter (fun c -> Prc.drop c j) [ c1; c2; c3 ];
      Prc.drop rc j)

let test_parc_logs_every_update () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  P.transaction (fun j ->
      let rc = Parc.make ~ty:Ptype.int 1 j in
      let jr = Pool_impl.tx_journal (Journal.tx j) in
      let n0 = Pjournal.Journal_impl.entry_count jr in
      let c1 = Parc.pclone rc j in
      let c2 = Parc.pclone rc j in
      let n2 = Pjournal.Journal_impl.entry_count jr in
      check_int "every Parc update logs" (n0 + 2) n2;
      List.iter (fun c -> Parc.drop c j) [ c1; c2 ];
      Parc.drop rc j)

let test_try_unwrap () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let live () = (P.stats ()).Pool_impl.live_blocks in
  let baseline = live () in
  P.transaction (fun j ->
      (* sole owner: unwrap succeeds and releases the block *)
      let rc = Prc.make ~ty:Ptype.int 5 j in
      (match Prc.try_unwrap rc j with
      | Some v -> check_int "value taken" 5 v
      | None -> Alcotest.fail "sole owner should unwrap");
      Alcotest.match_raises "handle dead after unwrap"
        (function Rc_core.Dangling _ -> true | _ -> false)
        (fun () -> ignore (Prc.get rc)));
  check_int "block reclaimed" baseline (live ());
  P.transaction (fun j ->
      (* shared: unwrap refuses *)
      let rc = Prc.make ~ty:Ptype.int 6 j in
      let rc2 = Prc.pclone rc j in
      check_bool "shared owner refuses" true (Prc.try_unwrap rc j = None);
      Prc.drop rc2 j;
      (match Prc.try_unwrap rc j with
      | Some v -> check_int "unwraps once alone again" 6 v
      | None -> Alcotest.fail "should unwrap after other owner left"));
  check_int "all reclaimed" baseline (live ());
  (* ownership of inner pointers moves with the value *)
  P.transaction (fun j ->
      let s = Pstring.make "owned" j in
      let rc = Prc.make ~ty:(Pstring.ptype ()) s j in
      match Prc.try_unwrap rc j with
      | Some s' ->
          check_bool "inner pointer moved" true (Pstring.get s' = "owned");
          Pstring.drop s' j
      | None -> Alcotest.fail "unwrap failed");
  check_int "inner also reclaimed" baseline (live ())

let test_pweak_lifecycle () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let live () = (P.stats ()).Pool_impl.live_blocks in
  let baseline = live () in
  P.transaction (fun j ->
      let rc = Prc.make ~ty:Ptype.int 5 j in
      let w = Prc.downgrade rc j in
      check_int "weak 1" 1 (Prc.weak_count rc);
      (match Prc.upgrade w j with
      | Some rc2 ->
          check_int "upgrade bumps strong" 2 (Prc.strong_count rc);
          Prc.drop rc2 j
      | None -> Alcotest.fail "upgrade of live object failed");
      Prc.drop rc j;
      (* Strong gone: upgrade must fail, block still held by the weak. *)
      check_bool "upgrade after death" true (Prc.upgrade w j = None);
      Prc.weak_drop w j);
  check_int "block reclaimed when both counts zero" baseline (live ())

let test_weak_keeps_block () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let live () = (P.stats ()).Pool_impl.live_blocks in
  let baseline = live () in
  let w =
    P.transaction (fun j ->
        let rc = Prc.make ~ty:Ptype.int 5 j in
        let w = Prc.downgrade rc j in
        Prc.drop rc j;
        w)
  in
  check_int "weak-held block not reclaimed" (baseline + 1) (live ());
  P.transaction (fun j -> Prc.weak_drop w j);
  check_int "reclaimed after weak drop" baseline (live ())

let test_vweak_promotion () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let rc_holder = ref None in
  let vw =
    P.transaction (fun j ->
        let rc = Prc.make ~ty:Ptype.int 9 j in
        rc_holder := Some rc;
        Prc.demote rc j)
  in
  (* vweak crosses the transaction boundary legally (it is Send/volatile). *)
  P.transaction (fun j ->
      match Prc.promote vw j with
      | Some rc ->
          check_int "promoted value" 9 (Prc.get rc);
          check_int "promote bumps strong" 2 (Prc.strong_count rc);
          Prc.drop rc j
      | None -> Alcotest.fail "promote of live object failed")

let test_vweak_after_free () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let vw =
    P.transaction (fun j ->
        let rc = Prc.make ~ty:Ptype.int 9 j in
        let vw = Prc.demote rc j in
        Prc.drop rc j;
        vw)
  in
  P.transaction (fun j ->
      check_bool "promote of dead object" true (Prc.promote vw j = None))

let test_vweak_after_reuse () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let vw =
    P.transaction (fun j ->
        let rc = Prc.make ~ty:Ptype.int 9 j in
        let vw = Prc.demote rc j in
        Prc.drop rc j;
        vw)
  in
  (* Re-allocate until the same block offset is reused. *)
  P.transaction (fun j ->
      for _ = 1 to 16 do
        ignore (Prc.make ~ty:Ptype.int 0 j : (_, _) Prc.t)
      done;
      check_bool "promote after block reuse" true (Prc.promote vw j = None));
  ()

(* Demote, free, and reallocate the very block: the new block's strong
   count is live, so only its birth counter, registered by the demote
   and bumped by the reallocation, can refuse the promote. *)
let test_vweak_same_offset () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let vw, off =
    P.transaction (fun j ->
        let rc = Prc.make ~ty:Ptype.int 9 j in
        let vw = Prc.demote rc j in
        Prc.drop rc j;
        (vw, Prc.off rc))
  in
  P.transaction (fun j ->
      let rec realloc n =
        if n = 0 then Alcotest.fail "the freed block was never reallocated"
        else if Prc.off (Prc.make ~ty:Ptype.int 0 j) <> off then realloc (n - 1)
      in
      realloc 16;
      check_bool "promote after same-offset reuse" true (Prc.promote vw j = None))

let test_vweak_after_reopen () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let vw =
    P.transaction (fun j ->
        let rc = Prc.make ~ty:Ptype.int 9 j in
        ignore (Prc.pclone rc j) (* keep alive... leaked deliberately *);
        Prc.demote rc j)
  in
  P.crash_and_reopen ();
  P.transaction (fun j ->
      check_bool "promote after pool reopen" true (Prc.promote vw j = None))

let test_stored_rc_reachability () =
  (* Store an rc inside a box, drop the volatile handle's ownership by
     moving it into the slot; the slot's drop must release the count. *)
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let live () = (P.stats ()).Pool_impl.live_blocks in
  let baseline = live () in
  let slot_ty = Ptype.option (Prc.ptype Ptype.int) in
  P.transaction (fun j ->
      let rc = Prc.make ~ty:Ptype.int 3 j in
      let b = Pbox.make ~ty:slot_ty (Some rc) j in
      (* rc ownership moved into b *)
      check_int "two blocks live" (baseline + 2) (live ());
      Pbox.drop b j);
  check_int "dropping the box cascades" baseline (live ())

let test_parc_cross_domain () =
  (* Two domains each clone and drop a shared Parc under their own
     transactions; counts must balance. *)
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let vw =
    P.transaction (fun j ->
        let rc = Parc.make ~ty:Ptype.int 1 j in
        Parc.demote rc j)
  in
  let worker () =
    for _ = 1 to 20 do
      P.transaction (fun j ->
          match Parc.promote vw j with
          | Some rc -> Parc.drop rc j
          | None -> Alcotest.fail "parc vanished")
    done
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Domain.join d1;
  Domain.join d2;
  P.transaction (fun j ->
      match Parc.promote vw j with
      | Some rc ->
          check_int "strong back to baseline+1" 2 (Parc.strong_count rc);
          Parc.drop rc j
      | None -> Alcotest.fail "parc lost")

let () =
  Alcotest.run "corundum_pointers"
    [
      ( "prc",
        [
          Alcotest.test_case "basics" `Quick test_prc_basics;
          Alcotest.test_case "try_unwrap" `Quick test_try_unwrap;
          Alcotest.test_case "dangling detected" `Quick test_prc_dangling_detected;
          Alcotest.test_case "clone cheap after first" `Quick
            test_prc_clone_cheap_after_first;
          Alcotest.test_case "stored rc cascades" `Quick
            test_stored_rc_reachability;
        ] );
      ( "parc",
        [
          Alcotest.test_case "logs every update" `Quick
            test_parc_logs_every_update;
          Alcotest.test_case "cross-domain clone/drop" `Quick
            test_parc_cross_domain;
        ] );
      ( "pweak",
        [
          Alcotest.test_case "lifecycle" `Quick test_pweak_lifecycle;
          Alcotest.test_case "weak keeps block" `Quick test_weak_keeps_block;
        ] );
      ( "vweak",
        [
          Alcotest.test_case "promotion" `Quick test_vweak_promotion;
          Alcotest.test_case "after free" `Quick test_vweak_after_free;
          Alcotest.test_case "after reuse" `Quick test_vweak_after_reuse;
          Alcotest.test_case "same offset reused" `Quick test_vweak_same_offset;
          Alcotest.test_case "after reopen" `Quick test_vweak_after_reopen;
        ] );
    ]
