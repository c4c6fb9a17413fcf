(* The pool tooling: Pool_check (fsck) must pass clean pools and crash
   images, and pinpoint genuine corruption. *)

open Corundum
module D = Pmem.Device
module H = Pool_header
module LE = Pjournal.Log_entry

let slot0 = H.header_size

let small =
  { Pool_impl.size = 2 * 1024 * 1024; nslots = 2; slot_size = 64 * 1024 }

let check_bool = Alcotest.(check bool)

(* A populated pool and its device. *)
let build () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let root =
    P.root ~ty:(Pvec.ptype Ptype.int)
      ~init:(fun j -> Pvec.make ~ty:Ptype.int j)
      ()
  in
  P.transaction (fun j ->
      for i = 1 to 10 do
        Pvec.push (Pbox.get root) i j
      done);
  ((module P : Pool.S), Pool_impl.device (P.impl ()))

let finding_in where r =
  List.exists
    (fun (f : Pool_check.finding) -> f.where = where)
    r.Pool_check.findings

let test_clean_pool_passes () =
  let _, dev = build () in
  let r = Pool_check.check_device dev in
  check_bool "clean pool is consistent" true (Pool_check.ok r);
  check_bool "blocks were examined" true (r.Pool_check.blocks_checked > 0)

let test_crash_image_passes () =
  (* Active journals are valid state, not corruption. *)
  let (module P), dev = build () in
  let root =
    P.root ~ty:(Pvec.ptype Ptype.int) ~init:(fun _ -> assert false) ()
  in
  D.set_crash_countdown dev 6;
  (try P.transaction (fun j -> Pvec.push (Pbox.get root) 99 j)
   with D.Crashed -> ());
  D.power_cycle dev;
  let r = Pool_check.check_device dev in
  check_bool "crash image is consistent" true (Pool_check.ok r);
  check_bool "its log entries were parsed" true (r.Pool_check.entries_checked > 0)

let test_bad_magic_detected () =
  let _, dev = build () in
  D.write_u8 dev 0 0xFF;
  D.persist dev 0 1;
  let r = Pool_check.check_device dev in
  check_bool "bad magic flagged" true (finding_in "header" r)

let test_wild_journal_count_detected () =
  let _, dev = build () in
  D.write_u64 dev (slot0 + LE.hdr_count) 999999L;
  D.persist dev (slot0 + LE.hdr_count) 8;
  let r = Pool_check.check_device dev in
  check_bool "wild count flagged" true (finding_in "journal slot 0" r)

let test_torn_journal_entry_detected () =
  let _, dev = build () in
  (* pretend one entry exists but leave garbage where it should be *)
  D.write_u64 dev (slot0 + LE.hdr_count) 1L;
  D.write_u64 dev (slot0 + LE.hdr_size) 0xDEADL (* bogus kind *);
  D.persist dev slot0 128;
  let r = Pool_check.check_device dev in
  check_bool "torn entry flagged" true (finding_in "journal slot 0" r)

let test_misaligned_block_detected () =
  let (module P), dev = build () in
  let info = Pool_inspect.inspect_device dev in
  let table_base = info.Pool_inspect.table_base in
  (* order 1 (= byte 2) at an odd index is misaligned *)
  D.write_u8 dev (table_base + 3) 2;
  D.persist dev (table_base + 3) 1;
  let r = Pool_check.check_device dev in
  check_bool "misaligned block flagged" true (finding_in "alloc table" r)

let test_root_into_free_block_detected () =
  let _, dev = build () in
  let info = Pool_inspect.inspect_device dev in
  (* find some free block and point the root at it *)
  let table_base = info.Pool_inspect.table_base in
  let heap_base = info.Pool_inspect.heap_base in
  let nblocks = info.Pool_inspect.heap_len / 64 in
  let rec free_idx i =
    if i >= nblocks then Alcotest.fail "no free block?"
    else if D.read_u8 dev (table_base + i) = 0 then i
    else free_idx (i + 1)
  in
  let idx = free_idx 0 in
  D.write_u64 dev H.hdr_root (Int64.of_int (heap_base + (idx * 64)));
  D.persist dev H.hdr_root 8;
  let r = Pool_check.check_device dev in
  check_bool "dangling root flagged" true (finding_in "root" r)

(* --- CoW cell verdicts ------------------------------------------------- *)

(* A mod-engine pool with a committed, acknowledged CoW root update. *)
let build_mod () =
  let module E = Engines.Mod_engine in
  let eng = E.create ~latency:Pmem.Latency.zero ~size:(2 * 1024 * 1024) () in
  E.transaction eng (fun tx ->
      let o = E.alloc tx 64 in
      E.write tx o 7L;
      E.set_root tx o);
  E.transaction eng (fun tx ->
      let old = E.root tx in
      let o = E.alloc tx 64 in
      E.write tx o 8L;
      E.set_root tx o;
      E.free tx old);
  let dev = Pool_impl.device (E.pool eng) in
  D.fence dev;
  (eng, dev)

let test_cow_cells_inspected () =
  let _, dev = build_mod () in
  let info = Pool_inspect.inspect_device dev in
  let active =
    List.filter
      (fun (ci : Cow_root.cell_info) -> ci.ci_gen > 0)
      info.Pool_inspect.cow_cells
  in
  check_bool "a cow cell carries the committed generations" true (active <> []);
  check_bool "no pending intent on an acknowledged pool" true
    (List.for_all
       (fun (ci : Cow_root.cell_info) -> not ci.ci_pending)
       info.Pool_inspect.cow_cells);
  let r = Pool_check.check_device dev in
  check_bool "acknowledged mod pool is consistent" true (Pool_check.ok r)

let test_cow_pending_intent_detected () =
  (* Crash a third update somewhere between its intent seal and the tail's
     resolution: some persist point must leave a sealed pending intent on
     the pre-recovery image, and repair must resolve it. *)
  let module E = Engines.Mod_engine in
  let found = ref false in
  let k = ref 1 in
  while (not !found) && !k < 40 do
    let eng, dev = build_mod () in
    D.set_crash_countdown dev !k;
    (match
       E.transaction eng (fun tx ->
           let old = E.root tx in
           let o = E.alloc tx 64 in
           E.write tx o 9L;
           E.set_root tx o;
           E.free tx old)
     with
    | () -> D.set_crash_countdown dev 0
    | exception D.Crashed -> ());
    D.power_cycle dev;
    let r = Pool_check.check_device dev in
    let pending =
      List.exists
        (fun (f : Pool_check.finding) ->
          String.length f.problem >= 7
          && String.sub f.problem 0 7 = "pending")
        r.Pool_check.findings
    in
    if pending then begin
      found := true;
      (* repair applies the idempotent cell resolution *)
      let rr = Pool_check.repair dev in
      check_bool "repair resolves the pending intent" true
        (Pool_check.repaired rr)
    end;
    incr k
  done;
  check_bool "some crash point exposes a pending intent" true !found

let test_cow_dangling_ptr_detected () =
  let _, dev = build_mod () in
  let info = Pool_inspect.inspect_device dev in
  let ci =
    List.find
      (fun (ci : Cow_root.cell_info) -> ci.ci_gen > 0)
      info.Pool_inspect.cow_cells
  in
  (* free the block under the active root out from under the cell *)
  let victim =
    match ci.ci_pair with Some (pb, _) -> pb | None -> ci.ci_ptr
  in
  let bidx = (victim - info.Pool_inspect.heap_base) / 64 in
  D.write_u8 dev (info.Pool_inspect.table_base + bidx) 0;
  D.persist dev (info.Pool_inspect.table_base + bidx) 1;
  let r = Pool_check.check_device dev in
  check_bool "dangling cow pointer flagged" true
    (finding_in (Printf.sprintf "cow cell %d" ci.ci_cell) r)

let test_fsck_file_roundtrip () =
  let path = Filename.temp_file "corundum_fsck" ".pool" in
  let module P = Pool.Make () in
  P.create ~config:small ~path ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 3) ());
  P.close ();
  let r = Pool_check.check_file path in
  check_bool "saved pool checks clean" true (Pool_check.ok r);
  Sys.remove path

(* --- fsck characterisation corpus --------------------------------------

   One fresh pool per damage case.  Each case pins [check_device]'s full
   findings and [repair]'s actions, unrepairable list, counters and
   verdict, then checks that a second repair has nothing left to do. *)

let render_fsck dev =
  let b = Buffer.create 256 in
  let r = Pool_check.check_device dev in
  List.iter
    (fun (f : Pool_check.finding) ->
      Printf.bprintf b "check [%s] %s\n" f.where f.problem)
    r.Pool_check.findings;
  let rr = Pool_check.repair dev in
  List.iter
    (fun (a : Pool_check.repair_action) ->
      Printf.bprintf b "repair [%s] %s\n" a.where a.action)
    rr.Pool_check.actions;
  List.iter
    (fun (f : Pool_check.finding) ->
      Printf.bprintf b "unrepairable [%s] %s\n" f.where f.problem)
    rr.Pool_check.unrepairable;
  Printf.bprintf b "truncated %d entries, %d drops; quarantined %d; repaired %b\n"
    rr.Pool_check.entries_truncated rr.Pool_check.drops_truncated
    rr.Pool_check.blocks_quarantined (Pool_check.repaired rr);
  let again = Pool_check.repair dev in
  check_bool "second repair takes no actions" true
    (again.Pool_check.actions = []);
  Buffer.contents b

let damaged damage =
  let _, dev = build () in
  damage dev;
  dev

let table_base dev = (Pool_inspect.inspect_device dev).Pool_inspect.table_base

let first_free_index dev =
  let info = Pool_inspect.inspect_device dev in
  let nblocks = info.Pool_inspect.heap_len / 64 in
  let rec go i =
    if i >= nblocks then Alcotest.fail "no free block"
    else
      let b = D.read_u8 dev (info.Pool_inspect.table_base + i) in
      if b = 0 then i else go (i + (1 lsl (b - 1)))
  in
  go 0

let corpus_cases =
  [
    ( "bad magic",
      fun () -> damaged (fun dev -> D.write_u8 dev 0 0xFF) );
    ( "wild journal count",
      fun () -> damaged (fun dev -> D.write_u64 dev (slot0 + LE.hdr_count) 999999L) );
    ( "torn journal entry",
      fun () ->
        damaged (fun dev ->
            D.write_u64 dev (slot0 + LE.hdr_count) 1L;
            D.write_u64 dev (slot0 + LE.hdr_size) 0xDEADL) );
    ( "misaligned block",
      fun () -> damaged (fun dev -> D.write_u8 dev (table_base dev + 3) 2) );
    ( "root into free block",
      fun () ->
        damaged (fun dev ->
            let info = Pool_inspect.inspect_device dev in
            let off = info.Pool_inspect.heap_base + (first_free_index dev * 64) in
            D.write_u64 dev H.hdr_root (Int64.of_int off)) );
    ( "order-60 table rot",
      fun () ->
        damaged (fun dev -> D.write_u8 dev (table_base dev + first_free_index dev) 60) );
    ( "zeroed header checksum",
      fun () -> damaged (fun dev -> D.write_u64 dev H.hdr_csum 0L) );
    ( "flipped layout word",
      fun () ->
        damaged (fun dev ->
            D.write_u64 dev H.hdr_slot_size
              (Int64.logxor (D.read_u64 dev H.hdr_slot_size) 1L)) );
    ( "torn terminator",
      fun () ->
        damaged (fun dev ->
            D.write_u64 dev (slot0 + LE.hdr_size) (Int64.shift_left 0xABCDL 32)) );
    ( "torn final entry",
      fun () ->
        damaged (fun dev ->
            let info = Pool_inspect.inspect_device dev in
            let salt =
              LE.salt ~slot_base:slot0
                ~epoch:(Int64.to_int (D.read_u64 dev (slot0 + LE.hdr_epoch)))
            in
            let heap_base = info.Pool_inspect.heap_base in
            let at1 = slot0 + LE.hdr_size in
            let at2 = at1 + LE.data_entry_size 8 in
            LE.write_data dev ~salt ~at:at1 ~off:heap_base ~len:8;
            LE.write_data dev ~salt ~at:at2 ~off:(heap_base + 8) ~len:8;
            D.write_u64 dev (at2 + LE.data_entry_size 8) 0L;
            let b = D.read_u8 dev (at2 + 24) in
            D.write_u8 dev (at2 + 24) (b lxor 0x40)) );
    ( "stale advisory count",
      fun () -> damaged (fun dev -> D.write_u64 dev (slot0 + LE.hdr_count) 7L) );
    ( "cow dangling pointer",
      fun () ->
        let _, dev = build_mod () in
        let info = Pool_inspect.inspect_device dev in
        let ci =
          List.find
            (fun (ci : Cow_root.cell_info) -> ci.ci_gen > 0)
            info.Pool_inspect.cow_cells
        in
        let victim =
          match ci.ci_pair with Some (pb, _) -> pb | None -> ci.ci_ptr
        in
        D.write_u8 dev
          (info.Pool_inspect.table_base
          + ((victim - info.Pool_inspect.heap_base) / 64))
          0;
        dev );
    ( "cow pending intent",
      fun () ->
        let module E = Engines.Mod_engine in
        let rec at k =
          if k >= 40 then Alcotest.fail "no crash point leaves a pending intent"
          else begin
            let eng, dev = build_mod () in
            D.set_crash_countdown dev k;
            (match
               E.transaction eng (fun tx ->
                   let old = E.root tx in
                   let o = E.alloc tx 64 in
                   E.write tx o 9L;
                   E.set_root tx o;
                   E.free tx old)
             with
            | () -> D.set_crash_countdown dev 0
            | exception D.Crashed -> ());
            D.power_cycle dev;
            if
              List.exists
                (fun (ci : Cow_root.cell_info) -> ci.ci_pending)
                (Cow_root.inspect dev)
            then dev
            else at (k + 1)
          end
        in
        at 1 );
    ( "bad phase on slot 1 of 1 KiB slots",
      fun () ->
        let module P = Pool.Make () in
        P.create
          ~config:{ Pool_impl.size = 2 * 1024 * 1024; nslots = 4; slot_size = 1024 }
          ();
        let dev = Pool_impl.device (P.impl ()) in
        D.write_u64 dev (slot0 + 1024 + LE.hdr_phase) 7L;
        dev );
    ( "drop count 100 on a 4 KiB slot",
      fun () ->
        let module P = Pool.Make () in
        P.create
          ~config:{ Pool_impl.size = 2 * 1024 * 1024; nslots = 2; slot_size = 4096 }
          ();
        let dev = Pool_impl.device (P.impl ()) in
        D.write_u64 dev (slot0 + LE.hdr_drops) 100L;
        dev );
  ]

let corpus_expected =
  [
    ( "bad magic",
      "check [header] bad magic: not a Corundum pool\n"
      ^ "unrepairable [header] bad magic: not a Corundum pool\n"
      ^ "truncated 0 entries, 0 drops; quarantined 0; repaired false\n" );
    ( "wild journal count",
      "check [journal slot 0] implausible entry count 999999\n"
      ^ "repair [journal slot 0] reset slot: implausible entry count 999999\n"
      ^ "truncated 0 entries, 0 drops; quarantined 0; repaired true\n" );
    ( "torn journal entry",
      "check [journal slot 0] torn log tail: Log_entry: bad kind 57005 at 4160\n"
      ^ "check [journal slot 0] advisory entry count 1 disagrees with walked tail (0 sealed entries)\n"
      ^ "repair [journal slot 0] sealed torn log tail at 4160 (Log_entry: bad kind 57005 at 4160)\n"
      ^ "repair [journal slot 0] reconciled advisory entry count 1 -> 0 walked entries\n"
      ^ "truncated 1 entries, 0 drops; quarantined 0; repaired true\n" );
    ( "misaligned block",
      "check [alloc table] block 3 misaligned for order 1\n"
      ^ "repair [alloc table] quarantined block 3: misaligned for order 1\n"
      ^ "truncated 0 entries, 0 drops; quarantined 1; repaired true\n" );
    ( "root into free block",
      "check [root] root points at a free block\n"
      ^ "unrepairable [root] root points at a free block (open read-only)\n"
      ^ "truncated 0 entries, 0 drops; quarantined 0; repaired false\n" );
    ( "order-60 table rot",
      "check [alloc table] block 1 (order 59) overflows the heap\n"
      ^ "repair [alloc table] quarantined block 1: order 59 overflows the heap\n"
      ^ "truncated 0 entries, 0 drops; quarantined 1; repaired true\n" );
    ( "zeroed header checksum",
      "check [header] layout checksum mismatch (stored 0, computed 0xc5ec2305)\n"
      ^ "repair [header] re-sealed layout checksum\n"
      ^ "truncated 0 entries, 0 drops; quarantined 0; repaired true\n" );
    ( "flipped layout word",
      "check [header] layout fields are inconsistent\n"
      ^ "unrepairable [header] layout fields are inconsistent; nothing can be trusted\n"
      ^ "truncated 0 entries, 0 drops; quarantined 0; repaired false\n" );
    ( "torn terminator",
      "check [journal slot 0] torn log tail: torn terminator word\n"
      ^ "repair [journal slot 0] sealed torn log tail at 4160 (torn terminator word)\n"
      ^ "truncated 1 entries, 0 drops; quarantined 0; repaired true\n" );
    ( "torn final entry",
      "check [journal slot 0] torn log tail: Log_entry: checksum mismatch at 4192\n"
      ^ "repair [journal slot 0] sealed torn log tail at 4192 (Log_entry: checksum mismatch at 4192)\n"
      ^ "truncated 1 entries, 0 drops; quarantined 0; repaired true\n" );
    ( "stale advisory count",
      "check [journal slot 0] advisory entry count 7 disagrees with walked tail (0 sealed entries)\n"
      ^ "repair [journal slot 0] reconciled advisory entry count 7 -> 0 walked entries\n"
      ^ "truncated 7 entries, 0 drops; quarantined 0; repaired true\n" );
    ( "cow dangling pointer",
      "check [cow cell 0] active pointer 552640 dangles into free space\n"
      ^ "repair [cow cells] resolved commit intents: 1 rolled forward, 0 rolled back\n"
      ^ "truncated 0 entries, 0 drops; quarantined 0; repaired true\n" );
    ( "cow pending intent",
      "check [cow cell 0] pending commit intent (gen 2 -> 3): image predates recovery or resolution failed\n"
      ^ "repair [cow cells] resolved commit intents: 1 rolled forward, 1 rolled back\n"
      ^ "truncated 0 entries, 0 drops; quarantined 0; repaired true\n" );
    ( "bad phase on slot 1 of 1 KiB slots",
      "check [journal slot 1] bad phase 7\n"
      ^ "repair [journal slot 1] reset slot: bad phase 7\n"
      ^ "truncated 0 entries, 0 drops; quarantined 0; repaired true\n" );
    ( "drop count 100 on a 4 KiB slot",
      "check [journal slot 0] implausible drop count 100\n"
      ^ "repair [journal slot 0] cleared implausible drop count 100\n"
      ^ "truncated 0 entries, 100 drops; quarantined 0; repaired true\n" );
  ]

let fsck_corpus_tests =
  List.map
    (fun (name, make) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string)
            name (List.assoc name corpus_expected) (render_fsck (make ()))))
    corpus_cases

let () =
  Alcotest.run "corundum_tools"
    [
      ( "pool_check",
        [
          Alcotest.test_case "clean pool passes" `Quick test_clean_pool_passes;
          Alcotest.test_case "crash image passes" `Quick test_crash_image_passes;
          Alcotest.test_case "bad magic" `Quick test_bad_magic_detected;
          Alcotest.test_case "wild journal count" `Quick
            test_wild_journal_count_detected;
          Alcotest.test_case "torn journal entry" `Quick
            test_torn_journal_entry_detected;
          Alcotest.test_case "misaligned block" `Quick
            test_misaligned_block_detected;
          Alcotest.test_case "root into free block" `Quick
            test_root_into_free_block_detected;
          Alcotest.test_case "file roundtrip" `Quick test_fsck_file_roundtrip;
        ] );
      ( "cow_cells",
        [
          Alcotest.test_case "cells inspected" `Quick test_cow_cells_inspected;
          Alcotest.test_case "pending intent verdict" `Quick
            test_cow_pending_intent_detected;
          Alcotest.test_case "dangling pointer verdict" `Quick
            test_cow_dangling_ptr_detected;
        ] );
      ("fsck", fsck_corpus_tests);
    ]
