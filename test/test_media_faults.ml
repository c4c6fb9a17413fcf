(* Media-fault tolerance: CRC32 checksums on journal entries and the pool
   header, torn-line and bit-rot injection in the simulated device, the
   checksum-aware recovery skip rule, and the repairing fsck. *)

module D = Pmem.Device
module Crc = Pmem.Crc32
module LE = Pjournal.Log_entry
module J = Pjournal.Journal_impl
module R = Pjournal.Recovery
module B = Palloc.Buddy
module T = Palloc.Alloc_table
open Corundum
module H = Pool_header

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

(* --- CRC32 ------------------------------------------------------------ *)

let test_crc_known_answer () =
  (* the IEEE 802.3 check value *)
  check_int "crc32(123456789)" 0xCBF43926 (Crc.string "123456789");
  check_int "crc32(empty)" 0 (Crc.string "")

let test_crc_detects_any_bit_flip () =
  let s = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let reference = Crc.bytes s in
  for i = 0 to Bytes.length s - 1 do
    for bit = 0 to 7 do
      let orig = Bytes.get_uint8 s i in
      Bytes.set_uint8 s i (orig lxor (1 lsl bit));
      if Crc.bytes s = reference then
        Alcotest.failf "flip of byte %d bit %d not detected" i bit;
      Bytes.set_uint8 s i orig
    done
  done;
  check_int "restored" reference (Crc.bytes s)

let test_crc_incremental_matches () =
  let s = "incremental == one-shot" in
  let acc = ref Crc.seed in
  String.iter (fun c -> acc := Crc.update !acc (Char.code c)) s;
  check_int "incremental" (Crc.string s) (Crc.finish !acc)

(* --- entry round-trip and corruption detection ------------------------ *)

let test_entry_roundtrip_and_detection () =
  let dev = D.create ~seed:7 ~size:4096 () in
  (* target contents the undo payload snapshots *)
  D.write_u64 dev 1024 0x1111222233334444L;
  D.write_u64 dev 1032 0x5555666677778888L;
  let at = 64 in
  let salt = LE.salt ~slot_base:0 ~epoch:0 in
  LE.write_data dev ~salt ~at ~off:1024 ~len:16;
  (match LE.read dev ~salt ~at with
  | LE.Data { off; len; _ }, size ->
      check_int "off" 1024 off;
      check_int "len" 16 len;
      check_int "size" (LE.data_entry_size 16) size
  | _ -> Alcotest.fail "expected a data entry");
  (* any single-bit flip anywhere in the entry must be detected *)
  let entry_size = LE.data_entry_size 16 in
  for i = at to at + entry_size - 1 do
    let orig = D.read_u8 dev i in
    D.write_u8 dev i (orig lxor 1);
    (match LE.read dev ~salt ~at with
    | _ -> Alcotest.failf "flip at byte %d accepted" i
    | exception Invalid_argument _ -> ());
    D.write_u8 dev i orig
  done;
  (* intact again after restoring *)
  ignore (LE.read dev ~salt ~at);
  (* the checksum is salted: another slot or another epoch rejects the
     same bytes (stale entries in recycled regions can never replay) *)
  (match LE.read dev ~salt:(LE.salt ~slot_base:64 ~epoch:0) ~at with
  | _ -> Alcotest.fail "entry verified under a foreign slot's salt"
  | exception Invalid_argument _ -> ());
  (match LE.read dev ~salt:(LE.salt ~slot_base:0 ~epoch:1) ~at with
  | _ -> Alcotest.fail "entry verified under a later epoch's salt"
  | exception Invalid_argument _ -> ())

(* --- torn writes at the device level ---------------------------------- *)

let test_torn_write_semantics () =
  let old_w = 0xAAAAAAAAAAAAAAAAL and new_w = 0xBBBBBBBBBBBBBBBBL in
  let saw_old = ref false and saw_new = ref false and torn_total = ref 0 in
  for seed = 1 to 10 do
    let dev = D.create ~seed ~size:4096 () in
    for w = 0 to 7 do
      D.write_u64 dev (512 + (w * 8)) old_w
    done;
    D.persist dev 512 64;
    D.set_torn_write_prob dev 1.0;
    for w = 0 to 7 do
      D.write_u64 dev (512 + (w * 8)) new_w
    done;
    D.flush dev 512 64;
    (* flushed, not fenced: the line is write-pending at the power cut *)
    D.power_cycle dev;
    torn_total := !torn_total + (D.stats dev).D.torn_lines;
    for w = 0 to 7 do
      let v = D.read_u64 dev (512 + (w * 8)) in
      if v = old_w then saw_old := true
      else if v = new_w then saw_new := true
      else Alcotest.failf "word %d torn inside 8 bytes: %Lx" w v
    done
  done;
  check_bool "torn lines counted" true (!torn_total >= 1);
  check_bool "some words kept the old value" true !saw_old;
  check_bool "some words took the new value" true !saw_new

let test_bit_rot_device () =
  let dev = D.create ~seed:3 ~size:4096 () in
  D.write_u64 dev 256 0L;
  D.persist dev 256 8;
  D.corrupt_line dev 256;
  check_int "rot counted" 1 (D.stats dev).D.corrupted_lines;
  check_bool "one bit flipped" true (D.read_u64 dev 256 <> 0L)

(* --- torn journal entry: recovery skips it ---------------------------- *)

let slot_size = 32 * 1024
let table_base = slot_size
let heap_len = 64 * 1024
let heap_base = 36864
let dev_size = heap_base + heap_len

let mk_journal () =
  let dev = D.create ~seed:42 ~size:dev_size () in
  let buddy = B.create dev ~table_base ~heap_base ~heap_len in
  J.format dev ~base:0 ~size:slot_size;
  let j = J.attach dev buddy ~base:0 ~size:slot_size in
  (dev, j)

let recover dev =
  let table = T.attach dev ~table_base ~heap_base ~heap_len in
  R.recover_slot dev table ~base:0 ~size:slot_size

let test_torn_entry_recovery () =
  let dev, j = mk_journal () in
  (* three committed cells *)
  J.begin_tx j;
  let x1 = J.alloc j 64 and x2 = J.alloc j 64 and x3 = J.alloc j 64 in
  D.write_u64 dev x1 11L;
  D.write_u64 dev x2 22L;
  D.write_u64 dev x3 33L;
  D.persist dev x1 8;
  D.persist dev x2 8;
  D.persist dev x3 8;
  J.commit j;
  (* mid-transaction: three logged updates, new values durable *)
  J.begin_tx j;
  J.data_log j ~off:x1 ~len:8;
  J.data_log j ~off:x2 ~len:8;
  J.data_log j ~off:x3 ~len:8;
  D.write_u64 dev x1 110L;
  D.write_u64 dev x2 220L;
  D.write_u64 dev x3 330L;
  D.persist dev x1 8;
  D.persist dev x2 8;
  D.persist dev x3 8;
  check_int "entries sealed" 3 (J.entry_count j);
  (* power-cut, then rot lands in entry #2's undo payload.  Entries are
     back-to-back from slot offset 64; a len-8 data entry is 32 bytes and
     its payload sits 24 bytes in. *)
  D.power_cycle dev;
  D.corrupt_line dev (64 + 32 + 24);
  let stats = recover dev in
  check_int "rolled back" 1 stats.R.rolled_back;
  check_int "first entry applied" 1 stats.R.data_restored;
  (* the tail walk stops at the first bad word; one torn-tail discard is
     recorded (the count of entries beyond it is advisory at best) *)
  check_int "torn tail discarded" 1 stats.R.entries_skipped;
  check_i64 "entry 1 (valid prefix) undone" 11L (D.read_u64 dev x1);
  check_i64 "entry 2 (torn) not applied" 220L (D.read_u64 dev x2);
  check_i64 "entry 3 (after tear) not applied" 330L (D.read_u64 dev x3);
  (* recovery is idempotent on the already-truncated slot *)
  let again = recover dev in
  check_int "idempotent" 0 again.R.entries_skipped

(* --- pool-level: bit rot caught by fsck, repair, read-only open ------- *)

let pool_config = { Pool_impl.size = 1024 * 1024; nslots = 2; slot_size }

let build_pool () =
  let module P = Pool.Make () in
  P.create ~config:pool_config ();
  let root () =
    P.root
      ~ty:(Pvec.ptype Ptype.int)
      ~init:(fun j -> Pvec.make ~ty:Ptype.int ~capacity:4 j)
      ()
  in
  ignore (root ());
  P.transaction (fun j ->
      for i = 1 to 10 do
        Pvec.push (Pbox.get (root ())) i j
      done);
  let check_data () =
    let v = Pbox.get (root ()) in
    check_int "vector length" 10 (Pvec.length v);
    for i = 0 to 9 do
      check_int "vector element" (i + 1) (Pvec.get v i)
    done
  in
  ((module P : Pool.S), Pool_impl.device (P.impl ()), check_data)

let free_table_index dev =
  let table_base = Int64.to_int (D.read_u64 dev H.hdr_table_base) in
  let nblocks = Int64.to_int (D.read_u64 dev H.hdr_heap_len) / 64 in
  (* jump over allocated extents so we land on genuinely free space *)
  let idx = ref 0 in
  while
    !idx < nblocks
    &&
    let b = D.read_u8 dev (table_base + !idx) in
    if b = 0 then false
    else begin
      idx := !idx + (1 lsl (b - 1));
      true
    end
  do
    ()
  done;
  if !idx >= nblocks then Alcotest.fail "no free block found";
  (table_base, !idx)

let test_bit_rot_detected_by_fsck () =
  let _p, dev, _check = build_pool () in
  check_bool "clean pool passes" true (Pool_check.ok (Pool_check.check_device dev));
  (* rot in the allocation table: a free byte claims an impossible order *)
  let table_base, idx = free_table_index dev in
  D.write_u8 dev (table_base + idx) 60;
  let r = Pool_check.check_device dev in
  check_bool "table rot detected" false (Pool_check.ok r);
  D.write_u8 dev (table_base + idx) 0;
  (* rot in the header layout: checksum no longer matches *)
  let slot_word = D.read_u64 dev H.hdr_slot_size in
  D.write_u64 dev H.hdr_slot_size (Int64.logxor slot_word 1L);
  let r = Pool_check.check_device dev in
  check_bool "header rot detected" false (Pool_check.ok r);
  D.write_u64 dev H.hdr_slot_size slot_word;
  check_bool "restored pool passes" true (Pool_check.ok (Pool_check.check_device dev))

let test_repair_restores_consistency () =
  let _p, dev, check_data = build_pool () in
  (* damage 1: journal slot 0 claims two undo entries of garbage *)
  let slot0 = H.header_size in
  D.write_u64 dev (slot0 + LE.hdr_count) 2L;
  D.write_u64 dev (slot0 + LE.hdr_size) 0xDEADBEEFDEADBEEFL;
  D.persist dev slot0 128;
  (* damage 2: allocation-table byte claims an impossible block *)
  let table_base, idx = free_table_index dev in
  D.write_u8 dev (table_base + idx) 60;
  D.persist dev (table_base + idx) 1;
  (* damage 3: stale header checksum *)
  D.write_u64 dev H.hdr_csum 0L;
  D.persist dev H.hdr_csum 8;
  check_bool "damage detected" false (Pool_check.ok (Pool_check.check_device dev));
  let r = Pool_check.repair dev in
  check_bool "repair succeeded" true (Pool_check.repaired r);
  check_bool "post-repair fsck clean" true (Pool_check.ok r.Pool_check.post);
  check_bool "actions reported" true (r.Pool_check.actions <> []);
  check_int "garbage entries truncated" 2 r.Pool_check.entries_truncated;
  check_int "bogus block quarantined" 1 r.Pool_check.blocks_quarantined;
  (* idempotence: a second repair finds nothing left to do *)
  let r2 = Pool_check.repair dev in
  check_bool "second repair is a no-op" true (r2.Pool_check.actions = []);
  check_bool "still clean" true (Pool_check.repaired r2);
  (* committed data untouched by the repairs *)
  check_data ()

let test_read_only_open () =
  let path = Filename.temp_file "corundum" ".pool" in
  let module P = Pool.Make () in
  P.create ~config:pool_config ~path ();
  let ty = Ptype.int in
  ignore (P.root ~ty ~init:(fun _ -> 41) ());
  P.transaction (fun j -> Pbox.set (P.root ~ty ~init:(fun _ -> 0) ()) 42 j);
  P.close ();
  (* break the header checksum in the saved image *)
  let dev = D.load path in
  D.write_u64 dev H.hdr_csum 0L;
  D.persist dev H.hdr_csum 8;
  D.save dev;
  (* read-write open refuses *)
  let module Q = Pool.Make () in
  (match Q.open_file path with
  | () -> Alcotest.fail "read-write open accepted a bad header checksum"
  | exception Pool_impl.Recovery_needed _ -> ());
  (* degraded open still reads the data *)
  Q.open_file ~mode:Pool_impl.Read_only path;
  check_bool "read-only flagged" true (Q.is_read_only ());
  check_int "data readable" 42 (Pbox.get (Q.root ~ty ~init:(fun _ -> 0) ()));
  (match Q.transaction (fun _ -> ()) with
  | () -> Alcotest.fail "transaction allowed on a read-only pool"
  | exception Pool_impl.Read_only_pool -> ());
  Q.close ();
  (* repair fixes the image so a normal open works again *)
  let dev = D.load path in
  let r = Pool_check.repair dev in
  check_bool "header re-sealed" true (Pool_check.repaired r);
  D.save dev;
  let module S = Pool.Make () in
  S.open_file path;
  check_int "data after repair" 42 (Pbox.get (S.root ~ty ~init:(fun _ -> 0) ()));
  S.close ();
  Sys.remove path

(* --- hand-built damaged images on the checksummed-tail format --------- *)

(* Each image damages journal slot 0 of a freshly built pool (slot base
   right after the pool header) in a way the new format must tolerate:
   a torn terminator word, a torn final entry behind a valid prefix, and
   a stale advisory entry count.  Recovery must leave committed data
   intact, and the repairing fsck must restore a clean image. *)
let slot0 = H.header_size

let pool_layout dev =
  let l = H.read_layout dev in
  (l.H.table_base, l.H.heap_base, l.H.heap_len)

let recover_slot0 dev =
  let table_base, heap_base, heap_len = pool_layout dev in
  let table = T.attach dev ~table_base ~heap_base ~heap_len in
  R.recover_slot dev table ~base:slot0 ~size:slot_size

let slot0_salt dev =
  LE.salt ~slot_base:slot0
    ~epoch:(Int64.to_int (D.read_u64 dev (slot0 + LE.hdr_epoch)))

let damage_torn_terminator dev =
  (* a zero-kind word with a nonzero checksum half: the torn remains of a
     terminator store that never durably finished *)
  D.write_u64 dev (slot0 + LE.hdr_size) (Int64.shift_left 0xABCDL 32);
  D.persist dev (slot0 + LE.hdr_size) 8

let damage_torn_final_entry dev =
  (* two sealed entries + terminator, then rot in the second's payload:
     the walk must keep entry 1 and treat the tail as never written *)
  let salt = slot0_salt dev in
  let _, heap_base, _ = pool_layout dev in
  let at1 = slot0 + LE.hdr_size in
  let at2 = at1 + LE.data_entry_size 8 in
  LE.write_data dev ~salt ~at:at1 ~off:heap_base ~len:8;
  LE.write_data dev ~salt ~at:at2 ~off:(heap_base + 8) ~len:8;
  D.write_u64 dev (at2 + LE.data_entry_size 8) 0L;
  D.persist dev at1 (2 * LE.data_entry_size 8 + 8);
  let b = D.read_u8 dev (at2 + 24) in
  D.write_u8 dev (at2 + 24) (b lxor 0x40);
  D.persist dev (at2 + 24) 1

let damage_stale_advisory dev =
  (* an advisory count with no sealed entries behind it (the terminator
     still sits right after the header) *)
  D.write_u64 dev (slot0 + LE.hdr_count) 7L;
  D.persist dev (slot0 + LE.hdr_count) 8

let test_hand_built_damaged_images () =
  List.iter
    (fun (name, damage, want_restored) ->
      (* recovery path *)
      let _p, dev, check_data = build_pool () in
      damage dev;
      let stats = recover_slot0 dev in
      check_int (name ^ ": torn tail discarded")
        (if name = "stale advisory" then 0 else 1)
        stats.R.entries_skipped;
      check_int (name ^ ": data restored") want_restored stats.R.data_restored;
      check_data ();
      check_bool (name ^ ": fsck clean after recovery") true
        (Pool_check.ok (Pool_check.check_device dev));
      (* repair path, from the same damaged state *)
      let _p, dev, check_data = build_pool () in
      damage dev;
      check_bool (name ^ ": damage detected") false
        (Pool_check.ok (Pool_check.check_device dev));
      let r = Pool_check.repair dev in
      check_bool (name ^ ": repaired") true (Pool_check.repaired r);
      check_bool (name ^ ": repair acted") true (r.Pool_check.actions <> []);
      check_data ();
      (* and recovery after repair is a clean idle scan *)
      let stats = recover_slot0 dev in
      check_int (name ^ ": nothing left to skip") 0 stats.R.entries_skipped;
      check_data ())
    [
      ("torn terminator", damage_torn_terminator, 0);
      ("torn final entry", damage_torn_final_entry, 1);
      ("stale advisory", damage_stale_advisory, 0);
    ]

(* --- marked-but-unlogged table line ------------------------------------ *)

(* The mark-after-seal invariant guarantees a durable table mark always
   has a durable undo entry behind it (marks are dirty-only until the
   commit fence, and the entry sealed strictly earlier).  Hand-build the
   forbidden state anyway — a durable mark with no sealed entry, the
   image a buggy or legacy writer could leave — and check the failure
   mode is graceful: recovery finds nothing to roll back and invents no
   work, the buddy rebuild still tiles the heap around the orphan block,
   committed data survives, and the damage is bounded to a {e
   detectable} leak (one more allocator-live block than before) rather
   than corruption. *)
let test_marked_unlogged_line () =
  let _p, dev, check_data = build_pool () in
  let table_base, heap_base, heap_len = pool_layout dev in
  let stripes = pool_config.Pool_impl.nslots in
  let buddy = B.attach ~stripes dev ~table_base ~heap_base ~heap_len in
  let live0 = Palloc.Heap_walk.live_count buddy in
  (* a direct allocator mark, outside any transaction: durable table
     byte, no journal entry anywhere *)
  ignore (B.alloc buddy 64);
  D.power_cycle dev;
  let table = T.attach dev ~table_base ~heap_base ~heap_len in
  let stats =
    R.recover dev table ~journal_base:slot0 ~slot_size
      ~nslots:pool_config.Pool_impl.nslots
  in
  check_int "nothing rolled back" 0 stats.R.rolled_back;
  check_int "nothing reverted" 0 stats.R.allocs_reverted;
  check_int "nothing re-marked" 0 stats.R.drops_remarked;
  let buddy2 = B.attach ~stripes dev ~table_base ~heap_base ~heap_len in
  (match Palloc.Heap_walk.check buddy2 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "heap no longer tiles: %s" m);
  check_int "orphan visible as a leak" (live0 + 1)
    (Palloc.Heap_walk.live_count buddy2);
  check_data ();
  check_bool "fsck: leak is not corruption" true
    (Pool_check.ok (Pool_check.check_device dev))

(* --- torn sweep stays silent-corruption free -------------------------- *)

let test_torn_sweep_clean () =
  List.iter
    (fun name ->
      let make = List.assoc name Crashtest.Scenario.all in
      let r =
        Crashtest.Injector.sweep ~limit:4 ~survival_samples:2 ~torn_prob:1.0
          make
      in
      if not (Crashtest.Injector.is_clean r) then
        Alcotest.failf "%s: %s" name
          (Format.asprintf "%a" Crashtest.Injector.pp_result r))
    [ "transfer"; "kvstore"; "alloc_churn" ]

let () =
  Alcotest.run "corundum media faults"
    [
      ( "crc32",
        [
          Alcotest.test_case "known answer" `Quick test_crc_known_answer;
          Alcotest.test_case "single-bit flips" `Quick test_crc_detects_any_bit_flip;
          Alcotest.test_case "incremental" `Quick test_crc_incremental_matches;
        ] );
      ( "entries",
        [
          Alcotest.test_case "roundtrip and detection" `Quick
            test_entry_roundtrip_and_detection;
        ] );
      ( "device",
        [
          Alcotest.test_case "torn write semantics" `Quick test_torn_write_semantics;
          Alcotest.test_case "bit rot" `Quick test_bit_rot_device;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "torn entry skipped" `Quick test_torn_entry_recovery;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "bit rot detected" `Quick test_bit_rot_detected_by_fsck;
          Alcotest.test_case "repair restores consistency" `Quick
            test_repair_restores_consistency;
          Alcotest.test_case "read-only open" `Quick test_read_only_open;
          Alcotest.test_case "hand-built damaged images" `Quick
            test_hand_built_damaged_images;
          Alcotest.test_case "marked-but-unlogged line" `Quick
            test_marked_unlogged_line;
        ] );
      ( "sweep",
        [ Alcotest.test_case "torn sweep clean" `Quick test_torn_sweep_clean ] );
    ]
