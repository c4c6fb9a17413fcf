(* Tests for the undo journal: logging, commit/abort protocols, deferred
   frees, transactional allocation, and — crucially — an exhaustive crash
   sweep that injects a failure at every persist point of a canonical
   transaction and verifies atomicity after recovery. *)

module D = Pmem.Device
module B = Palloc.Buddy
module T = Palloc.Alloc_table
module W = Palloc.Heap_walk
module J = Pjournal.Journal_impl
module R = Pjournal.Recovery

let slot_base = 0
let slot_size = 32 * 1024
let table_base = slot_size
let heap_len = 64 * 1024
let heap_base = 36864 (* table needs heap_len/64 = 1 kB; leave padding *)
let dev_size = heap_base + heap_len

type env = { dev : D.t; buddy : B.t; j : J.t }

let mk () =
  let dev = D.create ~seed:42 ~size:dev_size () in
  let buddy = B.create dev ~table_base ~heap_base ~heap_len in
  J.format dev ~base:slot_base ~size:slot_size;
  let j = J.attach dev buddy ~base:slot_base ~size:slot_size in
  { dev; buddy; j }

(* Reattach everything after a power cycle, running recovery first. *)
let reopen dev =
  let table = T.attach dev ~table_base ~heap_base ~heap_len in
  let stats = R.recover_slot dev table ~base:slot_base ~size:slot_size in
  let buddy = B.attach dev ~table_base ~heap_base ~heap_len in
  let j = J.attach dev buddy ~base:slot_base ~size:slot_size in
  (buddy, j, stats)

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let assert_intact buddy =
  match W.check buddy with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "heap integrity violated: %s" msg

let test_abort_restores_data () =
  let { dev; buddy = _; j } = mk () in
  (* Set up a committed cell. *)
  J.begin_tx j;
  let x = J.alloc j 64 in
  D.write_u64 dev x 1L;
  D.persist dev x 8;
  J.commit j;
  (* Modify under logging, then abort. *)
  J.begin_tx j;
  J.data_log j ~off:x ~len:8;
  D.write_u64 dev x 2L;
  check_i64 "modified in tx" 2L (D.read_u64 dev x);
  J.abort j;
  check_i64 "abort restores" 1L (D.read_u64 dev x)

let test_commit_durable () =
  let { dev; buddy = _; j } = mk () in
  J.begin_tx j;
  let x = J.alloc j 64 in
  D.write_u64 dev x 1L;
  D.persist dev x 8;
  J.commit j;
  J.begin_tx j;
  J.data_log j ~off:x ~len:8;
  D.write_u64 dev x 2L;
  J.commit j;
  D.power_cycle dev;
  let buddy2, _, stats = reopen dev in
  check_int "nothing rolled back" 0 stats.R.rolled_back;
  check_i64 "committed data durable" 2L (D.read_u64 dev x);
  check_int "block live" 64 (Option.get (B.block_size buddy2 x))

let test_unlogged_write_lost_without_commit () =
  (* Demonstrates why logging matters: an unlogged, unflushed write inside
     an uncommitted transaction vanishes on crash. *)
  let { dev; buddy = _; j } = mk () in
  J.begin_tx j;
  let x = J.alloc j 64 in
  D.write_u64 dev x 1L;
  D.persist dev x 8;
  J.commit j;
  J.begin_tx j;
  J.data_log j ~off:x ~len:8 (* logging makes the tx visible to recovery *);
  D.write_u64 dev x 2L;
  D.write_u64 dev (x + 8) 9L (* a second, unlogged and unflushed write *);
  D.power_cycle dev;
  let _, _, stats = reopen dev in
  check_int "open tx rolled back" 1 stats.R.rolled_back;
  check_i64 "logged value restored" 1L (D.read_u64 dev x);
  check_i64 "unlogged unflushed write vanished" 0L (D.read_u64 dev (x + 8))

let test_alloc_rolled_back_on_abort () =
  let { dev = _; buddy; j } = mk () in
  J.begin_tx j;
  let x = J.alloc j 128 in
  check_int "live during tx" 128 (Option.get (B.block_size buddy x));
  J.abort j;
  Alcotest.(check (option int)) "freed by abort" None (B.block_size buddy x);
  check_int "no live blocks" 0 (W.live_count buddy);
  assert_intact buddy

let test_alloc_rolled_back_on_crash () =
  let { dev; buddy = _; j } = mk () in
  J.begin_tx j;
  let x = J.alloc j 128 in
  ignore x;
  D.power_cycle dev (* crash with tx open *);
  let buddy2, _, stats = reopen dev in
  check_int "rolled back" 1 stats.R.rolled_back;
  (* Mark-after-seal: the table mark is dirty-only until the commit
     fence, so an uncommitted alloc's mark is not durable and recovery
     finds nothing to revert — the sealed Alloc entry guards the case
     where the mark line did drain early. *)
  check_int "no durable mark to revert" 0 stats.R.allocs_reverted;
  check_int "no live blocks" 0 (W.live_count buddy2);
  assert_intact buddy2

let test_free_is_deferred () =
  let { dev = _; buddy; j } = mk () in
  J.begin_tx j;
  let x = J.alloc j 64 in
  J.commit j;
  J.begin_tx j;
  J.free j x;
  check_int "still live before commit" 64 (Option.get (B.block_size buddy x));
  J.commit j;
  Alcotest.(check (option int)) "freed at commit" None (B.block_size buddy x)

let test_free_discarded_on_abort () =
  let { dev = _; buddy; j } = mk () in
  J.begin_tx j;
  let x = J.alloc j 64 in
  J.commit j;
  J.begin_tx j;
  J.free j x;
  J.abort j;
  check_int "still live after abort" 64 (Option.get (B.block_size buddy x))

let test_double_drop_rejected () =
  let { dev = _; buddy = _; j } = mk () in
  J.begin_tx j;
  let x = J.alloc j 64 in
  J.commit j;
  J.begin_tx j;
  J.free j x;
  Alcotest.match_raises "double drop"
    (function B.Invalid_free _ -> true | _ -> false)
    (fun () -> J.free j x);
  J.abort j

let test_drop_of_dead_block_rejected () =
  let { dev = _; buddy = _; j } = mk () in
  J.begin_tx j;
  Alcotest.match_raises "free of free block"
    (function B.Invalid_free _ -> true | _ -> false)
    (fun () -> J.free j (heap_base + 64));
  J.abort j

let test_dedup () =
  let { dev; buddy = _; j } = mk () in
  J.begin_tx j;
  let x = J.alloc j 64 in
  D.write_u64 dev x 1L;
  D.persist dev x 8;
  J.commit j;
  J.begin_tx j;
  let n0 = J.entry_count j in
  J.data_log j ~off:x ~len:8;
  J.data_log j ~off:x ~len:8;
  J.data_log j ~off:x ~len:8;
  check_int "same range logged once" (n0 + 1) (J.entry_count j);
  (* A different length is a different range. *)
  J.data_log j ~off:x ~len:16;
  check_int "different range logged" (n0 + 2) (J.entry_count j);
  J.abort j

let test_line_dedup () =
  (* Once a 64-byte line is fully covered by a logged range, later ranges
     that fall entirely within covered lines are elided — the existing
     undo already restores them. *)
  let { dev; buddy = _; j } = mk () in
  J.begin_tx j;
  let x = J.alloc j 128 in
  D.fill dev x 128 '\x00';
  D.persist dev x 128;
  J.commit j;
  J.begin_tx j;
  let n0 = J.entry_count j in
  J.data_log j ~off:x ~len:64;
  check_int "line logged" (n0 + 1) (J.entry_count j);
  let b1 = J.tx_logged_bytes j in
  (* Sub-ranges of the covered line add no entries and no bytes. *)
  J.data_log j ~off:x ~len:8;
  J.data_log j ~off:(x + 16) ~len:8;
  J.data_log j ~off:(x + 40) ~len:24;
  check_int "sub-ranges of a logged line elided" (n0 + 1) (J.entry_count j);
  check_int "no extra bytes logged" b1 (J.tx_logged_bytes j);
  (* A range that touches an uncovered line still logs. *)
  J.data_log j ~off:(x + 56) ~len:16;
  check_int "straddling range logged" (n0 + 2) (J.entry_count j);
  (* Undo is still complete under elision. *)
  D.fill dev x 72 '\xCC';
  J.abort j;
  for w = 0 to 8 do
    check_i64 "abort restored elided range" 0L (D.read_u64 dev (x + (w * 8)))
  done

let test_fence_budget () =
  (* Acceptance known answer: a transaction that logs and updates N
     distinct cells costs exactly N + 2 fences — one per sealed entry
     (entry + terminator under a single persist), one coalesced commit
     fence, one for the truncate that retires the log. *)
  let { dev; buddy = _; j } = mk () in
  let n = 8 in
  J.begin_tx j;
  let cells = Array.init n (fun _ -> J.alloc j 64) in
  Array.iter
    (fun c ->
      D.write_u64 dev c 1L;
      D.persist dev c 8)
    cells;
  J.commit j;
  let f0 = (D.stats dev).D.fences in
  J.begin_tx j;
  Array.iter
    (fun c ->
      J.data_log j ~off:c ~len:8;
      D.write_u64 dev c 2L)
    cells;
  J.commit j;
  let df = (D.stats dev).D.fences - f0 in
  if df > n + 2 then
    Alcotest.failf "transaction cost %d fences, budget is N+2 = %d" df (n + 2);
  check_int "exactly N+2 fences" (n + 2) df;
  Array.iter (fun c -> check_i64 "committed" 2L (D.read_u64 dev c)) cells

let test_commit_flushes_unique_lines () =
  (* Acceptance known answer: a commit whose logged ranges duplicate and
     overlap the same 64-byte lines writes back each dirty line exactly
     once — the same commit cost as logging each line a single time. *)
  let { dev; buddy = _; j } = mk () in
  J.begin_tx j;
  let x = J.alloc j 64 in
  let y = J.alloc j 64 in
  D.write_u64 dev x 1L;
  D.write_u64 dev y 1L;
  D.persist dev x 8;
  D.persist dev y 8;
  J.commit j;
  (* Reference commit: each line logged once. *)
  J.begin_tx j;
  J.data_log j ~off:x ~len:64;
  J.data_log j ~off:y ~len:64;
  D.write_u64 dev x 2L;
  D.write_u64 dev y 2L;
  let s0 = D.stats dev in
  J.commit j;
  let s1 = D.stats dev in
  let ref_lines = s1.D.flushes - s0.D.flushes in
  let ref_calls = s1.D.flush_calls - s0.D.flush_calls in
  (* Same two dirty lines, logged as duplicate / overlapping ranges. *)
  J.begin_tx j;
  J.data_log_nodedup j ~off:x ~len:64;
  J.data_log_nodedup j ~off:x ~len:64;
  J.data_log_nodedup j ~off:(x + 8) ~len:16;
  J.data_log_nodedup j ~off:y ~len:64;
  J.data_log_nodedup j ~off:(y + 32) ~len:32;
  D.write_u64 dev x 3L;
  D.write_u64 dev y 3L;
  let s2 = D.stats dev in
  J.commit j;
  let s3 = D.stats dev in
  check_int "duplicate ranges flush each dirty line once" ref_lines
    (s3.D.flushes - s2.D.flushes);
  check_int "no extra flush instructions either" ref_calls
    (s3.D.flush_calls - s2.D.flush_calls);
  check_i64 "committed x" 3L (D.read_u64 dev x);
  check_i64 "committed y" 3L (D.read_u64 dev y)

let test_many_spills_and_drops () =
  (* Spill and drop bookkeeping is O(1) per operation (spills are consed
     newest-first, the drop count is a counter, capacity checks no longer
     rescan the lists).  Behavior under a long drop list and a multi-hop
     spill chain is unchanged. *)
  let { dev; buddy; j } = mk () in
  let n = 200 in
  J.begin_tx j;
  let blocks = Array.init n (fun _ -> J.alloc j 64) in
  J.commit j;
  let live0 = Palloc.Heap_walk.live_count buddy in
  J.begin_tx j;
  Array.iter (fun b -> J.free j b) blocks;
  check_int "all drops recorded" n (J.drop_count j);
  J.commit j;
  check_int "all blocks reclaimed" (live0 - n)
    (Palloc.Heap_walk.live_count buddy);
  assert_intact buddy;
  (* Chain several spill regions on a single transaction, then abort. *)
  let len = 2048 in
  J.begin_tx j;
  let x = J.alloc j len in
  for w = 0 to (len / 8) - 1 do
    D.write_u64 dev (x + (w * 8)) (Int64.of_int w)
  done;
  D.persist dev x len;
  J.commit j;
  J.begin_tx j;
  for _ = 1 to 30 do
    J.data_log_nodedup j ~off:x ~len
  done;
  let spills = J.spill_count j in
  if spills < 2 then
    Alcotest.failf "expected a multi-hop spill chain, got %d regions" spills;
  D.fill dev x len '\xAB';
  J.abort j;
  check_i64 "spilled undo restored first word" 0L (D.read_u64 dev x);
  check_i64 "spilled undo restored last word"
    (Int64.of_int ((len / 8) - 1))
    (D.read_u64 dev (x + len - 8));
  check_int "spill regions reclaimed" 1 (Palloc.Heap_walk.live_count buddy);
  assert_intact buddy

let test_txnop_is_free () =
  let { dev; buddy = _; j } = mk () in
  let p0 = D.persist_points dev in
  J.begin_tx j;
  J.commit j;
  check_int "empty tx does not touch PM" p0 (D.persist_points dev)

let test_misuse () =
  let { dev = _; buddy = _; j } = mk () in
  Alcotest.check_raises "log outside tx" J.Not_in_transaction (fun () ->
      J.data_log j ~off:heap_base ~len:8);
  Alcotest.check_raises "alloc outside tx" J.Not_in_transaction (fun () ->
      ignore (J.alloc j 64));
  Alcotest.check_raises "free outside tx" J.Not_in_transaction (fun () ->
      J.free j heap_base);
  Alcotest.check_raises "commit outside tx" J.Not_in_transaction (fun () ->
      J.commit j);
  J.begin_tx j;
  Alcotest.match_raises "nested begin"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> J.begin_tx j);
  J.abort j

let test_spill_overflow () =
  (* An undo payload larger than the whole slot spills into the heap and
     still commits/aborts/recovers correctly. *)
  let { dev; buddy; j } = mk () in
  let len = 12 * 1024 in
  J.begin_tx j;
  let x = J.alloc j len in
  for w = 0 to (len / 8) - 1 do
    D.write_u64 dev (x + (w * 8)) (Int64.of_int w)
  done;
  D.persist dev x len;
  J.commit j;
  (* The slot's entry area holds one 12 kB log; the next two spill. *)
  J.begin_tx j;
  J.data_log_nodedup j ~off:x ~len;
  J.data_log_nodedup j ~off:x ~len;
  J.data_log_nodedup j ~off:x ~len;
  check_int "spill regions chained" 2 (J.spill_count j);
  (* scribble, then abort: the spilled payloads restore everything *)
  D.fill dev x len '\xAB';
  J.abort j;
  check_i64 "spilled undo restored word 0" 0L (D.read_u64 dev x);
  check_i64 "spilled undo restored last word"
    (Int64.of_int ((len / 8) - 1))
    (D.read_u64 dev (x + len - 8));
  check_int "spill blocks reclaimed" 1 (Palloc.Heap_walk.live_count buddy);
  assert_intact buddy

let test_spill_crash_sweep () =
  (* Crash a spilling transaction at every persist point; after recovery
     the data is whole and no spill block leaks. *)
  let len = 12 * 1024 in
  let points =
    let { dev; buddy = _; j } = mk () in
    J.begin_tx j;
    let x = J.alloc j len in
    D.persist dev x len;
    J.commit j;
    let p0 = D.persist_points dev in
    J.begin_tx j;
    J.data_log_nodedup j ~off:x ~len;
    J.data_log_nodedup j ~off:x ~len;
    D.fill dev x len '\xCD';
    J.commit j;
    D.persist_points dev - p0
  in
  for k = 1 to points do
    let { dev; buddy = _; j } = mk () in
    J.begin_tx j;
    let x = J.alloc j len in
    D.fill dev x len '\x11';
    D.persist dev x len;
    J.commit j;
    D.set_crash_countdown dev k;
    (match
       J.begin_tx j;
       J.data_log_nodedup j ~off:x ~len;
       J.data_log_nodedup j ~off:x ~len;
       D.fill dev x len '\xCD';
       J.commit j
     with
    | () -> D.set_crash_countdown dev 0
    | exception D.Crashed -> ());
    D.power_cycle dev;
    let buddy2, _, _ = reopen dev in
    assert_intact buddy2;
    check_int
      (Printf.sprintf "crash@%d: only the data block lives" k)
      1
      (Palloc.Heap_walk.live_count buddy2);
    let b = D.read_u8 dev x in
    Alcotest.(check bool)
      (Printf.sprintf "crash@%d: data whole" k)
      true
      (b = 0x11 || b = 0xCD)
  done

let test_journal_full_when_heap_exhausted () =
  (* With the heap fully allocated, a spill cannot be chained and the
     journal reports Journal_full; the transaction still aborts cleanly. *)
  let { dev; buddy; j } = mk () in
  J.begin_tx j;
  (* eat the whole heap except one small block *)
  let keep = J.alloc j 64 in
  D.write_u64 dev keep 5L;
  D.persist dev keep 8;
  let rec gobble acc =
    match B.alloc buddy (64 * 1024) with
    | off -> gobble (off :: acc)
    | exception B.Out_of_pmem -> acc
  in
  let hogs = gobble [] in
  let rec gobble_small acc =
    match B.alloc buddy 64 with
    | off -> gobble_small (off :: acc)
    | exception B.Out_of_pmem -> acc
  in
  let crumbs = gobble_small [] in
  (* now force enough log traffic to overflow the slot *)
  Alcotest.check_raises "journal full when heap cannot spill" J.Journal_full
    (fun () ->
      for i = 0 to 3 do
        ignore i;
        J.data_log_nodedup j ~off:keep ~len:8192
      done);
  J.abort j;
  List.iter (B.dealloc buddy) (hogs @ crumbs);
  assert_intact buddy

let test_recovery_idle_noop () =
  let { dev; buddy = _; j = _ } = mk () in
  D.power_cycle dev;
  let _, _, stats = reopen dev in
  check_int "nothing to do" 0 (stats.R.rolled_back + stats.R.completed)

(* --- The exhaustive crash sweep -------------------------------------- *)

(* Canonical transaction: modify x, allocate z, free y.  After a crash at
   any persist point and recovery, the heap must be in exactly the
   all-or-nothing state. *)

type probe = { x : int; y : int; z : int; points : int }

let old_v = 0xAAAAL
let new_v = 0xBBBBL
let z_v = 0xCCCCL

let setup_committed () =
  let ({ dev; buddy = _; j } as env) = mk () in
  J.begin_tx j;
  let x = J.alloc j 64 in
  D.write_u64 dev x old_v;
  D.persist dev x 8;
  let y = J.alloc j 64 in
  D.write_u64 dev y 7L;
  D.persist dev y 8;
  J.commit j;
  (env, x, y)

let canonical_tx { dev; buddy = _; j } x y =
  J.begin_tx j;
  J.data_log j ~off:x ~len:8;
  D.write_u64 dev x new_v;
  let z = J.alloc j 64 in
  D.write_u64 dev z z_v;
  D.persist dev z 8;
  J.free j y;
  J.commit j;
  z

let dry_run () =
  let env, x, y = setup_committed () in
  let p0 = D.persist_points env.dev in
  let z = canonical_tx env x y in
  { x; y; z; points = D.persist_points env.dev - p0 }

let check_state_after_recovery probe buddy dev tag =
  assert_intact buddy;
  let x_val = D.read_u64 dev probe.x in
  if x_val = old_v then begin
    (* Rolled back: y live, z dead. *)
    Alcotest.(check (option int))
      (tag ^ ": y still live in old state")
      (Some 64) (B.block_size buddy probe.y);
    Alcotest.(check (option int))
      (tag ^ ": z dead in old state")
      None (B.block_size buddy probe.z);
    check_int (tag ^ ": two live blocks") 2 (W.live_count buddy)
  end
  else if x_val = new_v then begin
    (* Committed: z live with durable contents, y freed. *)
    Alcotest.(check (option int))
      (tag ^ ": z live in new state")
      (Some 64) (B.block_size buddy probe.z);
    check_i64 (tag ^ ": z contents durable") z_v (D.read_u64 dev probe.z);
    Alcotest.(check (option int))
      (tag ^ ": y freed in new state")
      None (B.block_size buddy probe.y);
    check_int (tag ^ ": two live blocks") 2 (W.live_count buddy)
  end
  else Alcotest.failf "%s: torn value %Lx in x" tag x_val

let test_crash_sweep () =
  let probe = dry_run () in
  Alcotest.(check bool) "canonical tx has persist points" true (probe.points > 0);
  for k = 1 to probe.points do
    let env, x, y = setup_committed () in
    D.set_crash_countdown env.dev k;
    (match canonical_tx env x y with
    | _ -> Alcotest.failf "crash %d did not fire" k
    | exception D.Crashed -> ());
    D.power_cycle env.dev;
    let buddy2, _, _ = reopen env.dev in
    check_state_after_recovery probe buddy2 env.dev
      (Printf.sprintf "crash@%d" k);
    (* Recovery must be idempotent: run it again. *)
    let table = T.attach env.dev ~table_base ~heap_base ~heap_len in
    let _ = R.recover_slot env.dev table ~base:slot_base ~size:slot_size in
    let buddy3 = B.attach env.dev ~table_base ~heap_base ~heap_len in
    check_state_after_recovery probe buddy3 env.dev
      (Printf.sprintf "crash@%d (re-recovered)" k)
  done

(* Crash during recovery itself: schedule a second crash while recovering. *)
let test_crash_during_recovery () =
  let probe = dry_run () in
  (* First crash mid-transaction. *)
  let env, x, y = setup_committed () in
  D.set_crash_countdown env.dev 5;
  (match canonical_tx env x y with
  | _ -> Alcotest.fail "crash did not fire"
  | exception D.Crashed -> ());
  D.power_cycle env.dev;
  (* Now crash at every point of the recovery run, then recover fully. *)
  let table = T.attach env.dev ~table_base ~heap_base ~heap_len in
  let rec crash_recovery k =
    D.set_crash_countdown env.dev k;
    match R.recover_slot env.dev table ~base:slot_base ~size:slot_size with
    | _ ->
        D.set_crash_countdown env.dev 0;
        () (* recovery completed before the k-th point *)
    | exception D.Crashed ->
        D.power_cycle env.dev;
        crash_recovery (k + 1)
  in
  crash_recovery 1;
  let buddy2 = B.attach env.dev ~table_base ~heap_base ~heap_len in
  check_state_after_recovery probe buddy2 env.dev "crash-during-recovery"

(* Property: random transactions (writes to a set of committed cells with
   proper logging) are atomic under a crash at a random persist point. *)
let qcheck_random_tx_atomicity =
  let gen =
    QCheck.(
      pair (int_range 1 60)
        (list_of_size Gen.(int_range 1 8) (pair (int_bound 3) small_nat)))
  in
  QCheck.Test.make ~name:"random tx is atomic under crash" ~count:150 gen
    (fun (crash_at, writes) ->
      let { dev; buddy = _; j } = mk () in
      (* Four committed cells, each holding its index. *)
      J.begin_tx j;
      let cells =
        Array.init 4 (fun i ->
            let c = J.alloc j 64 in
            D.write_u64 dev c (Int64.of_int i);
            D.persist dev c 8;
            c)
      in
      J.commit j;
      let p0 = D.persist_points dev in
      ignore p0;
      D.set_crash_countdown dev crash_at;
      let crashed =
        match
          J.begin_tx j;
          List.iter
            (fun (cell, v) ->
              let off = cells.(cell) in
              J.data_log j ~off ~len:8;
              D.write_u64 dev off (Int64.of_int (1000 + v)))
            writes;
          J.commit j
        with
        | () ->
            D.set_crash_countdown dev 0;
            false
        | exception D.Crashed -> true
      in
      D.power_cycle dev;
      let buddy2, _, _ = reopen dev in
      (match W.check buddy2 with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report m);
      let committed_vals =
        let a = Array.init 4 Int64.of_int in
        List.iter
          (fun (cell, v) -> a.(cell) <- Int64.of_int (1000 + v))
          writes;
        a
      in
      let original_vals = Array.init 4 Int64.of_int in
      let now = Array.map (fun c -> D.read_u64 dev c) cells in
      ignore crashed;
      now = committed_vals || now = original_vals)

let () =
  Alcotest.run "pjournal"
    [
      ( "basics",
        [
          Alcotest.test_case "abort restores data" `Quick
            test_abort_restores_data;
          Alcotest.test_case "commit durable" `Quick test_commit_durable;
          Alcotest.test_case "unlogged write lost" `Quick
            test_unlogged_write_lost_without_commit;
          Alcotest.test_case "txnop is PM-free" `Quick test_txnop_is_free;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "line-granularity dedup" `Quick test_line_dedup;
          Alcotest.test_case "N-entry tx costs N+2 fences" `Quick
            test_fence_budget;
          Alcotest.test_case "commit flushes unique lines once" `Quick
            test_commit_flushes_unique_lines;
        ] );
      ( "alloc/free",
        [
          Alcotest.test_case "alloc rolled back on abort" `Quick
            test_alloc_rolled_back_on_abort;
          Alcotest.test_case "alloc rolled back on crash" `Quick
            test_alloc_rolled_back_on_crash;
          Alcotest.test_case "free deferred to commit" `Quick
            test_free_is_deferred;
          Alcotest.test_case "free discarded on abort" `Quick
            test_free_discarded_on_abort;
          Alcotest.test_case "double drop rejected" `Quick
            test_double_drop_rejected;
          Alcotest.test_case "drop of dead block rejected" `Quick
            test_drop_of_dead_block_rejected;
        ] );
      ( "misuse",
        [
          Alcotest.test_case "operations outside tx" `Quick test_misuse;
          Alcotest.test_case "journal full when heap exhausted" `Quick
            test_journal_full_when_heap_exhausted;
        ] );
      ( "spill",
        [
          Alcotest.test_case "overflow + abort" `Quick test_spill_overflow;
          Alcotest.test_case "many spills and drops" `Quick
            test_many_spills_and_drops;
          Alcotest.test_case "exhaustive crash sweep" `Slow
            test_spill_crash_sweep;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "idle slot no-op" `Quick test_recovery_idle_noop;
          Alcotest.test_case "exhaustive crash sweep" `Slow test_crash_sweep;
          Alcotest.test_case "crash during recovery" `Quick
            test_crash_during_recovery;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_random_tx_atomicity;
        ] );
    ]
