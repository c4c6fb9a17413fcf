(* Tests for the crash-consistent buddy allocator: allocation, splitting,
   merging, the reserve/commit protocol, rebuild-from-table, and heap
   integrity under randomized workloads. *)

module D = Pmem.Device
module B = Palloc.Buddy
module T = Palloc.Alloc_table
module W = Palloc.Heap_walk

let heap_len = 64 * 1024
let table_base = 0
let heap_base = T.table_bytes ~heap_len (* table first, heap right after *)

let mk () =
  let dev = D.create ~size:(heap_base + heap_len) () in
  (dev, B.create dev ~table_base ~heap_base ~heap_len)

let check_int = Alcotest.(check int)

let assert_intact buddy =
  match W.check buddy with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "heap integrity violated: %s" msg

let test_orders () =
  check_int "64B is order 0" 0 (B.order_of_size 64);
  check_int "1B is order 0" 0 (B.order_of_size 1);
  check_int "65B is order 1" 1 (B.order_of_size 65);
  check_int "128B is order 1" 1 (B.order_of_size 128);
  check_int "4kB is order 6" 6 (B.order_of_size 4096);
  check_int "size of order 3" 512 (B.size_of_order 3);
  Alcotest.match_raises "non-positive size"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (B.order_of_size 0))

let test_alloc_basic () =
  let _, buddy = mk () in
  check_int "fresh heap fully free" heap_len (B.free_bytes buddy);
  let off = B.alloc buddy 64 in
  Alcotest.(check bool) "block in heap" true (off >= heap_base);
  check_int "aligned" 0 (off mod 64);
  check_int "block size" 64 (Option.get (B.block_size buddy off));
  check_int "used" 64 (B.used_bytes buddy);
  assert_intact buddy;
  B.dealloc buddy off;
  check_int "all free again" heap_len (B.free_bytes buddy);
  assert_intact buddy

let test_rounding_to_block () =
  let _, buddy = mk () in
  let off = B.alloc buddy 100 in
  check_int "100B rounds to 128" 128 (Option.get (B.block_size buddy off))

let test_distinct_blocks () =
  let _, buddy = mk () in
  let offs = List.init 32 (fun _ -> B.alloc buddy 64) in
  let sorted = List.sort_uniq compare offs in
  check_int "all distinct" 32 (List.length sorted);
  assert_intact buddy

let test_exhaustion () =
  let _, buddy = mk () in
  (* The whole heap as min blocks. *)
  let n = heap_len / 64 in
  let offs = List.init n (fun _ -> B.alloc buddy 64) in
  check_int "zero free" 0 (B.free_bytes buddy);
  Alcotest.check_raises "exhausted" B.Out_of_pmem (fun () ->
      ignore (B.alloc buddy 64));
  List.iter (B.dealloc buddy) offs;
  check_int "all free after frees" heap_len (B.free_bytes buddy);
  assert_intact buddy

let test_merge_restores_max_block () =
  let _, buddy = mk () in
  let n = heap_len / 64 in
  let offs = List.init n (fun _ -> B.alloc buddy 64) in
  List.iter (B.dealloc buddy) offs;
  (* After full merge we must be able to take the largest block again. *)
  let off = B.alloc buddy heap_len in
  check_int "max block allocatable" heap_len (Option.get (B.block_size buddy off));
  assert_intact buddy

let test_oversized_alloc () =
  let _, buddy = mk () in
  Alcotest.check_raises "oversized" B.Out_of_pmem (fun () ->
      ignore (B.alloc buddy (2 * heap_len)))

let test_double_free () =
  let _, buddy = mk () in
  let off = B.alloc buddy 64 in
  B.dealloc buddy off;
  Alcotest.check_raises "double free" (B.Invalid_free off) (fun () ->
      B.dealloc buddy off)

let test_wild_free () =
  let _, buddy = mk () in
  let off = B.alloc buddy 256 in
  Alcotest.check_raises "interior free" (B.Invalid_free (off + 64)) (fun () ->
      B.dealloc buddy (off + 64));
  Alcotest.match_raises "unaligned free"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> B.dealloc buddy (off + 1))

let test_reserve_cancel () =
  let _, buddy = mk () in
  let free0 = B.free_bytes buddy in
  let r = B.reserve buddy 4096 in
  check_int "reserved space removed" (free0 - 4096) (B.free_bytes buddy);
  (* Not committed: the table knows nothing. *)
  check_int "nothing allocated durably" 0 (W.live_count buddy);
  B.cancel buddy r;
  check_int "cancel restores space" free0 (B.free_bytes buddy);
  assert_intact buddy

let test_reserve_commit () =
  let _, buddy = mk () in
  let r = B.reserve buddy 128 in
  B.commit buddy r;
  check_int "one live block" 1 (W.live_count buddy);
  let off = B.offset_of_reservation buddy r in
  check_int "live size" 128 (Option.get (B.block_size buddy off));
  assert_intact buddy

let test_dealloc_if_live_idempotent () =
  let _, buddy = mk () in
  let off = B.alloc buddy 64 in
  B.dealloc_if_live buddy off;
  B.dealloc_if_live buddy off (* second call is a no-op *);
  check_int "free" heap_len (B.free_bytes buddy);
  assert_intact buddy

let test_attach_rebuilds () =
  let dev, buddy = mk () in
  let keep = B.alloc buddy 256 in
  let tmp = B.alloc buddy 64 in
  B.dealloc buddy tmp;
  (* A restart: volatile free lists are rebuilt from the table. *)
  D.power_cycle dev;
  let buddy2 = B.attach dev ~table_base ~heap_base ~heap_len in
  check_int "used space preserved" 256 (B.used_bytes buddy2);
  check_int "kept block survives" 256 (Option.get (B.block_size buddy2 keep));
  assert_intact buddy2;
  (* The surviving block can be freed and the heap fully recovered. *)
  B.dealloc buddy2 keep;
  let off = B.alloc buddy2 heap_len in
  check_int "max block after rebuild" heap_len
    (Option.get (B.block_size buddy2 off))

let test_unpersisted_reserve_invisible_after_crash () =
  let dev, buddy = mk () in
  let r = B.reserve buddy 64 in
  ignore r (* crash before commit: reservation is purely volatile *);
  D.power_cycle dev;
  let buddy2 = B.attach dev ~table_base ~heap_base ~heap_len in
  check_int "no leak" 0 (W.live_count buddy2);
  check_int "all free" heap_len (B.free_bytes buddy2)

let test_live_blocks_walk () =
  let _, buddy = mk () in
  let a = B.alloc buddy 64 in
  let b = B.alloc buddy 4096 in
  let blocks = W.live_blocks buddy in
  check_int "two blocks" 2 (List.length blocks);
  let find off = List.find (fun (bl : W.block) -> bl.off = off) blocks in
  check_int "sizes recorded" 64 (find a).W.size;
  check_int "sizes recorded" 4096 (find b).W.size;
  check_int "live bytes" (64 + 4096) (W.live_bytes buddy)

let test_report () =
  let _, buddy = mk () in
  let r0 = W.report buddy in
  check_int "fresh heap no live blocks" 0 r0.W.blocks;
  Alcotest.(check (float 0.001)) "no fragmentation" 0.0 r0.W.fragmentation;
  ignore (B.alloc buddy 64);
  let r1 = W.report buddy in
  Alcotest.(check bool) "fragmented now" true (r1.W.fragmentation > 0.0)

let test_alloc_charges_steps () =
  let dev, buddy = mk () in
  let s0 = (D.stats dev).D.alloc_steps in
  (* Allocating the min block from a pristine max block must split all the
     way down. *)
  ignore (B.alloc buddy 64);
  let s1 = (D.stats dev).D.alloc_steps in
  check_int "splits charged" (B.max_order buddy + 1) (s1 - s0)

(* --- striped arenas (the paper's per-thread allocators) ---------------- *)

let mk_striped n =
  let dev = D.create ~size:(heap_base + heap_len) () in
  (dev, B.create ~stripes:n dev ~table_base ~heap_base ~heap_len)

let test_stripes_basic () =
  let _, buddy = mk_striped 4 in
  check_int "stripe count" 4 (B.stripes buddy);
  check_int "fully free" heap_len (B.free_bytes buddy);
  (* hints place allocations in distinct regions *)
  let a = B.alloc ~hint:0 buddy 64 in
  let b = B.alloc ~hint:1 buddy 64 in
  let c = B.alloc ~hint:2 buddy 64 in
  let span = heap_len / 4 in
  Alcotest.(check bool) "hint 0 in stripe 0" true (a - heap_base < span);
  Alcotest.(check bool) "hint 1 in stripe 1" true
    (b - heap_base >= span && b - heap_base < 2 * span);
  Alcotest.(check bool) "hint 2 in stripe 2" true
    (c - heap_base >= 2 * span && c - heap_base < 3 * span);
  assert_intact buddy;
  B.dealloc buddy a;
  B.dealloc buddy b;
  B.dealloc buddy c;
  check_int "all free again" heap_len (B.free_bytes buddy);
  assert_intact buddy

let test_stripes_steal_under_pressure () =
  let _, buddy = mk_striped 4 in
  let span_bytes = heap_len / 4 in
  (* exhaust stripe 0 *)
  let hogs = List.init (span_bytes / 64) (fun _ -> B.alloc ~hint:0 buddy 64) in
  (* further hint-0 allocations must steal from other stripes, not fail *)
  let stolen = B.alloc ~hint:0 buddy 64 in
  Alcotest.(check bool) "stolen from another stripe" true
    (stolen - heap_base >= span_bytes);
  assert_intact buddy;
  List.iter (B.dealloc buddy) (stolen :: hogs);
  assert_intact buddy

let test_stripes_cap_block_size () =
  let _, buddy = mk_striped 4 in
  (* the largest block is one stripe's span *)
  let off = B.alloc buddy (heap_len / 4) in
  check_int "span-sized block" (heap_len / 4) (Option.get (B.block_size buddy off));
  Alcotest.check_raises "larger than a stripe" B.Out_of_pmem (fun () ->
      ignore (B.alloc buddy (heap_len / 2)))

let test_stripes_parallel_domains () =
  let _, buddy = mk_striped 4 in
  let worker i () =
    let offs = ref [] in
    for _ = 1 to 100 do
      offs := B.alloc ~hint:i buddy 64 :: !offs
    done;
    List.iter (B.dealloc buddy) !offs
  in
  let ds = List.init 4 (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  check_int "all returned" heap_len (B.free_bytes buddy);
  assert_intact buddy

(* A hint outside [0, stripes) picks stripe [hint mod stripes], taken
   non-negative, and the steal walk from it never overflows. *)
let test_stripes_extreme_hints () =
  let _, buddy = mk_striped 4 in
  let span = heap_len / 4 in
  let stripe off = (off - heap_base) / span in
  check_int "hint -1 is the last stripe" 3 (stripe (B.alloc ~hint:(-1) buddy 64));
  check_int "hint max_int" (max_int mod 4) (stripe (B.alloc ~hint:max_int buddy 64));
  check_int "hint min_int" 0 (stripe (B.alloc ~hint:min_int buddy 64));
  (* fill the rest of stripe 3, so both hints must steal *)
  let rec fill acc =
    match B.alloc ~hint:(-1) buddy 64 with
    | off when stripe off = 3 -> fill (off :: acc)
    | off -> List.rev (off :: acc)
  in
  let offs = fill [] in
  check_int "first steal leaves stripe 3" 0 (stripe (List.nth offs (List.length offs - 1)));
  check_int "max_int steals too" 0 (stripe (B.alloc ~hint:max_int buddy 64));
  assert_intact buddy

(* [Heap_walk.check] names the lowest offending index. *)
let test_check_open_reservation () =
  let _, buddy = mk () in
  ignore (B.alloc buddy 64);
  let r = B.reserve buddy 64 in
  let idx = T.index_of_offset (B.table buddy) (B.offset_of_reservation buddy r) in
  check_int "second block" 1 idx;
  Alcotest.(check (result unit string))
    "open reservation" (Error "index 1 is neither free nor allocated") (W.check buddy)

let test_check_mark_on_free_block () =
  let _, buddy = mk () in
  ignore (B.alloc buddy 64);
  (* blocks 1 (order 0), 2 (order 1) and 4 (order 2) are free heads *)
  T.mark (B.table buddy) ~idx:4 ~order:2;
  Alcotest.(check (result unit string))
    "mark over a free block" (Error "blocks overlap at index 4") (W.check buddy)

let test_check_bad_blocks () =
  let expect what idx order =
    let _, buddy = mk () in
    T.mark (B.table buddy) ~idx ~order;
    Alcotest.(check (result unit string)) what (Error what) (W.check buddy)
  in
  expect "block 1 at order 1 is misaligned" 1 1;
  expect "block 0 at order 11 overflows the heap" 0 11

let qcheck_striped_random_ops =
  let gen =
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_bound 60)
           (triple bool (int_range 1 4096) (int_bound 7))))
  in
  QCheck.Test.make ~name:"striped alloc/free keeps heap intact" ~count:150 gen
    (fun (nstripes, ops) ->
      let _, buddy = mk_striped nstripes in
      let live = ref [] in
      List.iter
        (fun (is_alloc, size, hint) ->
          if is_alloc || !live = [] then (
            match B.alloc ~hint buddy size with
            | off -> live := off :: !live
            | exception B.Out_of_pmem -> ())
          else
            match !live with
            | off :: rest ->
                B.dealloc buddy off;
                live := rest
            | [] -> ())
        ops;
      match W.check buddy with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* Property: any interleaving of allocs and frees keeps the heap intact and
   the accounting exact. *)
let qcheck_random_ops =
  let gen =
    QCheck.(list_of_size Gen.(int_bound 60) (pair bool (int_range 1 8192)))
  in
  QCheck.Test.make ~name:"random alloc/free keeps heap intact" ~count:200 gen
    (fun ops ->
      let _, buddy = mk () in
      let live = ref [] in
      List.iter
        (fun (is_alloc, size) ->
          if is_alloc || !live = [] then (
            match B.alloc buddy size with
            | off -> live := (off, size) :: !live
            | exception B.Out_of_pmem -> ())
          else
            match !live with
            | (off, _) :: rest ->
                B.dealloc buddy off;
                live := rest
            | [] -> ())
        ops;
      (match W.check buddy with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_report msg);
      (* Every live block must still be resolvable with enough room. *)
      List.for_all
        (fun (off, size) ->
          match B.block_size buddy off with
          | Some bs -> bs >= size
          | None -> false)
        !live)

(* Property: the volatile free lists rebuilt after a restart are equivalent
   to the pre-restart state (same free byte count, intact heap). *)
let qcheck_rebuild_equiv =
  let gen = QCheck.(list_of_size Gen.(int_bound 40) (int_range 1 4096)) in
  QCheck.Test.make ~name:"attach after restart preserves accounting" ~count:100
    gen (fun sizes ->
      let dev, buddy = mk () in
      let offs =
        List.filter_map
          (fun s ->
            match B.alloc buddy s with
            | off -> Some off
            | exception B.Out_of_pmem -> None)
          sizes
      in
      (* free every other block to create fragmentation *)
      List.iteri (fun i off -> if i mod 2 = 0 then B.dealloc buddy off) offs;
      let free_before = B.free_bytes buddy in
      D.power_cycle dev;
      let buddy2 = B.attach dev ~table_base ~heap_base ~heap_len in
      (match W.check buddy2 with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_report msg);
      B.free_bytes buddy2 = free_before)

(* Property: after any program of allocs, frees (durable or dirty-only),
   reserve+cancel pairs and rebuilds, with no reservation left open, the
   incrementally maintained free lists hold the same blocks as a fresh
   attach on the same device, stripe by stripe.  Checked after every
   step, with mostly small blocks, so a stale free-head position shows
   before a later merge hides it. *)
let qcheck_incremental_equals_rebuilt =
  let gen =
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_bound 200)
           (quad (int_bound 9)
              (frequency [ (3, int_range 1 256); (1, int_range 1 4096) ])
              (int_bound 7) bool)))
  in
  let free_set buddy =
    List.sort compare
      (B.fold_free buddy ~init:[] ~f:(fun acc ~idx ~order -> (idx, order) :: acc))
  in
  let stripe_view buddy =
    Array.map (fun s -> (s.B.ss_free_bytes, s.B.ss_depths)) (B.stripe_stats buddy)
  in
  QCheck.Test.make ~name:"incremental free lists equal a rebuild" ~count:300
    gen (fun (nstripes, ops) ->
      let dev, buddy = mk_striped nstripes in
      let live = ref [] in
      List.for_all
        (fun (kind, size, hint, durable) ->
          (match kind with
          | 0 | 1 | 2 | 3 -> (
              match B.alloc ~hint buddy size with
              | off -> live := off :: !live
              | exception B.Out_of_pmem -> ())
          | 4 | 5 | 6 -> (
              match !live with
              | [] -> ()
              | l ->
                  let off = List.nth l (size mod List.length l) in
                  B.dealloc ~durable buddy off;
                  live := List.filter (( <> ) off) l)
          | 7 | 8 -> (
              match B.reserve ~hint buddy size with
              | r -> B.cancel buddy r
              | exception B.Out_of_pmem -> ())
          | _ -> B.rebuild buddy);
          let fresh = B.attach ~stripes:nstripes dev ~table_base ~heap_base ~heap_len in
          free_set buddy = free_set fresh && stripe_view buddy = stripe_view fresh)
        ops)

(* [Buddy.attach] allocates host state by free heads, not heap size: on
   an empty heap with 8 stripes (one free head each) it allocates about
   1,400 words at 16 MiB and at 256 MiB.  Per-block arrays would cost
   9 B per 64-byte block: 4.7 M words at 256 MiB. *)
let test_attach_allocation_bound () =
  let attach_words heap_len =
    let heap_base = T.table_bytes ~heap_len in
    let dev = D.create ~size:(heap_base + heap_len) () in
    ignore (B.create ~stripes:8 dev ~table_base ~heap_base ~heap_len);
    (* [Gc.counters]' minor count lags; [Gc.minor_words] does not. *)
    let words () =
      let _, promoted, major = Gc.counters () in
      Gc.minor_words () +. major -. promoted
    in
    let w0 = words () in
    ignore (Sys.opaque_identity (B.attach ~stripes:8 dev ~table_base ~heap_base ~heap_len));
    words () -. w0
  in
  let small = attach_words (16 lsl 20) and large = attach_words (256 lsl 20) in
  if small > 10_000. || large > 10_000. then
    Alcotest.failf "attach allocated %.0f words at 16 MiB, %.0f at 256 MiB" small large;
  if large > small +. 1_000. then
    Alcotest.failf "attach grows with the heap: %.0f words at 16 MiB, %.0f at 256 MiB"
      small large

(* [Int_pairs] against a list of pairs: keys collide and repeat, the
   table grows past its initial size and shrinks at a clear, and removal
   shifts probe runs back.  [find], [replace] and [remove] all take the
   first entry of a key's run, so the model edits the pair [find]
   named. *)
let qcheck_int_pairs =
  let module IP = Palloc.Int_pairs in
  let key = QCheck.(map (fun k -> k * 4096) (int_bound 40)) in
  QCheck.Test.make ~name:"Int_pairs matches a pair list" ~count:300
    QCheck.(
      list_of_size Gen.(int_bound 200)
        (frequency
           [
             (6, map (fun (k, v) -> `Add (k, v)) (pair key (int_bound 3)));
             (3, map (fun k -> `Remove k) key);
             (2, map (fun (k, v) -> `Replace (k, v)) (pair key (int_bound 3)));
             (1, always `Clear);
           ]))
    (fun ops ->
      let t = IP.create () and model = ref [] in
      let rec drop p = function
        | [] -> []
        | q :: rest -> if q = p then rest else q :: drop p rest
      in
      let agrees () =
        List.for_all
          (fun i ->
            let k = i * 4096 in
            let v = IP.find t k in
            (if v = -1 then not (List.mem_assoc k !model)
             else List.mem (k, v) !model)
            && List.for_all
                 (fun v -> IP.mem t k v = List.mem (k, v) !model)
                 [ 0; 1; 2; 3 ])
          (List.init 41 Fun.id)
      in
      List.for_all
        (fun op ->
          (match op with
          | `Add (k, v) ->
              IP.add t k v;
              model := (k, v) :: !model
          | `Replace (k, v) -> (
              match IP.find t k with
              | -1 ->
                  Alcotest.check_raises "replace of an absent key" Not_found
                    (fun () -> IP.replace t k v)
              | old ->
                  IP.replace t k v;
                  model := (k, v) :: drop (k, old) !model)
          | `Remove k ->
              let v = IP.find t k in
              IP.remove t k;
              if v <> -1 then model := drop (k, v) !model
          | `Clear ->
              IP.clear t;
              model := []);
          agrees ())
        ops)

(* {1 Line-granular table walk} *)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* The byte-at-a-time walk that [Alloc_table.iter_allocated] replaced,
   kept as the reference: one table byte per visited index. *)
let byte_walk tbl =
  let rec go idx acc =
    if idx >= Bytes.length tbl then List.rev acc
    else
      match Char.code (Bytes.get tbl idx) with
      | 0 -> go (idx + 1) acc
      | b -> go (idx + (1 lsl (b - 1))) ((idx, b - 1) :: acc)
  in
  go 0 []

(* The free lists one walk of the whole table carves from [heads] for
   an allocator of [stripes] stripes: each gap split at stripe starts
   into maximal aligned blocks no larger than a stripe's span. *)
let ref_free ?(stripes = 1) heads nblocks =
  let span = if stripes = 1 then nblocks else 1 lsl log2 (nblocks / stripes) in
  let max_order = log2 span in
  let stripe_end lo =
    if lo / span >= stripes - 1 then nblocks else ((lo / span) + 1) * span
  in
  let rec carve lo hi acc =
    if lo >= hi then acc
    else
      let by_align = if lo = 0 then max_order else log2 (lo land -lo) in
      let by_len = log2 (min hi (stripe_end lo) - lo) in
      let order = min max_order (min by_align by_len) in
      carve (lo + (1 lsl order)) hi ((lo, order) :: acc)
  in
  let cursor, acc =
    List.fold_left
      (fun (cur, acc) (idx, order) -> (idx + (1 lsl order), carve cur idx acc))
      (0, []) heads
  in
  List.sort compare (carve cursor nblocks acc)

(* A random table of [nblocks] entries whose entry 0 sits at device
   offset [table_base]: free gaps, aligned heads of order 0..[max_order]
   (half of them with garbage interior bytes), and order-0 heads on the
   last byte of a device line. *)
let random_table ?(max_order = 6) rng ~table_base nblocks =
  let tbl = Bytes.make nblocks '\000' in
  let rec fill idx =
    if idx < nblocks then
      match Random.State.int rng 4 with
      | 0 -> fill (idx + 1 + Random.State.int rng 80)
      | 1 ->
          let last = idx + (63 - ((table_base + idx) land 63)) in
          if last < nblocks then begin
            Bytes.set tbl last '\001';
            fill (last + 1)
          end
      | _ ->
          let want = Random.State.int rng (max_order + 1) in
          let order = if idx = 0 then want else min want (log2 (idx land -idx)) in
          let rec fit o = if idx + (1 lsl o) <= nblocks then o else fit (o - 1) in
          let order = fit order in
          Bytes.set tbl idx (Char.chr (order + 1));
          if Random.State.bool rng then
            for i = idx + 1 to idx + (1 lsl order) - 1 do
              Bytes.set tbl i (Char.chr (Random.State.int rng 256))
            done;
          fill (idx + (1 lsl order))
  in
  fill 0;
  tbl

(* A device holding [tbl] at [table_base], its heap on the next line.
   The bytes around the table that share its first and last lines are
   garbage, so a walk that reads past either end shows. *)
let table_device ~table_base tbl =
  let nblocks = Bytes.length tbl in
  let heap_base = (table_base + nblocks + 63) land lnot 63 in
  let heap_len = nblocks * T.min_block in
  let dev = D.create ~size:(heap_base + heap_len) () in
  D.fill dev 0 heap_base '\255';
  D.write_bytes dev table_base tbl;
  (dev, heap_base, heap_len)

let lines_of nblocks = (nblocks + 63) / 64

let qcheck_line_walk_equiv =
  let gen = QCheck.(triple (int_bound 127) (int_range 1 1000) int) in
  QCheck.Test.make ~name:"line walk visits the byte walk's heads" ~count:300 gen
    (fun (table_base, nblocks, seed) ->
      let tbl = random_table (Random.State.make [| seed |]) ~table_base nblocks in
      let dev, heap_base, heap_len = table_device ~table_base tbl in
      let heads = byte_walk tbl in
      let walked = ref [] and loads0 = (D.stats dev).D.loads in
      T.iter_allocated (T.attach dev ~table_base ~heap_base ~heap_len)
        (fun ~idx ~order -> walked := (idx, order) :: !walked);
      let loads = (D.stats dev).D.loads - loads0 in
      if List.rev !walked <> heads then QCheck.Test.fail_report "heads differ";
      if loads > lines_of nblocks + 1 then
        QCheck.Test.fail_reportf "%d loads for %d table bytes" loads nblocks;
      let buddy = B.attach dev ~table_base ~heap_base ~heap_len in
      let free =
        B.fold_free buddy ~init:[] ~f:(fun acc ~idx ~order -> (idx, order) :: acc)
      in
      List.sort compare free = ref_free heads nblocks)

let loads_of dev f =
  let l0 = (D.stats dev).D.loads in
  f ();
  (D.stats dev).D.loads - l0

(* Known answers for the lazy stripe builds: [Buddy.attach] loads no
   table byte, and a stripe's first use loads each line of its own table
   slice once — at most ceil(bytes / 64) + 1 for a slice straddling
   lines — plus one byte per candidate head below the stripe that a
   block from a coarser striping could start at. *)
let test_attach_load_bound () =
  let table_base = 32 and nblocks = 512 in
  let first_use_loads ?(stripes = 1) ?(hint = 0) tbl =
    let dev, heap_base, heap_len = table_device ~table_base tbl in
    let buddy = ref None in
    check_int "attach loads nothing" 0
      (loads_of dev (fun () ->
           buddy := Some (B.attach ~stripes dev ~table_base ~heap_base ~heap_len)));
    let buddy = Option.get !buddy in
    loads_of dev (fun () ->
        match B.reserve ~hint buddy 64 with
        | r -> B.cancel buddy r
        | exception B.Out_of_pmem -> ())
  in
  check_int "bound" 9 (lines_of nblocks + 1);
  check_int "empty table: every line once" 9
    (first_use_loads (Bytes.make nblocks '\000'));
  check_int "dense order-0 heads: every line once" 9
    (first_use_loads (Bytes.make nblocks '\001'));
  let whole = Bytes.make nblocks '\255' in
  Bytes.set whole 0 (Char.chr (log2 nblocks + 1));
  check_int "one block over the heap: its head line only" 1 (first_use_loads whole);
  (* 8 stripes of 64 entries, each slice across 2 lines; stripe k's
     candidate heads are k*64 rounded down to 128, 256 and 512 *)
  let empty = Bytes.make nblocks '\000' in
  check_int "stripe 0: its 2 lines, no candidates" 2 (first_use_loads ~stripes:8 empty);
  check_int "stripe 3: its 2 lines, candidates 0 and 128" 4
    (first_use_loads ~stripes:8 ~hint:3 empty);
  check_int "stripe 7: its 2 lines, candidates 0, 256 and 384" 5
    (first_use_loads ~stripes:8 ~hint:7 empty);
  (* an order-8 block at 256, written by a coarser striping, covers
     stripes 4 to 7: stripe 7's build loads candidates 0 and 256 and
     none of its lines; the reserve then steals from stripe 0 *)
  let wide = Bytes.make nblocks '\000' in
  Bytes.set wide 256 (Char.chr 9);
  check_int "stripe 7 inside a wider block, then stripe 0" (2 + 2)
    (first_use_loads ~stripes:8 ~hint:7 wide)

(* A head byte whose order overflows the block-size shift (0x40, 0x80
   and 0xC0 make [1 lsl order] zero, 0x3F and 0xFF negative) is
   rejected by the walk, naming the block, instead of looping forever or
   loading at a negative offset.  Attach reads no table byte, so the
   allocator reports it at the first use of the block's stripe: its
   first [fold_free] or [reserve], and every later one. *)
let test_attach_rejects_wrapped_order () =
  let table_base = 32 and nblocks = 512 in
  List.iter
    (fun b ->
      let tbl = Bytes.make nblocks '\000' in
      Bytes.set tbl 100 (Char.chr b);
      let dev, heap_base, heap_len = table_device ~table_base tbl in
      let err =
        Invalid_argument
          (Printf.sprintf "Alloc_table.iter_allocated: block 100 has order %d" (b - 1))
      in
      let name what = Printf.sprintf "%s of 0x%02X" what b in
      Alcotest.check_raises (name "walk") err (fun () ->
          T.iter_allocated (T.attach dev ~table_base ~heap_base ~heap_len)
            (fun ~idx:_ ~order:_ -> ()));
      let buddy = B.attach dev ~table_base ~heap_base ~heap_len in
      Alcotest.check_raises (name "fold_free") err (fun () ->
          ignore (B.fold_free buddy ~init:() ~f:(fun () ~idx:_ ~order:_ -> ())));
      Alcotest.check_raises (name "reserve after fold_free") err (fun () ->
          ignore (B.reserve buddy 64));
      (* block 100 is in stripe 1 of 8: stripe 0 serves a reserve *)
      let striped = B.attach ~stripes:8 dev ~table_base ~heap_base ~heap_len in
      B.cancel striped (B.reserve ~hint:0 striped 64);
      Alcotest.check_raises (name "reserve in stripe 1") err (fun () ->
          ignore (B.reserve ~hint:1 striped 64)))
    [ 0x3F; 0x40; 0x80; 0xC0; 0xFF ]

let free_set buddy =
  List.sort compare
    (B.fold_free buddy ~init:[] ~f:(fun acc ~idx ~order -> (idx, order) :: acc))

(* The free set one whole-table walk carves from the device's table now. *)
let table_ref_free ~stripes dev ~table_base nblocks =
  ref_free ~stripes (byte_walk (D.read_bytes dev table_base nblocks)) nblocks

(* Property: stripes built lazily — in any order, by any first operation
   — hold exactly the blocks one walk of the whole table carves.  The
   table is written without striping and attached with up to 16
   stripes, so blocks wider than a stripe cross stripe starts.  Stripes
   are first touched by reserve+cancel, by frees of live blocks
   (durable or not; only blocks with zero interiors, as the allocator
   writes them) and now and then by [fold_free] or [stripe_stats], which
   build every stripe. *)
let qcheck_lazy_build_equals_reference =
  let gen = QCheck.(quad (int_bound 127) (int_range 64 1024) (int_range 1 16) int) in
  QCheck.Test.make ~name:"lazy stripe builds equal a whole-table walk" ~count:300 gen
    (fun (table_base, nblocks, stripes, seed) ->
      (* shrinking may step outside the generator's ranges *)
      let table_base = abs table_base and nblocks = max 64 nblocks in
      let stripes = max 1 (min 16 stripes) in
      let rng = Random.State.make [| seed |] in
      let tbl = random_table ~max_order:(log2 nblocks) rng ~table_base nblocks in
      let dev, heap_base, heap_len = table_device ~table_base tbl in
      let buddy = B.attach ~stripes dev ~table_base ~heap_base ~heap_len in
      let zero_interior (idx, order) =
        let rec go i =
          i >= idx + (1 lsl order) || (Bytes.get tbl i = '\000' && go (i + 1))
        in
        go (idx + 1)
      in
      let live = ref (List.filter zero_interior (byte_walk tbl)) in
      for _ = 1 to 2 * stripes do
        match Random.State.int rng ((4 * stripes) + 2) with
        | 0 -> ignore (B.fold_free buddy ~init:() ~f:(fun () ~idx:_ ~order:_ -> ()))
        | 1 -> ignore (B.stripe_stats buddy)
        | k when k land 1 = 0 -> (
            let size = 64 lsl Random.State.int rng 4 in
            match B.reserve ~hint:(Random.State.int rng stripes) buddy size with
            | r -> B.cancel buddy r
            | exception B.Out_of_pmem -> ())
        | _ -> (
            match !live with
            | [] -> ()
            | l ->
                let idx, _ = List.nth l (Random.State.int rng (List.length l)) in
                B.dealloc ~durable:(Random.State.bool rng) buddy (heap_base + (idx * 64));
                live := List.filter (fun (i, _) -> i <> idx) l)
      done;
      let expect = table_ref_free ~stripes dev ~table_base nblocks in
      if free_set buddy <> expect then QCheck.Test.fail_report "free set differs";
      match W.check buddy with Ok () -> true | Error m -> QCheck.Test.fail_report m)

(* The same after [Cow_root.recover] edits table bytes behind an attached
   allocator: a mod-engine transaction crashes at each persist point in
   turn; the allocator attaches and builds stripe 0, the CoW recovery
   rolls the pending intent forward or back, and [rebuild] drops the
   built lists; the free set is then what one walk of the edited table
   carves. *)
let test_lazy_build_after_cow_recover () =
  let module E = Engines.Mod_engine in
  let module I = Corundum.Pool_inspect in
  let edited = ref 0 in
  for k = 1 to 40 do
    let eng = E.create ~latency:Pmem.Latency.zero ~size:(2 * 1024 * 1024) () in
    let swap v tx =
      let old = E.root tx in
      let o = E.alloc tx 64 in
      E.write tx o v;
      E.set_root tx o;
      if old <> 0 then E.free tx old
    in
    E.transaction eng (swap 7L);
    let dev = Corundum.Pool_impl.device (E.pool eng) in
    D.set_crash_countdown dev k;
    (match E.transaction eng (swap 8L) with
    | () -> D.set_crash_countdown dev 0
    | exception D.Crashed -> ());
    D.power_cycle dev;
    let info = I.inspect_device dev in
    let table_base = info.I.table_base and stripes = info.I.nslots in
    let buddy =
      B.attach ~stripes dev ~table_base ~heap_base:info.I.heap_base
        ~heap_len:info.I.heap_len
    in
    B.cancel buddy (B.reserve ~hint:0 buddy 64);
    let cst = Corundum.Cow_root.recover dev (B.table buddy) in
    if cst.Corundum.Cow_root.table_edited then begin
      incr edited;
      B.rebuild buddy
    end;
    let nblocks = T.nblocks (B.table buddy) in
    if free_set buddy <> table_ref_free ~stripes dev ~table_base nblocks then
      Alcotest.failf "crash point %d: free set differs from a whole-table walk" k;
    assert_intact buddy
  done;
  if !edited = 0 then Alcotest.fail "no crash point made the CoW recovery edit the table"

(* A free into a stripe that is not built yet, racing that stripe's
   first build: right after an attach, domain A frees blocks of stripe 1
   (highest first, so the build's walk reaches them last) while domain
   B's reserve builds it.  The clear is stored under the stripe lock, so
   each freed block is either inserted into built lists or found free
   by the build, never both. *)
let test_release_races_first_build () =
  let heap_len = 1 lsl 20 in
  let heap_base = T.table_bytes ~heap_len in
  let nblocks = heap_len / T.min_block in
  let half = nblocks / 2 in
  for round = 1 to 100 do
    let dev = D.create ~size:(heap_base + heap_len) () in
    let table = T.create dev ~table_base ~heap_base ~heap_len in
    (* every other block of stripe 1 allocated, so its build walks 4,096 heads *)
    for i = 0 to (half / 2) - 1 do
      T.mark table ~idx:(half + (2 * i)) ~order:0
    done;
    let buddy = B.attach ~stripes:2 dev ~table_base ~heap_base ~heap_len in
    let victims = List.init 64 (fun i -> nblocks - 2 - (2 * i)) in
    let go = Atomic.make false in
    let wait () = while not (Atomic.get go) do Domain.cpu_relax () done in
    let a =
      Domain.spawn (fun () ->
          wait ();
          List.iter
            (fun idx -> B.dealloc ~durable:false buddy (heap_base + (idx * 64)))
            victims)
    in
    let b =
      Domain.spawn (fun () ->
          wait ();
          B.reserve ~hint:1 buddy 64)
    in
    Atomic.set go true;
    Domain.join a;
    B.cancel buddy (Domain.join b);
    (match W.check buddy with
    | Ok () -> ()
    | Error m -> Alcotest.failf "round %d: %s" round m);
    if free_set buddy <> table_ref_free ~stripes:2 dev ~table_base nblocks then
      Alcotest.failf "round %d: free set differs from a whole-table walk" round
  done

let () =
  Alcotest.run "palloc_buddy"
    [
      ("orders", [ Alcotest.test_case "order arithmetic" `Quick test_orders ]);
      ( "alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "rounding" `Quick test_rounding_to_block;
          Alcotest.test_case "distinct blocks" `Quick test_distinct_blocks;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "merge restores max block" `Quick
            test_merge_restores_max_block;
          Alcotest.test_case "oversized" `Quick test_oversized_alloc;
          Alcotest.test_case "alloc charges split steps" `Quick
            test_alloc_charges_steps;
        ] );
      ( "free",
        [
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "wild free" `Quick test_wild_free;
          Alcotest.test_case "dealloc_if_live idempotent" `Quick
            test_dealloc_if_live_idempotent;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "reserve/cancel" `Quick test_reserve_cancel;
          Alcotest.test_case "reserve/commit" `Quick test_reserve_commit;
          Alcotest.test_case "uncommitted reservation invisible" `Quick
            test_unpersisted_reserve_invisible_after_crash;
        ] );
      ( "restart",
        [
          Alcotest.test_case "attach rebuilds" `Quick test_attach_rebuilds;
          Alcotest.test_case "attach load bound" `Quick test_attach_load_bound;
          Alcotest.test_case "lazy build after CoW recovery" `Quick
            test_lazy_build_after_cow_recover;
          Alcotest.test_case "free races a stripe's first build" `Slow
            test_release_races_first_build;
          Alcotest.test_case "wrapped order rejected" `Quick
            test_attach_rejects_wrapped_order;
          Alcotest.test_case "attach allocation bound" `Quick
            test_attach_allocation_bound;
        ] );
      ( "stripes",
        [
          Alcotest.test_case "hints place locally" `Quick test_stripes_basic;
          Alcotest.test_case "steal under pressure" `Quick
            test_stripes_steal_under_pressure;
          Alcotest.test_case "block size capped by span" `Quick
            test_stripes_cap_block_size;
          Alcotest.test_case "extreme hints" `Quick test_stripes_extreme_hints;
          Alcotest.test_case "parallel domains" `Slow
            test_stripes_parallel_domains;
          QCheck_alcotest.to_alcotest qcheck_striped_random_ops;
        ] );
      ( "walk",
        [
          Alcotest.test_case "live blocks" `Quick test_live_blocks_walk;
          Alcotest.test_case "report" `Quick test_report;
          Alcotest.test_case "open reservation is a hole" `Quick
            test_check_open_reservation;
          Alcotest.test_case "mark on a free block overlaps" `Quick
            test_check_mark_on_free_block;
          Alcotest.test_case "misaligned and overflowing blocks" `Quick
            test_check_bad_blocks;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_random_ops;
          QCheck_alcotest.to_alcotest qcheck_rebuild_equiv;
          QCheck_alcotest.to_alcotest qcheck_line_walk_equiv;
          QCheck_alcotest.to_alcotest qcheck_incremental_equals_rebuilt;
          QCheck_alcotest.to_alcotest qcheck_lazy_build_equals_reference;
          QCheck_alcotest.to_alcotest qcheck_int_pairs;
        ] );
    ]
