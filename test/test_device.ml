(* Tests for the simulated PM device: cache model, persistence primitives,
   crash semantics, file backing and accounting. *)

module D = Pmem.Device

let mk ?(size = 64 * 1024) ?latency ?path () = D.create ?latency ?path ~size ()

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let test_roundtrip () =
  let d = mk () in
  D.write_u8 d 0 0xAB;
  check_int "u8" 0xAB (D.read_u8 d 0);
  D.write_u32 d 4 0xDEADBEEF;
  check_int "u32" 0xDEADBEEF (D.read_u32 d 4);
  D.write_u64 d 8 0x1122334455667788L;
  check_i64 "u64" 0x1122334455667788L (D.read_u64 d 8);
  D.write_bytes d 100 (Bytes.of_string "hello");
  Alcotest.(check string) "bytes" "hello" (D.read_string d 100 5);
  D.write_string d 200 "world";
  Alcotest.(check string) "string" "world" (D.read_string d 200 5);
  D.fill d 300 10 'x';
  Alcotest.(check string) "fill" "xxxxxxxxxx" (D.read_string d 300 10);
  D.copy_within d ~src:100 ~dst:400 ~len:5;
  Alcotest.(check string) "copy_within" "hello" (D.read_string d 400 5);
  let buf = Bytes.make 8 '.' and loads0 = (D.stats d).D.loads in
  D.read_into d 100 buf 5;
  Alcotest.(check string) "read_into" "hello..." (Bytes.to_string buf);
  check_int "read_into is one load" 1 ((D.stats d).D.loads - loads0)

let test_bounds () =
  let d = mk ~size:128 () in
  let must_fail f =
    Alcotest.match_raises "out of range"
      (function Invalid_argument _ -> true | _ -> false)
      f
  in
  must_fail (fun () -> ignore (D.read_u8 d 128));
  must_fail (fun () -> ignore (D.read_u64 d 121));
  must_fail (fun () -> D.write_u8 d (-1) 0);
  must_fail (fun () -> D.write_u64 d 125 0L);
  must_fail (fun () -> ignore (D.read_bytes d 120 9));
  must_fail (fun () -> D.flush d 120 9);
  must_fail (fun () -> D.read_into d 60 (Bytes.create 8) 8);
  must_fail (fun () -> D.read_into d 0 (Bytes.create 4) 8);
  must_fail (fun () -> D.read_into d 124 (Bytes.create 8) 8)

let test_unflushed_lost () =
  let d = mk () in
  D.write_u64 d 0 42L;
  D.power_cycle d;
  check_i64 "unflushed store lost" 0L (D.read_u64 d 0)

let test_persist_durable () =
  let d = mk () in
  D.write_u64 d 0 42L;
  D.persist d 0 8;
  D.power_cycle d;
  check_i64 "persisted store survives" 42L (D.read_u64 d 0)

let test_flush_no_fence_uncertain () =
  let d = mk () in
  D.write_u64 d 0 42L;
  D.flush d 0 8;
  (* Flushed but unfenced: may or may not survive; must be one or other. *)
  D.power_cycle d;
  let v = D.read_u64 d 0 in
  Alcotest.(check bool) "flushed-unfenced is 0 or 42" true (v = 0L || v = 42L)

let test_snapshot_semantics () =
  (* clflushopt writes back the value at flush time; later stores to the
     same line are independent. *)
  let d = mk () in
  D.write_u64 d 0 1L;
  D.flush d 0 8;
  D.write_u64 d 0 2L;
  D.fence d;
  check_i64 "view sees latest" 2L (D.read_u64 d 0);
  D.power_cycle d;
  check_i64 "media has flush-time snapshot" 1L (D.read_u64 d 0)

let test_fence_only_drains_flushed () =
  let d = mk () in
  D.write_u64 d 0 7L;
  D.fence d;
  D.power_cycle d;
  check_i64 "fence without flush persists nothing" 0L (D.read_u64 d 0)

let test_crash_countdown () =
  let d = mk () in
  D.write_u64 d 0 9L;
  D.set_crash_countdown d 2;
  D.flush d 0 8;
  (* next persist point crashes *)
  Alcotest.check_raises "crashes at scheduled point" D.Crashed (fun () ->
      D.fence d);
  Alcotest.(check bool) "is_crashed" true (D.is_crashed d);
  Alcotest.check_raises "all ops fail after crash" D.Crashed (fun () ->
      ignore (D.read_u8 d 0));
  Alcotest.check_raises "stores fail after crash" D.Crashed (fun () ->
      D.write_u8 d 0 1);
  D.power_cycle d;
  let v = D.read_u64 d 0 in
  (* The flush happened, the fence did not: value is in-WPQ at crash. *)
  Alcotest.(check bool) "WPQ line randomly survives" true (v = 0L || v = 9L);
  (* device works again *)
  D.write_u64 d 8 1L;
  D.persist d 8 8

let test_crash_before_first_point () =
  let d = mk () in
  D.set_crash_countdown d 1;
  D.write_u64 d 0 5L;
  Alcotest.check_raises "crashes at first flush" D.Crashed (fun () ->
      D.flush d 0 8);
  D.power_cycle d;
  check_i64 "crashing flush has no effect" 0L (D.read_u64 d 0)

let test_persist_points_counter () =
  let d = mk () in
  let p0 = D.persist_points d in
  D.write_u64 d 0 1L;
  D.persist d 0 8;
  check_int "two persist points per persist" (p0 + 2) (D.persist_points d)

(* A seeded script whose write-pending queue holds more than 64 lines,
   some of them re-flushed after a new store (Wpq_dirty), drained by a
   fence and then cut by a power cycle with torn writes.  The pinned
   image CRC and counters fix the drain order and the survival RNG's
   draws: any change to how the WPQ is stored must leave them as is. *)
let test_wpq_determinism () =
  let d = mk ~size:(64 * 1024) () in
  let rng = Random.State.make [| 17 |] in
  let nlines = D.size d / D.line_size in
  let store_line l =
    D.write_int d (l * D.line_size + (8 * Random.State.int rng 8)) (Random.State.bits rng)
  in
  let flush_line l = D.flush d (l * D.line_size) D.line_size in
  let round n =
    let lines = List.init n (fun _ -> Random.State.int rng nlines) in
    List.iter store_line lines;
    List.iter flush_line lines;
    (* re-store and re-flush every third line while it is still queued *)
    List.iteri (fun i l -> if i mod 3 = 0 then (store_line l; flush_line l)) lines
  in
  round 90;
  D.fence d;
  round 150;
  (* a multi-line flush over a partly queued range *)
  for l = 300 to 340 do store_line l done;
  D.flush d (300 * D.line_size) (41 * D.line_size);
  D.set_torn_write_prob d 0.5;
  D.power_cycle d;
  let s = D.stats d in
  let crc = Pmem.Crc32.string (D.read_string d 0 (D.size d)) in
  Alcotest.(check (list int)) "image crc, torn lines, fence lines"
    [ 2461489795; 84; 90 ] [ crc; s.D.torn_lines; s.D.fence_lines ]

let test_save_load () =
  let path = Filename.temp_file "corundum" ".pool" in
  let d = mk ~size:4096 ~path () in
  D.write_u64 d 16 77L;
  D.persist d 16 8;
  D.write_u64 d 24 88L (* not persisted: must not be saved *);
  D.save d;
  let d2 = D.load path in
  check_i64 "persisted data round-trips" 77L (D.read_u64 d2 16);
  check_i64 "unpersisted data is not saved" 0L (D.read_u64 d2 24);
  check_int "size restored" 4096 (D.size d2);
  Sys.remove path

(* A save of a loaded image writes the very bytes it was loaded from,
   zero words (which [load] skips) included. *)
let test_save_load_identical () =
  let path = Filename.temp_file "corundum" ".pool" in
  let d = mk ~size:(64 * 1024) ~path () in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 200 do
    let off = Random.State.int rng (D.size d - 8) in
    D.write_u64 d off (Random.State.int64 rng Int64.max_int);
    D.persist d off 8
  done;
  D.write_u32 d (D.size d - 4) 0xFFFFFFFF;
  D.persist d (D.size d - 4) 4;
  D.save d;
  let saved = In_channel.with_open_bin path In_channel.input_all in
  D.save (D.load path);
  Alcotest.(check bool)
    "second save is byte-identical" true
    (String.equal saved (In_channel.with_open_bin path In_channel.input_all));
  Sys.remove path

let test_save_without_path () =
  let d = mk () in
  Alcotest.match_raises "no path"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> D.save d)

let test_stats_and_time () =
  let d = mk ~latency:Pmem.Latency.optane () in
  D.reset_stats d;
  let t0 = D.simulated_ns d in
  Alcotest.(check (float 0.001)) "reset time zero" 0.0 t0;
  D.write_u64 d 0 1L;
  D.persist d 0 8;
  ignore (D.read_u64 d 0);
  let s = D.stats d in
  check_int "loads" 1 s.D.loads;
  check_int "stores" 1 s.D.stores;
  check_int "flushes" 1 s.D.flushes;
  check_int "fences" 1 s.D.fences;
  check_int "fence_lines" 1 s.D.fence_lines;
  check_int "flush calls" 1 s.D.flush_calls;
  let m = Pmem.Latency.optane in
  let expect =
    m.Pmem.Latency.read_ns +. m.Pmem.Latency.write_ns +. m.Pmem.Latency.flush_ns
    +. m.Pmem.Latency.fence_base_ns +. m.Pmem.Latency.fence_per_line_ns
  in
  Alcotest.(check (float 0.001)) "simulated time formula" expect (D.simulated_ns d);
  D.charge_ns d 100;
  Alcotest.(check (float 0.001)) "charge_ns" (expect +. 100.0) (D.simulated_ns d)

(* [read_int]/[write_int] are the low 63 bits of the [u64] word, both
   ways, including negative ints and words with the top bit set. *)
let test_int_words () =
  let d = mk () in
  List.iter
    (fun v ->
      D.write_int d 0 v;
      check_i64 "write_int = write_u64 of_int" (Int64.of_int v) (D.read_u64 d 0);
      check_int "read_int round-trips" v (D.read_int d 0))
    [ 0; 1; -5; max_int; min_int; 0x1122334455667788 ];
  List.iter
    (fun w ->
      D.write_u64 d 8 w;
      check_int "read_int = to_int read_u64" (Int64.to_int w) (D.read_int d 8))
    [ 0x8000000000000001L; -1L; 0x7FFFFFFFFFFFFFFFL ];
  match D.read_int d (D.size d - 4) with
  | _ -> Alcotest.fail "read_int past the end"
  | exception Invalid_argument _ -> ()

(* The unboxed accessors allocate nothing, and leave the counters, the
   simulated clock and the dirty lines exactly as the boxed pair does. *)
let test_int_accessors () =
  let n = 10_000 in
  let run ~boxed =
    let d = mk ~latency:Pmem.Latency.optane () in
    let sum = ref 0 in
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      let off = i * 24 mod 16384 in
      if boxed then begin
        D.write_u64 d off (Int64.of_int (i - 77));
        sum := !sum + Int64.to_int (D.read_u64 d (off + 8))
      end
      else begin
        D.write_int d off (i - 77);
        sum := !sum + D.read_int d (off + 8)
      end
    done;
    let words = Gc.minor_words () -. w0 in
    let s = D.stats d and ns = D.simulated_ns d in
    (* fence_lines after a full flush counts the lines the stores dirtied *)
    D.flush d 0 (D.size d);
    D.fence d;
    (words, !sum, s, ns, (D.stats d).D.fence_lines, D.read_string d 0 (D.size d))
  in
  let words, sum, s, ns, dirty, img = run ~boxed:false in
  let _, bsum, bs, bns, bdirty, bimg = run ~boxed:true in
  if words >= 100. then
    Alcotest.failf "%d read_int + write_int allocated %.0f minor words" n words;
  check_int "same values read" bsum sum;
  check_int "loads" bs.D.loads s.D.loads;
  check_int "stores" bs.D.stores s.D.stores;
  Alcotest.(check (float 0.)) "simulated ns" bns ns;
  check_int "dirty lines" bdirty dirty;
  Alcotest.(check bool) "same image" true (String.equal bimg img)

(* The persist path allocates nothing once the WPQ has grown: a flush
   copies its line into a reused snapshot slot and a fence drains the
   queue in place. *)
let test_persist_allocs () =
  let d = mk () in
  let pair i =
    let off = i * 72 mod 16384 in
    D.write_int d off i;
    D.flush d off 16;
    D.fence d
  in
  for i = 0 to 999 do
    pair i
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    pair i
  done;
  let words = Gc.minor_words () -. w0 in
  if words >= 100. then
    Alcotest.failf "10000 flush+fence pairs allocated %.0f minor words" words

let test_latency_presets () =
  Alcotest.(check bool) "optane by name" true
    (Pmem.Latency.by_name "optane" = Some Pmem.Latency.optane);
  Alcotest.(check bool) "unknown name" true (Pmem.Latency.by_name "nope" = None);
  Alcotest.(check bool) "optane slower than dram on fence drains" true
    Pmem.Latency.(optane.fence_per_line_ns > dram.fence_per_line_ns)

let test_power_cycle_without_crash_drops_cache () =
  (* A clean restart has the same volatile-loss semantics. *)
  let d = mk () in
  D.write_u64 d 0 3L;
  D.persist d 0 8;
  D.write_u64 d 8 4L;
  D.power_cycle d;
  check_i64 "persisted kept" 3L (D.read_u64 d 0);
  check_i64 "cached dropped" 0L (D.read_u64 d 8)

let test_size_rounding () =
  let d = mk ~size:100 () in
  check_int "rounded up to line multiple" 128 (D.size d)

let test_flush_spanning_lines () =
  let d = mk () in
  D.write_bytes d 60 (Bytes.make 8 '\xFF') (* spans lines 0 and 1 *);
  D.persist d 60 8;
  D.power_cycle d;
  Alcotest.(check string) "both lines durable"
    (String.make 8 '\xFF')
    (D.read_string d 60 8)

let qcheck_persisted_survives =
  QCheck.Test.make ~name:"persisted writes always survive power cycles"
    ~count:100
    QCheck.(small_list (pair (int_bound 1000) (int_bound 255)))
    (fun writes ->
      let d = mk ~size:2048 () in
      List.iter
        (fun (off, v) ->
          D.write_u8 d off v;
          D.persist d off 1)
        writes;
      D.power_cycle d;
      (* last write to each offset wins *)
      let expected = Hashtbl.create 16 in
      List.iter (fun (off, v) -> Hashtbl.replace expected off v) writes;
      Hashtbl.fold (fun off v acc -> acc && D.read_u8 d off = v) expected true)

(* Model-based persistence check: replay a random program of stores,
   flushes and fences against a simple model of durable state.  After a
   power cycle, a byte whose last store was followed by flush+fence must
   hold that store; a byte never flushed since its last store must hold
   its last DURABLE value.  Bytes in the flushed-but-unfenced window may
   hold either, and the test accepts both. *)
let qcheck_model_based =
  let module IM = Map.Make (Int) in
  QCheck.Test.make ~name:"device matches persistence model" ~count:150
    QCheck.(
      list_of_size Gen.(int_bound 80)
        (oneof
           [
             map
               (fun (o, v) -> `Store (o, v))
               (pair (int_bound 511) (int_bound 255));
             map (fun o -> `Flush o) (int_bound 511);
             always `Fence;
           ]))
    (fun program ->
      let d = mk ~size:512 () in
      (* model state per byte: durable value, pending (flushed unfenced)
         value option, cached value *)
      let durable = ref IM.empty
      and pending = ref IM.empty (* line -> snapshot of cached values *)
      and cached = ref IM.empty in
      let line_of o = o / 64 in
      List.iter
        (fun op ->
          match op with
          | `Store (o, v) ->
              D.write_u8 d o v;
              cached := IM.add o v !cached
          | `Flush o ->
              D.flush d o 1;
              (* snapshot the cached bytes of this line *)
              let l = line_of o in
              let snap =
                IM.filter (fun o' _ -> line_of o' = l) !cached
              in
              if not (IM.is_empty snap) then
                pending := IM.add l snap !pending
          | `Fence ->
              D.fence d;
              IM.iter
                (fun _ snap ->
                  IM.iter (fun o v -> durable := IM.add o v !durable) snap)
                !pending;
              pending := IM.empty)
        program;
      D.power_cycle d;
      (* every byte must now match durable, OR a pending snapshot value *)
      let ok = ref true in
      for o = 0 to 511 do
        let got = D.read_u8 d o in
        let want_durable = Option.value ~default:0 (IM.find_opt o !durable) in
        let want_pending =
          Option.bind (IM.find_opt (line_of o) !pending) (IM.find_opt o)
        in
        let acceptable =
          got = want_durable
          || match want_pending with Some v -> got = v | None -> false
        in
        if not acceptable then ok := false
      done;
      !ok)

(* A power cycle restores only the lines that are not Clean.  The
   reference is the full-image copy the old cycle made: after every
   cycle the view must equal the durable image, which [save] writes out
   whole (after the 16-byte magic and the u64 size).  Ten lines, so the
   state scan's eight-line words leave a tail. *)
let qcheck_power_cycle_view =
  let size = 640 in
  QCheck.Test.make ~name:"power cycle restores the view" ~count:200
    QCheck.(
      list_of_size Gen.(int_bound 60)
        (oneof
           [
             map
               (fun (o, v) -> `Store (o, v))
               (pair (int_bound (size - 8)) (int_bound 0xFFFF));
             map (fun (o, n) -> `Fill (o, n)) (pair (int_bound (size - 1)) (int_bound 100));
             map (fun (o, n) -> `Flush (o, n)) (pair (int_bound (size - 1)) (int_range 1 130));
             always `Fence;
             map (fun o -> `Rot o) (int_bound (size - 1));
             map (fun p -> `Torn p) (float_bound_inclusive 1.0);
             always `Cycle;
           ]))
    (fun program ->
      let path = Filename.temp_file "corundum" ".img" in
      let d = mk ~size ~path () in
      let cycle () =
        D.power_cycle d;
        D.save d;
        let image = In_channel.with_open_bin path In_channel.input_all in
        String.equal (String.sub image 24 size) (D.read_string d 0 size)
      in
      let step = function
        | `Store (o, v) ->
            D.write_u64 d o (Int64.of_int (v * 0x10001));
            true
        | `Fill (o, n) ->
            D.fill d o (min n (size - o)) (Char.chr (n land 0xFF));
            true
        | `Flush (o, n) ->
            D.flush d o (min n (size - o));
            true
        | `Fence ->
            D.fence d;
            true
        | `Rot o ->
            D.corrupt_line d o;
            true
        | `Torn p ->
            D.set_torn_write_prob d p;
            true
        | `Cycle -> cycle ()
      in
      let ok = List.for_all step program && cycle () in
      Sys.remove path;
      ok)

(* Two domains on the same lines: a sibling keeps flushing and fencing
   them while the writer overwrites them (a ranged store writes the view
   first and marks the lines after).  Whatever the interleaving, the
   lines must end dirty or queued with their newest bytes, so the
   writer's own persist afterwards makes every byte durable, and the
   view then equals the durable image. *)
let test_shared_line_persist () =
  let size = 4096 in
  let path = Filename.temp_file "corundum" ".img" in
  let d = mk ~size ~path () in
  for round = 1 to 100 do
    let stop = Atomic.make false and started = Atomic.make false in
    let sibling =
      Domain.spawn (fun () ->
          Atomic.set started true;
          match
            while not (Atomic.get stop) do
              D.flush d 0 size;
              D.fence d
            done
          with
          | () -> None
          | exception e -> Some e)
    in
    while not (Atomic.get started) do
      Domain.cpu_relax ()
    done;
    for k = 0 to 100 do
      D.fill d 0 size (Char.chr k)
    done;
    let last = Char.chr (128 + (round land 0x7F)) in
    D.fill d 0 size last;
    Atomic.set stop true;
    (* a sibling that raised inside [flush] still holds the device lock *)
    Option.iter
      (fun e -> Alcotest.failf "round %d: sibling raised %s" round (Printexc.to_string e))
      (Domain.join sibling);
    D.persist d 0 size;
    D.power_cycle d;
    D.save d;
    let image = In_channel.with_open_bin path In_channel.input_all in
    Alcotest.(check string)
      (Printf.sprintf "round %d: durable image" round)
      (String.make size last) (String.sub image 24 size);
    Alcotest.(check string)
      (Printf.sprintf "round %d: view after the cycle" round)
      (String.make size last) (D.read_string d 0 size)
  done;
  Sys.remove path

(* The device and the analyzers share one persist-line machine: a
   [Persist_line.Shadow] fed by the device's own probe events must drain,
   at every fence, exactly as many lines as the device's write-pending
   queue held. *)
let qcheck_shadow_parity =
  let module Pr = Ptelemetry.Probe in
  let module Sh = Pmem.Persist_line.Shadow in
  QCheck.Test.make ~name:"probe-fed shadow drains what the device drains"
    ~count:200
    QCheck.(
      list_of_size Gen.(int_bound 80)
        (oneof
           [
             map (fun (o, n) -> `Store (o, n)) (pair (int_bound 511) (int_range 1 100));
             map (fun (o, n) -> `Flush (o, n)) (pair (int_bound 511) (int_range 1 128));
             always `Fence;
             always `Power_cycle;
           ]))
    (fun program ->
      let d = mk ~size:640 () in
      let sh = Sh.create () and mismatches = ref 0 in
      let on_event = function
        | Pr.Store { dev; off; len; _ } when dev = D.id d ->
            Sh.store sh ~who:0 ~off ~len
        | Pr.Flush { dev; off; len; _ } when dev = D.id d ->
            ignore (Sh.flush sh ~off ~len)
        | Pr.Fence { dev; lines; _ } when dev = D.id d ->
            if Sh.fence sh <> lines then incr mismatches
        | Pr.Power_cycle { dev } when dev = D.id d -> Sh.reset sh
        | _ -> ()
      in
      let h = Pr.subscribe on_event in
      Fun.protect
        ~finally:(fun () -> Pr.unsubscribe h)
        (fun () ->
          List.iter
            (function
              | `Store (o, n) -> D.fill d o n 'x'
              | `Flush (o, n) -> D.flush d o n
              | `Fence -> D.fence d
              | `Power_cycle -> D.power_cycle d)
            program;
          !mismatches = 0))

(* Word-granular conformance with the model checker's reference machine
   ([Pmodel.Mstate]): the same store/flush/fence program must leave the
   same durable image after every fence, and a final power failure that
   tears every write-pending line must leave one of the crash states the
   model enumerates.  Stores touch 16 words spread over 4 lines, so the
   model's pending words never exceed [max_branch_words].  The machine
   is polymorphic in its word value: plain ints stand for the device's
   u64 words, over the journal family's one-slot geometry. *)
let qcheck_mstate_conformance =
  let module Ms = Pmodel.Mstate in
  let module Mj = Pmodel.Mjournal in
  let nwords = Mj.nwords { Mj.nslots = 1; table_split = true } in
  let word i = (i / 4 * Ms.words_per_line) + (i mod 4) in
  let to_i64 = Int64.of_int in
  QCheck.Test.make ~name:"device conforms to the Mstate word machine" ~count:200
    QCheck.(
      pair (int_bound 1_000_000)
        (list_of_size Gen.(int_bound 60)
           (oneof
              [
                map (fun (i, n) -> `Store (word i, n)) (pair (int_bound 15) (int_range 1 999));
                map (fun (i, k) -> `Flush (word i, k)) (pair (int_bound 15) (int_bound 9));
                always `Fence;
              ])))
    (fun (seed, program) ->
      let path = Filename.temp_file "mstate_conform" ".pmem" in
      let d = D.create ~seed ~path ~size:(nwords * 8) () in
      let m = Ms.boot (Array.make nwords 0) in
      let words d = Array.init nwords (fun w -> D.read_u64 d (w * 8)) in
      (* the device's durable media, read back through its file image *)
      let durable () =
        D.save d;
        words (D.load path)
      in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let fences_agree =
            List.for_all
              (function
                | `Store (w, n) ->
                    D.write_u64 d (w * 8) (Int64.of_int n);
                    Ms.store m w n;
                    true
                | `Flush (w, k) ->
                    D.flush d (w * 8) ((k + 1) * 8);
                    Ms.flush_words m (List.init (k + 1) (fun j -> w + j));
                    true
                | `Fence ->
                    D.fence d;
                    Ms.fence m;
                    durable () = Array.map to_i64 (Ms.snapshot_durable m))
              program
          in
          let pending = Ms.wpq_words m in
          D.set_torn_write_prob d 1.0;
          D.power_cycle d;
          let image = words d in
          let mask =
            List.fold_left
              (fun (mask, i) w ->
                let landed = image.(w) = to_i64 (Hashtbl.find m.Ms.wpq w) in
                ((if landed then mask lor (1 lsl i) else mask), i + 1))
              (0, 0) pending
            |> fst
          in
          fences_agree
          && List.length pending <= Ms.max_branch_words
          && Array.map to_i64 (Ms.crash_state m ~mask) = image))

let () =
  Alcotest.run "pmem_device"
    [
      ( "basic",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "size rounding" `Quick test_size_rounding;
          Alcotest.test_case "int words" `Quick test_int_words;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "unflushed lost" `Quick test_unflushed_lost;
          Alcotest.test_case "persist durable" `Quick test_persist_durable;
          Alcotest.test_case "flush w/o fence uncertain" `Quick
            test_flush_no_fence_uncertain;
          Alcotest.test_case "flush snapshots line" `Quick test_snapshot_semantics;
          Alcotest.test_case "fence only drains flushed" `Quick
            test_fence_only_drains_flushed;
          Alcotest.test_case "restart drops cache" `Quick
            test_power_cycle_without_crash_drops_cache;
          Alcotest.test_case "flush spanning lines" `Quick
            test_flush_spanning_lines;
          Alcotest.test_case "shared line persists" `Quick
            test_shared_line_persist;
        ] );
      ( "crash",
        [
          Alcotest.test_case "countdown" `Quick test_crash_countdown;
          Alcotest.test_case "crash before first point" `Quick
            test_crash_before_first_point;
          Alcotest.test_case "persist point counter" `Quick
            test_persist_points_counter;
          Alcotest.test_case "wpq determinism pin" `Quick test_wpq_determinism;
        ] );
      ( "file",
        [
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "save/load byte-identical" `Quick
            test_save_load_identical;
          Alcotest.test_case "save without path" `Quick test_save_without_path;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "stats and simulated time" `Quick
            test_stats_and_time;
          Alcotest.test_case "latency presets" `Quick test_latency_presets;
          Alcotest.test_case "int accessors" `Quick test_int_accessors;
          Alcotest.test_case "persist allocs" `Quick test_persist_allocs;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_persisted_survives;
          QCheck_alcotest.to_alcotest qcheck_model_based;
          QCheck_alcotest.to_alcotest qcheck_power_cycle_view;
        ] );
      ( "conformance",
        [
          QCheck_alcotest.to_alcotest qcheck_shadow_parity;
          QCheck_alcotest.to_alcotest qcheck_mstate_conformance;
        ] );
    ]
