(* Bechamel wall-clock benchmarks: one Test.make per table and figure of
   the paper, plus the ablation benches DESIGN.md calls out.  These
   complement the deterministic simulated-clock harnesses in bin/ (micro,
   perf, scale): bechamel answers "how fast does this library itself run
   on the host", the bin tools answer "what would it cost on PM".

   Run: dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Corundum
module Instrument = Harness.Instrument
module Gate = Harness.Gate

let write_file = Instrument.write_file

let small =
  { Pool_impl.size = 8 * 1024 * 1024; nslots = 2; slot_size = 256 * 1024 }

(* --- Table 2: render the static-checks matrix -------------------------- *)

let bench_table2 =
  Test.make ~name:"table2:static-checks-matrix"
    (Staged.stage (fun () -> ignore (Evaldata.Checks_matrix.to_csv ())))

(* --- Table 3: count the lines-of-code delta ---------------------------- *)

let bench_table3 =
  Test.make ~name:"table3:loc-count"
    (Staged.stage (fun () -> ignore (Evaldata.Loc_count.measure ())))

(* --- Table 5: representative basic operations -------------------------- *)

(* A pool reused across iterations; the bodies mirror micro.exe rows. *)
let with_counter_pool () =
  let module P = Pool.Make () in
  P.create ~config:small ~latency:Pmem.Latency.zero ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  (module P : Pool.S)

let bench_table5_txnop =
  let pool = lazy (with_counter_pool ()) in
  Test.make ~name:"table5:txnop"
    (Staged.stage (fun () ->
         let module P = (val Lazy.force pool) in
         P.transaction (fun _ -> ())))

let bench_table5_datalog =
  let state =
    lazy
      (let module P = Pool.Make () in
       P.create ~config:small ~latency:Pmem.Latency.zero ();
       ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
       let base = P.transaction (fun j -> Pool_impl.tx_alloc (Journal.tx j) 4096) in
       ((module P : Pool.S), base))
  in
  Test.make ~name:"table5:datalog-64B"
    (Staged.stage (fun () ->
         let (module P), base = Lazy.force state in
         P.transaction (fun j ->
             Pool_impl.tx_log (Journal.tx j) ~off:base ~len:64)))

let bench_table5_alloc_free =
  let pool = lazy (with_counter_pool ()) in
  Test.make ~name:"table5:alloc+free-64B"
    (Staged.stage (fun () ->
         let module P = (val Lazy.force pool) in
         P.transaction (fun j ->
             let off = Pool_impl.tx_alloc (Journal.tx j) 64 in
             Pool_impl.tx_free (Journal.tx j) off)))

let bench_table5_atomic_init =
  let pool = lazy (with_counter_pool ()) in
  Test.make ~name:"table5:pbox-atomic-init"
    (Staged.stage (fun () ->
         let module P = (val Lazy.force pool) in
         P.transaction (fun j ->
             let b = Pbox.make ~ty:Ptype.int 1 j in
             Pbox.drop b j)))

(* --- Figure 1: one BST insert per engine -------------------------------- *)

let bench_fig1 (name, (module E : Engines.Engine_sig.S)) =
  let module T = Workloads.Bst.Make (E) in
  let state =
    lazy
      (let eng =
         E.create ~latency:Pmem.Latency.zero ~size:(16 * 1024 * 1024) ()
       in
       let key = ref 0 in
       (eng, key))
  in
  Test.make ~name:(Printf.sprintf "fig1:bst-insert:%s" name)
    (Staged.stage (fun () ->
         let eng, key = Lazy.force state in
         incr key;
         T.insert eng (Int64.of_int !key)))

let bench_fig1_all = List.map bench_fig1 Engines.Registry.all

(* Typed-layer overhead: the same BST insert through the typed API
   (Ptype serialization, Prefcell borrows) vs. the raw corundum engine. *)
let bench_typed_bst =
  let state =
    lazy
      (let module P = Pool.Make () in
       P.create ~config:small ~latency:Pmem.Latency.zero ();
       let module T = Workloads.Pbst.Make (P) in
       let t = T.root () in
       let key = ref 0 in
       let insert () =
         incr key;
         P.transaction (fun j -> T.insert t !key j)
       in
       insert)
  in
  Test.make ~name:"fig1:bst-insert:corundum-typed"
    (Staged.stage (fun () -> (Lazy.force state) ()))

(* --- Figure 2: wordcount sequential kernel ------------------------------ *)

let bench_fig2 =
  let corpus =
    lazy
      (Workloads.Wordcount.generate_corpus ~vocabulary:500 ~segments:10
         ~words_per_segment:200 ~seed:3 ())
  in
  Test.make ~name:"fig2:wordcount-seq-10x200"
    (Staged.stage (fun () ->
         ignore (Workloads.Wordcount.run_seq ~corpus:(Lazy.force corpus) ())))

(* --- Ablations (DESIGN.md sec. 7) ---------------------------------------- *)

(* Dedup on/off: repeated writes to one word with exact-range logging. *)
let bench_ablation_dedup on =
  let state =
    lazy
      (let module P = Pool.Make () in
       P.create ~config:small ~latency:Pmem.Latency.zero ();
       ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
       let off = P.transaction (fun j -> Pool_impl.tx_alloc (Journal.tx j) 64) in
       ((module P : Pool.S), off))
  in
  Test.make
    ~name:(Printf.sprintf "ablation:dedup-%s" (if on then "on" else "off"))
    (Staged.stage (fun () ->
         let (module P), off = Lazy.force state in
         P.transaction (fun j ->
             for _ = 1 to 16 do
               if on then Pool_impl.tx_log (Journal.tx j) ~off ~len:8
               else Pool_impl.tx_log_nodedup (Journal.tx j) ~off ~len:8
             done)))

(* Flush policy: per-store persist (Atlas-style) vs commit-time persist. *)
let bench_ablation_flush per_store =
  let state =
    lazy
      (let module P = Pool.Make () in
       P.create ~config:small ~latency:Pmem.Latency.zero ();
       ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
       let off = P.transaction (fun j -> Pool_impl.tx_alloc (Journal.tx j) 64) in
       ((module P : Pool.S), off))
  in
  Test.make
    ~name:
      (Printf.sprintf "ablation:flush-%s"
         (if per_store then "per-store" else "at-commit"))
    (Staged.stage (fun () ->
         let (module P), off = Lazy.force state in
         P.transaction (fun j ->
             let dev = Pool_impl.device (P.impl ()) in
             for i = 0 to 7 do
               Pool_impl.tx_log (Journal.tx j) ~off:(off + (i * 8)) ~len:8;
               Pmem.Device.write_u64 dev (off + (i * 8)) 1L;
               if per_store then Pmem.Device.persist dev (off + (i * 8)) 8
             done)))

(* Allocation-table persistence: one persist per mark (the pre-coalescing
   design: each alloc individually crash-atomic) vs. marking a batch and
   persisting once at the end (the shipped design: marks stay dirty until
   the commit fence flushes their collected lines; this ablation
   quantifies what the change bought). *)
let bench_ablation_table batched =
  let state =
    lazy
      (let dev = Pmem.Device.create ~size:(1024 * 1024) () in
       let table =
         Palloc.Alloc_table.create dev ~table_base:0 ~heap_base:16384
           ~heap_len:(1024 * 1024 - 16384)
       in
       let idx = ref 0 in
       (dev, table, idx))
  in
  Test.make
    ~name:
      (Printf.sprintf "ablation:table-persist-%s"
         (if batched then "batched" else "each"))
    (Staged.stage (fun () ->
         let dev, table, idx = Lazy.force state in
         let nblocks = Palloc.Alloc_table.nblocks table in
         if batched then begin
           (* mark 16 blocks, one persist for the run of bytes *)
           let start = !idx in
           for _ = 1 to 16 do
             Pmem.Device.write_u8 dev !idx 1;
             idx := (!idx + 1) mod nblocks
           done;
           if start < !idx then Pmem.Device.persist dev start (!idx - start)
           else Pmem.Device.persist dev 0 16
         end
         else
           for _ = 1 to 16 do
             Palloc.Alloc_table.mark_durable table ~idx:!idx ~order:0;
             idx := (!idx + 1) mod nblocks
           done))

(* Allocator churn: direct buddy alloc/free of mixed orders in a ring,
   so every run pops, pushes, splits and merges the segregated free
   lists at a steady state — the structures the O(1) rewrite replaced
   (per-order ordered sets with O(log n) min/remove).  Latency-free
   device: the wall clock measures the volatile bookkeeping itself. *)
let bench_alloc_churn =
  let ring_len = 256 in
  let state =
    lazy
      (let dev = Pmem.Device.create ~size:(8 * 1024 * 1024) () in
       let heap_base = 256 * 1024 in
       let buddy =
         Palloc.Buddy.create ~stripes:1 dev ~table_base:0 ~heap_base
           ~heap_len:((8 * 1024 * 1024) - heap_base)
       in
       let ring = Array.make ring_len (-1) in
       let i = ref 0 in
       (buddy, ring, i))
  in
  Test.make ~name:"alloc:churn-mixed-orders"
    (Staged.stage (fun () ->
         let buddy, ring, i = Lazy.force state in
         let slot = !i mod ring_len in
         if ring.(slot) >= 0 then Palloc.Buddy.dealloc buddy ring.(slot);
         ring.(slot) <- Palloc.Buddy.alloc buddy (64 lsl (!i mod 4));
         incr i))

(* Index-structure ablation: AVL (deep, narrow, 8-byte logs) vs B+tree
   (shallow, wide, value moves) on the same keys — the classic PM
   trade-off. *)
let bench_index kind =
  let state =
    lazy
      (let module P = Pool.Make () in
       P.create ~config:small ~latency:Pmem.Latency.zero ();
       ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
       let key = ref 0 in
       match kind with
       | `Avl ->
           let m = P.transaction (fun j -> Pmap.make ~vty:Ptype.int j) in
           fun () ->
             incr key;
             P.transaction (fun j -> Pmap.add m ~key:!key !key j)
       | `Btree ->
           let t = P.transaction (fun j -> Pbtree.make ~vty:Ptype.int j) in
           fun () ->
             incr key;
             P.transaction (fun j -> Pbtree.add t ~key:!key !key j))
  in
  Test.make
    ~name:
      (Printf.sprintf "ablation:index-%s"
         (match kind with `Avl -> "avl" | `Btree -> "btree"))
    (Staged.stage (fun () -> (Lazy.force state) ()))

(* Hash-structure ablation: int keys with inline entries vs string keys
   with owned key blocks. *)
let bench_hash kind =
  let state =
    lazy
      (let module P = Pool.Make () in
       P.create ~config:small ~latency:Pmem.Latency.zero ();
       ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
       let key = ref 0 in
       match kind with
       | `Int ->
           let h = P.transaction (fun j -> Phashtbl.make ~vty:Ptype.int j) in
           fun () ->
             incr key;
             P.transaction (fun j -> Phashtbl.add h ~key:!key !key j)
       | `Str ->
           let h = P.transaction (fun j -> Pstrmap.make ~vty:Ptype.int j) in
           fun () ->
             incr key;
             P.transaction (fun j ->
                 Pstrmap.add h ~key:(string_of_int !key) !key j))
  in
  Test.make
    ~name:
      (Printf.sprintf "ablation:hash-%s"
         (match kind with `Int -> "int-keys" | `Str -> "string-keys"))
    (Staged.stage (fun () -> (Lazy.force state) ()))

let tests =
  Test.make_grouped ~name:"corundum"
    ([
       bench_table2;
       bench_table3;
       bench_table5_txnop;
       bench_table5_datalog;
       bench_table5_alloc_free;
       bench_table5_atomic_init;
       bench_fig2;
       bench_ablation_dedup true;
       bench_ablation_dedup false;
       bench_ablation_flush true;
       bench_ablation_flush false;
       bench_ablation_table true;
       bench_ablation_table false;
       bench_alloc_churn;
     ]
    @ bench_fig1_all
    @ [
        bench_typed_bst;
        bench_index `Avl;
        bench_index `Btree;
        bench_hash `Int;
        bench_hash `Str;
      ])

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Instance.monotonic_clock raw

(* --trace/--metrics/--psan: skip the wall-clock benchmark and run one
   small instrumented workload instead — bechamel's millions of
   iterations would only wrap the ring.  The workload touches every
   instrumented layer (tx, journal, allocator, device flush/fence) so
   the exported Chrome trace, the metrics dump and the sanitizer all
   exercise the full event surface. *)
let instrumented_workload () =
  let module P = Pool.Make () in
  P.create ~config:small ~latency:Pmem.Latency.optane ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let off = P.transaction (fun j -> Pool_impl.tx_alloc (Journal.tx j) 4096) in
  let dev = Pool_impl.device (P.impl ()) in
  for i = 1 to 100 do
    P.transaction (fun j ->
        Pool_impl.tx_log (Journal.tx j) ~off:(off + (i mod 8 * 64)) ~len:64;
        Pmem.Device.write_u64 dev (off + (i mod 8 * 64)) (Int64.of_int i);
        if i mod 10 = 0 then begin
          let b = Pool_impl.tx_alloc (Journal.tx j) 128 in
          Pool_impl.tx_free (Journal.tx j) b
        end)
  done;
  let module E = Engines.Corundum_engine in
  let module T = Workloads.Bst.Make (E) in
  let eng = E.create ~size:(8 * 1024 * 1024) () in
  for k = 1 to 50 do
    T.insert eng (Int64.of_int k)
  done

(* --json: the deterministic per-engine attribution mix (flushes, fences,
   logged bytes and simulated ns per op) as machine-readable JSON — the
   CI regression gate diffs this against a committed baseline.  One op
   per line, so a refreshed baseline reads as a table in review. *)
let attribution_json () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"corundum-bench-v1\",\n";
  Buffer.add_string buf "  \"engines\": [\n";
  List.iteri
    (fun i (name, eng) ->
      if i > 0 then Buffer.add_string buf ",\n";
      let rows = Engines.Attribution.measure eng in
      Buffer.add_string buf
        (Printf.sprintf "    { \"engine\": %S, \"ops\": [\n" name);
      List.iteri
        (fun k (r : Engines.Attribution.row) ->
          if k > 0 then Buffer.add_string buf ",\n";
          let per v = float_of_int v /. float_of_int r.ops in
          Buffer.add_string buf
            (Printf.sprintf
               "      { \"op\": %S, \"ops\": %d, \"flushes_per_op\": %.4f, \
                \"fences_per_op\": %.4f, \"logged_bytes_per_op\": %.2f, \
                \"sim_ns_per_op\": %.1f }"
               r.op r.ops (per r.flushes) (per r.fences) (per r.logged_bytes)
               (r.sim_ns /. float_of_int r.ops)))
        rows;
      Buffer.add_string buf "\n    ] }")
    Engines.Registry.all;
  Buffer.add_string buf "\n  ]\n}";
  Buffer.contents buf

(* --- persist-waste profile (ROADMAP item 3) ----------------------------- *)

let run_waste ~waste_json ~waste_baseline ~waste_trace ~waste_capture =
  let measured =
    List.map
      (fun (name, eng) -> (name, Engines.Waste.measure_capture eng))
      Engines.Registry.all
  in
  let columns = List.map (fun (name, (_, rows)) -> (name, rows)) measured in
  print_string (Engines.Waste.table columns);
  (match waste_capture with
  | None -> ()
  | Some path ->
      (* Save the corundum run's whole probe stream (pool creation and
         root transaction included, so it is self-contained) as a
         replayable corundum-probe-v1 capture for pprof_cli
         report/diff/replay. *)
      let stream =
        match List.assoc_opt "corundum" measured with
        | Some (stream, _) -> stream
        | None -> fst (snd (List.hd measured))
      in
      Ptelemetry.Probe.save path stream;
      Printf.printf "wrote %s\n" path);
  (match waste_json with
  | None -> ()
  | Some path ->
      write_file path
        (Ptelemetry.Json.to_string (Engines.Waste.waste_json columns));
      Printf.printf "wrote %s\n" path);
  (match waste_trace with
  | None -> ()
  | Some path ->
      (* Render the corundum engine's windows as a Chrome trace with the
         waste findings overlaid as [pprof] instants at the simulated
         timestamps of the excess persists. *)
      let rows =
        match List.assoc_opt "corundum" columns with
        | Some rows -> rows
        | None -> snd (List.hd columns)
      in
      Ptelemetry.Trace.install_ring ~capacity:(1 lsl 16) ();
      List.iter
        (fun (w : Engines.Waste.op_waste) ->
          Pprof.replay w.Engines.Waste.events;
          Pprof.emit_overlay w.Engines.Waste.report)
        rows;
      Ptelemetry.Trace.save_chrome path;
      Ptelemetry.Trace.uninstall ();
      Printf.printf "wrote %s\n" path);
  (* Waste per op may only go down; engines or ops absent from the
     baseline are reported as NEW and pass. *)
  Gate.files ~flags:("--waste-json", "--waste-baseline") ~gate:"PPROF"
    Gate.pprof ~current:waste_json ~baseline:waste_baseline
(* --- recovery latency --------------------------------------------------- *)

(* One crash/recover cycle on a fresh pool of the given size: populate,
   crash mid-transaction at a persist point, power-cycle, re-attach.
   Returns the simulated ns the attach (journal recovery + allocation
   table scan) cost.  The per-phase breakdown also lands in the metrics
   histograms [recovery.phase.*_ns]. *)
let recovery_cycle ~size =
  let slot_size = max (64 * 1024) (min (1024 * 1024) (size / 32)) in
  let config = { Pool_impl.size; nslots = 4; slot_size } in
  let pool = Pool_impl.create ~config ~latency:Pmem.Latency.optane () in
  let dev = Pool_impl.device pool in
  let scratch = Pool_impl.transaction pool (fun tx -> Pool_impl.tx_alloc tx 256) in
  for i = 1 to 32 do
    Pool_impl.transaction pool (fun tx ->
        Pool_impl.tx_log tx ~off:scratch ~len:64;
        Pmem.Device.write_u64 dev scratch (Int64.of_int i);
        if i mod 4 = 0 then begin
          let b = Pool_impl.tx_alloc tx 64 in
          Pmem.Device.write_u64 dev b (Int64.of_int i);
          Pool_impl.tx_add_target tx ~off:b ~len:8
        end)
  done;
  (* Crash inside the next commit, after the per-entry seal fences have
     made two undo entries durable but before the truncate retires the
     log — recovery must walk and roll the transaction back. *)
  Pmem.Device.set_crash_countdown dev 6;
  (try
     Pool_impl.transaction pool (fun tx ->
         Pool_impl.tx_log tx ~off:scratch ~len:64;
         Pool_impl.tx_log tx ~off:(scratch + 128) ~len:64;
         Pmem.Device.write_u64 dev scratch 999L;
         Pmem.Device.write_u64 dev (scratch + 128) 999L)
   with Pmem.Device.Crashed -> ());
  Pmem.Device.set_crash_countdown dev 0;
  Pmem.Device.power_cycle dev;
  let t0 = Pmem.Device.simulated_ns dev in
  let pool2 = Pool_impl.attach dev in
  let t1 = Pmem.Device.simulated_ns dev in
  let stats = Pool_impl.recovery_stats pool2 in
  ((t1 -. t0), stats)

let pctl sorted q =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(int_of_float (float_of_int (n - 1) *. q))


let run_recovery_latency ~sizes ~repeats ~metrics_out ~max_p99 =
  (* With [repeats <= Metrics.exact_threshold] the reported percentiles
     are exact nearest-rank values, not bucket floors. *)
  let p99s, _ =
    Instrument.run { Instrument.none with metrics = metrics_out } (fun () ->
        List.map
          (fun size ->
            let totals = Array.make repeats 0.0 in
            let phase_acc = ref [] in
            for r = 0 to repeats - 1 do
              let total, stats = recovery_cycle ~size in
              totals.(r) <- total;
              List.iter
                (fun (name, dur) ->
                  phase_acc :=
                    (match List.assoc_opt name !phase_acc with
                    | Some d ->
                        (name, d +. dur) :: List.remove_assoc name !phase_acc
                    | None -> !phase_acc @ [ (name, dur) ]))
                stats.Pjournal.Recovery.phase_ns
            done;
            Array.sort compare totals;
            let p50 = pctl totals 0.5 and p99 = pctl totals 0.99 in
            Printf.printf
              "recovery-latency: pool %d MiB, %d cycles: attach p50=%.0f ns \
               p99=%.0f ns\n"
              (size / 1024 / 1024) repeats p50 p99;
            let per = float_of_int repeats in
            List.iter
              (fun (name, dur) ->
                Printf.printf "  phase %-10s mean %10.0f ns/cycle\n" name
                  (dur /. per))
              !phase_acc;
            (size, p99))
          sizes)
  in
  match max_p99 with
  | None -> ()
  | Some bound ->
      let rows =
        List.map
          (fun (size, p99) ->
            {
              Gate.key = Printf.sprintf "pool-%dMiB/attach_p99_ns" (size / 1024 / 1024);
              rule = Gate.recovery_p99;
              base = Some bound;
              cur = Some p99;
            })
          p99s
      in
      if not (Gate.report ~gate:"RECOVERY" rows) then exit 1

(* --- alloc-scale: multi-domain allocator scalability -------------------- *)

(* One domain per journal slot, one journal slot per allocator stripe:
   each domain churns a private ring of mixed-order blocks through its
   own transactions, so a healthy run satisfies almost every reservation
   from the preferred stripe.  The per-stripe [steals] and [contended]
   counters are the scalability telemetry: they stay near zero until the
   heap is too small (cross-stripe steals) or domains outnumber stripes
   (lock contention). *)
let run_alloc_scale ~domains ~txs ~metrics_out =
  let config =
    {
      Pool_impl.size = 32 * 1024 * 1024;
      nslots = domains;
      slot_size = 128 * 1024;
    }
  in
  let module P = Pool.Make () in
  P.create ~config ~latency:Pmem.Latency.zero ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let worker d () =
    let ring = Array.make 64 (-1) in
    for i = 1 to txs do
      P.transaction (fun j ->
          let tx = Journal.tx j in
          let slot = i mod Array.length ring in
          if ring.(slot) >= 0 then Pool_impl.tx_free tx ring.(slot);
          ring.(slot) <- Pool_impl.tx_alloc tx (64 lsl ((i + d) mod 4)))
    done
  in
  let dt, _ =
    Instrument.run { Instrument.none with metrics = metrics_out } (fun () ->
        let t0 = Unix.gettimeofday () in
        let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
        List.iter Domain.join ds;
        Unix.gettimeofday () -. t0)
  in
  let stats = Palloc.Buddy.stripe_stats (Pool_impl.buddy (P.impl ())) in
  Printf.printf "alloc-scale: %d domains x %d txs in %.3f s (%.0f tx/s)\n\n"
    domains txs dt
    (float_of_int (domains * txs) /. dt);
  Printf.printf "%-7s %9s %12s %7s %7s %10s\n" "stripe" "span KiB" "free bytes"
    "depth" "steals" "contended";
  Array.iteri
    (fun n s ->
      Printf.printf "%-7d %9d %12d %7d %7d %10d\n" n
        ((s.Palloc.Buddy.ss_hi - s.Palloc.Buddy.ss_lo) / 1024)
        s.Palloc.Buddy.ss_free_bytes
        (Array.fold_left ( + ) 0 s.Palloc.Buddy.ss_depths)
        s.Palloc.Buddy.ss_steals s.Palloc.Buddy.ss_contended)
    stats

(* --- openloop: open-loop latency under multi-domain load ---------------- *)

(* N domains drive a kvstore under an open-loop arrival schedule
   (Loadgen): arrivals are scheduled in simulated time independent of
   completions, so queueing delay lands in response time instead of
   silently stretching the schedule (no coordinated omission).  The two
   modes differ only in the pool under the kvstore:

   - private (default): each domain builds its own engine — private
     pool, private device, private rng streams — so the merged report
     is a deterministic function of the spec, whatever the host
     scheduling.  That is what lets OPENLOOP_baseline.json gate the
     merged percentiles tightly.
   - [--shared]: all domains drive one kvstore on a single pool.  Each
     worker registers for a dedicated journal slot (and allocator
     stripe), and the pool's group-commit combiner merges concurrent
     commits into fence epochs — K simultaneous committers share one
     fence.  The interleaving, and with it the latency distribution,
     depends on host scheduling, so the gate pins only what grouping can
     never worsen: fences and flushes per op against committed solo-cost
     ceilings.  Service times are global simulated-clock deltas on the
     shared device, so they include the clock advance of concurrently
     running domains — a contention-inflated measure, reported but not
     gated. *)

module KV = Workloads.Kvstore.Make (Engines.Corundum_engine)

(* One op; its service time is the simulated-clock delta across it. *)
let kv_service dev kv op =
  let t0 = Pmem.Device.simulated_ns dev in
  let key = Int64.of_int (Loadgen.op_key op) in
  (match op with
  | Loadgen.Read _ -> ignore (KV.get kv key)
  | Loadgen.Update _ | Loadgen.Insert _ -> KV.put kv key key
  | Loadgen.Delete _ -> ignore (KV.del kv key));
  Pmem.Device.simulated_ns dev -. t0

(* A worker session is opened on the worker's own domain and yields the
   service closure and the release to run after the last op. *)
let private_session () =
  let module E = Engines.Corundum_engine in
  let eng = E.create ~latency:Pmem.Latency.optane ~size:(16 * 1024 * 1024) () in
  (kv_service (Pool_impl.device (E.pool eng)) (KV.create eng), ignore)

(* The shared pool, preloaded on the calling domain.  Returns the worker
   session and, for after the run, a summary of the contended phase —
   fences and flushes per op over [total] ops and the combiner's epoch
   stats — as a report line and the JSON "shared" section. *)
let shared_pool ~domains ~keyspace ~linger ~total =
  let pool =
    Pool_impl.create
      ~config:
        {
          Pool_impl.size = 64 * 1024 * 1024;
          nslots = max 8 domains;
          slot_size = 256 * 1024;
        }
      ~latency:Pmem.Latency.optane ()
  in
  Pool_impl.set_group_commit ?linger pool true;
  let dev = Pool_impl.device pool in
  let kv = KV.create ~nbuckets:1024 (Engines.Corundum_engine.of_pool pool) in
  (* Deterministic single-domain preload so reads and deletes hit. *)
  for k = 0 to keyspace - 1 do
    KV.put kv (Int64.of_int k) (Int64.of_int k)
  done;
  (* Fresh combiner after the (all-solo) preload so occupancy stats
     describe only the contended phase. *)
  Pool_impl.set_group_commit ?linger pool true;
  let s0 = Pmem.Device.stats dev in
  let session () =
    ignore (Pool_impl.register_domain pool);
    (kv_service dev kv, fun () -> Pool_impl.unregister_domain pool)
  in
  let summary () =
    let module G = Pjournal.Group_commit in
    let module J = Ptelemetry.Json in
    let s1 = Pmem.Device.stats dev in
    let per_op n = float_of_int n /. float_of_int total in
    let fences = per_op (s1.Pmem.Device.fences - s0.Pmem.Device.fences)
    and flushes =
      per_op (s1.Pmem.Device.flush_calls - s0.Pmem.Device.flush_calls)
    and g = Option.get (Pool_impl.group_commit_stats pool) in
    let solo =
      if g.G.epochs = 0 then 0.0
      else float_of_int g.G.solo_epochs /. float_of_int g.G.epochs
    in
    let int n = J.Num (float_of_int n) in
    Some
      ( Printf.sprintf
          "fences/op %.3f  flushes/op %.3f  epochs %d  occupancy mean %.2f max \
           %d solo %.0f%%"
          fences flushes g.G.epochs (G.mean_occupancy g) g.G.max_occupancy
          (100.0 *. solo),
        J.Obj
          [
            ("fences_per_op", J.Num fences);
            ("flushes_per_op", J.Num flushes);
            ("epochs", int g.G.epochs);
            ("commits", int g.G.commits);
            ("occupancy_mean", J.Num (G.mean_occupancy g));
            ("occupancy_max", int g.G.max_occupancy);
            ("solo_fraction", J.Num solo);
          ] )
  in
  (session, summary)

(* Run [work d ~progress] on one fresh domain per index, with a progress
   line on a tty.  Returns the results in domain order and the wall
   seconds. *)
let drive ~name ~domains ~total ~quiet work =
  let done_ops = Atomic.make 0 in
  let live = Atomic.make domains in
  let worker d =
    (* Trap everything: a worker that died silently would leave [live]
       stuck and the wait loop below spinning forever — surface the
       exception at join instead. *)
    let r =
      try
        let prev = ref 0 in
        let progress ~done_ops:n _ =
          ignore (Atomic.fetch_and_add done_ops (n - !prev));
          prev := n
        in
        Ok (work d ~progress)
      with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Atomic.decr live;
    r
  in
  let t0 = Unix.gettimeofday () in
  let handles = List.init domains (fun d -> Domain.spawn (fun () -> worker d)) in
  let show_progress = (not quiet) && Unix.isatty Unix.stderr in
  while Atomic.get live > 0 do
    if show_progress then
      Printf.eprintf "\r%s: %d domains  %*d/%d ops" name domains
        (String.length (string_of_int total))
        (Atomic.get done_ops) total;
    Unix.sleepf 0.05
  done;
  let results =
    List.map
      (fun h ->
        match Domain.join h with
        | Ok r -> r
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      handles
  in
  if show_progress then Printf.eprintf "\r%s\r" (String.make 70 ' ');
  (results, Unix.gettimeofday () -. t0)

let openloop_row label (r : Loadgen.report) =
  let q h p = Ptelemetry.Hdr.quantile (Ptelemetry.Hdr.snapshot h) p in
  Printf.printf "%-8s %8d %12.0f %9d %9d %9d %9d %9d\n" label r.Loadgen.ops
    (Loadgen.throughput r) (q r.Loadgen.response 0.5) (q r.Loadgen.response 0.99)
    (q r.Loadgen.response 0.999) (q r.Loadgen.service 0.5)
    (q r.Loadgen.service 0.99)

let run_openloop ~shared ~linger ~domains ~rate ~poisson ~ops ~keyspace ~theta
    ~seed ~json ~baseline ~instrument ~quiet =
  let name = if shared then "openloop --shared" else "openloop" in
  let arrivals =
    if poisson then Loadgen.Arrival.Poisson rate else Loadgen.Arrival.Fixed rate
  in
  let spec_for d =
    {
      Loadgen.default_spec with
      arrivals;
      ops;
      keyspace;
      theta;
      (* Distinct but reproducible per-domain streams. *)
      seed = seed + (d * 1_000_003);
    }
  in
  let total = domains * ops in
  (* Instrumented from before the first pool exists, with a trace ring
     shard per domain. *)
  let (reports, dt, summary), clean =
    Instrument.run ~shards:domains instrument (fun () ->
        let session, summary =
          if shared then shared_pool ~domains ~keyspace ~linger ~total
          else (private_session, Fun.const None)
        in
        let reports, dt =
          drive ~name ~domains ~total ~quiet (fun d ~progress ->
              let service, release = session () in
              let r =
                Loadgen.run ~progress ~progress_every:256 (spec_for d) ~service
              in
              release ();
              r)
        in
        (reports, dt, summary ()))
  in
  let merged = Loadgen.merge_reports reports in
  Printf.printf "%s: %d domains x %d ops%s, %s %.0f ops/s (zipf %.2f, %d keys), \
                 %.3f s wall\n\n"
    name domains ops
    (if shared then " on ONE pool (group commit)" else "")
    (if poisson then "poisson" else "fixed")
    rate theta keyspace dt;
  Printf.printf "%-8s %8s %12s %9s %9s %9s %9s %9s\n" "domain" "ops"
    "thr ops/s" "resp p50" "p99" "p99.9" "svc p50" "p99";
  List.iteri (fun d r -> openloop_row (string_of_int d) r) reports;
  openloop_row "merged" merged;
  Printf.printf "\nmax backlog %.0f ns  busy %.0f ns over %.0f ns span\n"
    merged.Loadgen.max_backlog_ns merged.Loadgen.busy_ns
    (merged.Loadgen.last_end_ns -. merged.Loadgen.first_arrival_ns);
  Option.iter (fun (line, _) -> print_endline line) summary;
  (match json with
  | None -> ()
  | Some path ->
      let module J = Ptelemetry.Json in
      let doc =
        J.Obj
          ([
             ( "schema",
               J.Str
                 (if shared then "corundum-openloop-shared-v1"
                  else "corundum-openloop-v1") );
             ("domains", J.Num (float_of_int domains));
             ("rate_ops_per_s", J.Num rate);
             ("arrivals", J.Str (if poisson then "poisson" else "fixed"));
             ("ops_per_domain", J.Num (float_of_int ops));
           ]
          @ Option.fold ~none:[] ~some:(fun (_, s) -> [ ("shared", s) ]) summary
          @ [
              ( "merged",
                Loadgen.report_json
                  ~label:(if shared then "merged-shared" else "merged")
                  merged );
              ( "per_domain",
                J.List
                  (List.mapi
                     (fun d r ->
                       Loadgen.report_json ~label:(Printf.sprintf "domain-%d" d) r)
                     reports) );
            ])
      in
      write_file path (J.to_string doc);
      Printf.printf "wrote %s\n" path);
  Gate.files ~current:json ~baseline
    ~gate:(if shared then "OPENLOOP-SHARED" else "OPENLOOP")
    (if shared then Gate.openloop_shared else Gate.openloop);
  if not clean then exit 1

let usage () =
  prerr_endline
    "usage: bench [--trace FILE] [--metrics FILE] [--psan] [--psan-json FILE]\n\
    \       bench --json FILE [--baseline FILE]\n\
    \       bench --waste [--waste-json FILE] [--waste-baseline FILE]\n\
    \             [--waste-trace FILE] [--waste-capture FILE]\n\
    \       bench recovery-latency [--pool-size BYTES | --sweep]\n\
    \             [--repeats N] [--metrics FILE] [--max-p99-ns NS]\n\
    \       bench alloc-scale [--domains N] [--txs N] [--metrics FILE]\n\
    \       bench openloop [--domains N] [--rate OPS_PER_S] [--poisson]\n\
    \             [--ops N] [--keys N] [--theta T] [--seed S] [--quiet]\n\
    \             [--json FILE [--baseline FILE]] [--metrics FILE]\n\
    \             [--trace FILE] [--psan]\n\
    \       bench openloop --shared [--linger SPINS] [same flags; one pool,\n\
    \             group commit; the baseline gate pins fences/flushes per op]";
  exit 2

(* The subcommands' hand parser: an option either sets a flag or takes
   the next argument; anything else is a usage error. *)
type opt =
  | Flag of bool ref
  | Int of int ref
  | Float of float ref
  | Str of string option ref

let parse_opts opts args =
  let rec go = function
    | [] -> ()
    | name :: rest -> (
        match (List.assoc_opt name opts, rest) with
        | Some (Flag r), rest -> r := true; go rest
        | Some (Int r), v :: rest -> r := int_of_string v; go rest
        | Some (Float r), v :: rest -> r := float_of_string v; go rest
        | Some (Str r), v :: rest -> r := Some v; go rest
        | _ -> usage ())
  in
  go args

let () =
  let json = ref None and baseline = ref None and metrics = ref None in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> () (* plain run: the bechamel benchmark below *)
  | "recovery-latency" :: rest ->
      let pool_size = ref (16 * 1024 * 1024)
      and sweep = ref false
      and repeats = ref 8
      and max_p99 = ref None in
      parse_opts
        [
          ("--pool-size", Int pool_size);
          ("--sweep", Flag sweep);
          ("--repeats", Int repeats);
          ("--metrics", Str metrics);
          ("--max-p99-ns", Str max_p99);
        ]
        rest;
      let sizes =
        if !sweep then [ 4 * 1024 * 1024; 16 * 1024 * 1024; 64 * 1024 * 1024 ]
        else [ !pool_size ]
      in
      if !repeats < 1 || List.exists (fun s -> s < 1024 * 1024) sizes then
        usage ();
      run_recovery_latency ~sizes ~repeats:!repeats ~metrics_out:!metrics
        ~max_p99:(Option.map float_of_string !max_p99)
  | "alloc-scale" :: rest ->
      let domains = ref 4 and txs = ref 2000 in
      parse_opts
        [ ("--domains", Int domains); ("--txs", Int txs); ("--metrics", Str metrics) ]
        rest;
      if !domains < 1 || !txs < 1 then usage ();
      run_alloc_scale ~domains:!domains ~txs:!txs ~metrics_out:!metrics
  | "openloop" :: rest ->
      let domains = ref 4
      and rate = ref 1e6
      and poisson = ref false
      and ops = ref 10_000
      and keyspace = ref 1024
      and theta = ref 0.99
      and seed = ref 42
      and trace = ref None
      and shared = ref false
      and psan = ref false
      and linger = ref None
      and quiet = ref false in
      parse_opts
        [
          ("--shared", Flag shared);
          ("--linger", Str linger);
          ("--psan", Flag psan);
          ("--domains", Int domains);
          ("--rate", Float rate);
          ("--poisson", Flag poisson);
          ("--ops", Int ops);
          ("--keys", Int keyspace);
          ("--theta", Float theta);
          ("--seed", Int seed);
          ("--json", Str json);
          ("--baseline", Str baseline);
          ("--metrics", Str metrics);
          ("--trace", Str trace);
          ("--quiet", Flag quiet);
        ]
        rest;
      if !domains < 1 || !ops < 1 || !keyspace < 1 || !rate <= 0.0 then usage ();
      run_openloop ~shared:!shared
        ~linger:(Option.map int_of_string !linger)
        ~domains:!domains ~rate:!rate ~poisson:!poisson ~ops:!ops
        ~keyspace:!keyspace ~theta:!theta ~seed:!seed ~json:!json
        ~baseline:!baseline
        ~instrument:
          { Instrument.none with trace = !trace; metrics = !metrics; psan = !psan }
        ~quiet:!quiet
  | args ->
      let instrument, args = Instrument.strip args in
      let waste = ref false
      and waste_json = ref None
      and waste_baseline = ref None
      and waste_trace = ref None
      and waste_capture = ref None in
      parse_opts
        [
          ("--json", Str json);
          ("--baseline", Str baseline);
          ("--waste", Flag waste);
          ("--waste-json", Str waste_json);
          ("--waste-baseline", Str waste_baseline);
          ("--waste-trace", Str waste_trace);
          ("--waste-capture", Str waste_capture);
        ]
        args;
      (* --trace/--metrics/--psan: one small instrumented workload. *)
      if Instrument.active instrument then begin
        let (), clean = Instrument.run instrument instrumented_workload in
        if not clean then exit 1
      end;
      (* any --waste-* option implies --waste *)
      if
        !waste
        || List.exists Option.is_some
             [ !waste_json; !waste_baseline; !waste_trace; !waste_capture ]
      then
        run_waste ~waste_json:!waste_json ~waste_baseline:!waste_baseline
          ~waste_trace:!waste_trace ~waste_capture:!waste_capture;
      (match !json with
      | None -> ()
      | Some path ->
          write_file path (attribution_json ());
          Printf.printf "wrote %s\n" path);
      Gate.files ~gate:"BENCH" Gate.bench ~current:!json ~baseline:!baseline

let () =
  if Array.length Sys.argv > 1 then exit 0;
  let results = benchmark () in
  Printf.printf "%-40s %16s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 58 '-');
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with Some [ t ] -> t | _ -> nan
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-40s %16.1f\n" name est)
    (List.sort compare !rows)
