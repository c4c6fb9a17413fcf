(* Bechamel wall-clock benchmarks: one Test.make per table and figure of
   the paper, plus the ablation benches DESIGN.md calls out.  These
   complement the deterministic simulated-clock harnesses in bin/ (micro,
   perf, scale): bechamel answers "how fast does this library itself run
   on the host", the bin tools answer "what would it cost on PM".

   Run: dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Corundum

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

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let run_instrumented ~trace ~metrics ~psan ~psan_json =
  let psan_on = psan || psan_json <> None in
  if psan_on then Psan.enable ();
  if trace <> None then Ptelemetry.Trace.install_ring ~capacity:(1 lsl 16) ();
  if trace <> None || metrics <> None then Ptelemetry.Metrics.install ();
  instrumented_workload ();
  Ptelemetry.Trace.uninstall ();
  Ptelemetry.Metrics.uninstall ();
  (match trace with
  | None -> ()
  | Some path ->
      Ptelemetry.Trace.save_chrome path;
      write_file (path ^ ".metrics.json")
        (Ptelemetry.Json.to_string (Ptelemetry.Metrics.dump_json ()));
      Printf.printf "wrote %s (%d events) and %s.metrics.json\n" path
        (List.length (Ptelemetry.Trace.events ()))
        path);
  (match metrics with
  | None -> ()
  | Some path ->
      write_file path
        (Ptelemetry.Json.to_string (Ptelemetry.Metrics.dump_json ()));
      Printf.printf "wrote %s\n" path);
  if psan_on then begin
    Psan.disable ();
    print_string (Psan.report_text ());
    Option.iter (fun p -> write_file p (Psan.report_json ())) psan_json;
    if not (Psan.clean ()) then exit 1
  end

(* --json: the deterministic per-engine attribution mix (flushes, fences,
   logged bytes and simulated ns per op) as machine-readable JSON — the
   CI regression gate diffs this against a committed baseline.  One op
   per line so the --baseline comparison can parse it without a JSON
   library. *)
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

(* Minimal extraction from the one-op-per-line JSON above; tolerant of
   whitespace but not of reformatting — the file is machine-written. *)
let find_sub line pat =
  let n = String.length line and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = pat then Some (i + m)
    else go (i + 1)
  in
  go 0

let str_field line key =
  match find_sub line (Printf.sprintf "\"%s\": \"" key) with
  | None -> None
  | Some start ->
      String.index_from_opt line start '"'
      |> Option.map (fun j -> String.sub line start (j - start))

let num_field line key =
  match find_sub line (Printf.sprintf "\"%s\": " key) with
  | None -> None
  | Some start ->
      let stop = ref start in
      let n = String.length line in
      while
        !stop < n
        && match line.[!stop] with '0' .. '9' | '.' | '-' -> true | _ -> false
      do
        incr stop
      done;
      float_of_string_opt (String.sub line start (!stop - start))

(* (engine, op) -> (flushes_per_op, fences_per_op) rows of a bench JSON
   file.  Both persist primitives are gated: the fence count alone would
   not catch a regression that reintroduces per-mark table flushes under
   the same single commit fence. *)
let parse_persist_rows path =
  let ic = open_in path in
  let rows = ref [] and engine = ref "" in
  (try
     while true do
       let line = input_line ic in
       (match str_field line "engine" with
       | Some e -> engine := e
       | None -> ());
       match
         ( str_field line "op",
           num_field line "flushes_per_op",
           num_field line "fences_per_op" )
       with
       | Some op, Some fl, Some fe -> rows := ((!engine, op), (fl, fe)) :: !rows
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !rows

let compare_against_baseline ~current ~baseline =
  let base = parse_persist_rows baseline in
  let cur = parse_persist_rows current in
  if cur = [] then begin
    Printf.eprintf "no rows parsed from %s\n" current;
    exit 1
  end;
  let failed = ref false in
  List.iter
    (fun ((engine, op), (flushes, fences)) ->
      match List.assoc_opt (engine, op) base with
      | None ->
          Printf.printf "NEW    %-12s %-12s %.4f flushes/op %.4f fences/op\n"
            engine op flushes fences
      | Some (bfl, bfe) ->
          let regressed metric v b =
            let limit = (b *. 1.10) +. 0.01 in
            if v > limit then begin
              failed := true;
              Printf.printf "REGRESS %-12s %-12s %.4f %s/op (baseline %.4f)\n"
                engine op v metric b;
              true
            end
            else false
          in
          let r1 = regressed "flushes" flushes bfl in
          let r2 = regressed "fences" fences bfe in
          if not (r1 || r2) then
            Printf.printf
              "OK     %-12s %-12s %.4f flushes/op %.4f fences/op (baseline \
               %.4f/%.4f)\n"
              engine op flushes fences bfl bfe)
    cur;
  if !failed then begin
    prerr_endline "persist-per-op regression against BENCH baseline";
    exit 1
  end

(* --- persist-waste profile (ROADMAP item 3) ----------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The waste gate is one-directional: waste per op may only go down (a
   small epsilon absorbs float formatting).  Engines or ops absent from
   the baseline are reported but never fail — adding an engine must not
   require regenerating the baseline in the same change. *)
let compare_waste_baseline ~current ~baseline =
  let module J = Ptelemetry.Json in
  let rows doc =
    match J.mem "engines" doc with
    | Some (J.Obj engines) ->
        List.concat_map
          (fun (engine, ops) ->
            match ops with
            | J.List ops ->
                List.filter_map
                  (fun op ->
                    match
                      ( Option.bind (J.mem "op" op) J.str,
                        Option.bind (J.mem "waste_flushes_per_op" op) J.num,
                        Option.bind (J.mem "waste_fences_per_op" op) J.num )
                    with
                    | Some name, Some wf, Some wfe ->
                        Some ((engine, name), (wf, wfe))
                    | _ -> None)
                  ops
            | _ -> [])
          engines
    | _ -> []
  in
  let base = rows (J.of_string (read_file baseline)) in
  let cur = rows (J.of_string (read_file current)) in
  if cur = [] then begin
    Printf.eprintf "no waste rows parsed from %s\n" current;
    exit 1
  end;
  let failed = ref false in
  List.iter
    (fun ((engine, op), (wf, wfe)) ->
      match List.assoc_opt (engine, op) base with
      | None ->
          Printf.printf "NEW    %-12s %-12s %.4ff %.4fF waste/op\n" engine op
            wf wfe
      | Some (bf, bfe) ->
          if wf > bf +. 0.01 || wfe > bfe +. 0.01 then begin
            failed := true;
            Printf.printf
              "REGRESS %-12s %-12s %.4ff %.4fF waste/op (baseline %.4f/%.4f)\n"
              engine op wf wfe bf bfe
          end
          else
            Printf.printf
              "OK     %-12s %-12s %.4ff %.4fF waste/op (baseline %.4f/%.4f)\n"
              engine op wf wfe bf bfe)
    cur;
  if !failed then begin
    prerr_endline "persist-waste regression against PPROF baseline";
    exit 1
  end

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
  match (waste_json, waste_baseline) with
  | Some current, Some b -> compare_waste_baseline ~current ~baseline:b
  | None, Some _ ->
      prerr_endline "--waste-baseline requires --waste-json FILE";
      exit 2
  | _ -> ()

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
  Ptelemetry.Metrics.reset ();
  Ptelemetry.Metrics.install ();
  let failed = ref false in
  List.iter
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
          Printf.printf "  phase %-10s mean %10.0f ns/cycle\n" name (dur /. per))
        !phase_acc;
      match max_p99 with
      | Some bound when p99 > bound ->
          failed := true;
          Printf.printf "  FAIL: p99 %.0f ns exceeds bound %.0f ns\n" p99 bound
      | _ -> ())
    sizes;
  Ptelemetry.Metrics.uninstall ();
  (match metrics_out with
  | None -> ()
  | Some path ->
      write_file path
        (Ptelemetry.Json.to_string (Ptelemetry.Metrics.dump_json ()));
      Printf.printf "wrote %s\n" path);
  if !failed then exit 1

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
  Ptelemetry.Metrics.install ();
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
  let t0 = Unix.gettimeofday () in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  let dt = Unix.gettimeofday () -. t0 in
  Ptelemetry.Metrics.uninstall ();
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
    stats;
  match metrics_out with
  | None -> ()
  | Some path ->
      write_file path
        (Ptelemetry.Json.to_string (Ptelemetry.Metrics.dump_json ()));
      Printf.printf "\nwrote %s\n" path

(* --- openloop: open-loop latency under multi-domain load ---------------- *)

(* N domains, each driving a private kvstore engine under an open-loop
   arrival schedule (Loadgen): arrivals are scheduled in simulated time
   independent of completions, so queueing delay lands in response time
   instead of silently stretching the schedule (no coordinated
   omission).  Domains are fully independent — private pool, private
   device, private rng streams — so the merged report is a
   deterministic function of the spec, whatever the host scheduling:
   that is what lets OPENLOOP_baseline.json be a tight CI gate. *)

let openloop_domain_report ~spec =
  let module E = Engines.Corundum_engine in
  let module KV = Workloads.Kvstore.Make (E) in
  let eng = E.create ~latency:Pmem.Latency.optane ~size:(16 * 1024 * 1024) () in
  let kv = KV.create eng in
  let dev = Pool_impl.device (E.pool eng) in
  fun ~progress ->
    Loadgen.run ~progress ~progress_every:256 spec ~service:(fun op ->
        let t0 = Pmem.Device.simulated_ns dev in
        let key = Int64.of_int (Loadgen.op_key op) in
        (match op with
        | Loadgen.Read _ -> ignore (KV.get kv key)
        | Loadgen.Update _ | Loadgen.Insert _ -> KV.put kv key key
        | Loadgen.Delete _ -> ignore (KV.del kv key));
        Pmem.Device.simulated_ns dev -. t0)

let openloop_row label (r : Loadgen.report) =
  let q h p = Ptelemetry.Hdr.quantile (Ptelemetry.Hdr.snapshot h) p in
  Printf.printf "%-8s %8d %12.0f %9d %9d %9d %9d %9d\n" label r.Loadgen.ops
    (Loadgen.throughput r) (q r.Loadgen.response 0.5) (q r.Loadgen.response 0.99)
    (q r.Loadgen.response 0.999) (q r.Loadgen.service 0.5)
    (q r.Loadgen.service 0.99)

(* Compare the merged report's headline numbers against a committed
   baseline.  The run is deterministic in simulated time, but the gate
   still allows 10% so a legitimate cost-model retune upstream doesn't
   demand a lockstep baseline refresh. *)
let compare_openloop_baseline ~current ~baseline =
  let module J = Ptelemetry.Json in
  let doc path = J.of_string (read_file path) in
  let a = doc baseline and b = doc current in
  let probe doc ks =
    List.fold_left (fun acc k -> Option.bind acc (J.mem k)) (Some doc) ks
    |> Fun.flip Option.bind J.num
  in
  let keys =
    [
      [ "merged"; "throughput_ops_per_s" ];
      [ "merged"; "response"; "p50" ];
      [ "merged"; "response"; "p99" ];
      [ "merged"; "response"; "p999" ];
      [ "merged"; "service"; "p50" ];
      [ "merged"; "service"; "p99" ];
    ]
  in
  let failed = ref false in
  List.iter
    (fun ks ->
      let name = String.concat "." ks in
      match (probe a ks, probe b ks) with
      | Some base, Some cur ->
          let tol = 0.10 *. Float.max (Float.abs base) 1.0 in
          if Float.abs (cur -. base) > tol then begin
            failed := true;
            Printf.printf "REGRESS %-32s %.0f (baseline %.0f)\n" name cur base
          end
          else Printf.printf "OK      %-32s %.0f (baseline %.0f)\n" name cur base
      | _ ->
          failed := true;
          Printf.printf "REGRESS %-32s missing on one side\n" name)
    keys;
  if !failed then begin
    prerr_endline "openloop regression against OPENLOOP baseline";
    exit 1
  end

let run_openloop ~domains ~rate ~poisson ~ops ~keyspace ~theta ~seed ~json
    ~baseline ~metrics_out ~trace_out ~quiet =
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
  (* Telemetry on for the whole run: a per-domain sharded trace ring and
     the metrics registry, so the exported artifacts exercise the
     multicore registry and the tid-merged Chrome trace. *)
  Ptelemetry.Metrics.reset ();
  if trace_out <> None then
    Ptelemetry.Trace.install_ring ~capacity:(1 lsl 16) ~shards:domains ();
  if metrics_out <> None then Ptelemetry.Metrics.install ();
  let total = domains * ops in
  let done_ops = Atomic.make 0 in
  let live = Atomic.make domains in
  let worker d =
    (* Trap everything: a worker that died silently would leave [live]
       stuck and the wait loop below spinning forever — surface the
       exception at join instead. *)
    let r =
      try
        let run = openloop_domain_report ~spec:(spec_for d) in
        let prev = ref 0 in
        let progress ~done_ops:n _ =
          ignore (Atomic.fetch_and_add done_ops (n - !prev));
          prev := n
        in
        Ok (run ~progress)
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
      Printf.eprintf "\ropenloop: %d domains  %*d/%d ops" domains
        (String.length (string_of_int total))
        (Atomic.get done_ops) total;
    Unix.sleepf 0.05
  done;
  let reports =
    List.map
      (fun h ->
        match Domain.join h with
        | Ok r -> r
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      handles
  in
  if show_progress then Printf.eprintf "\r%s\r" (String.make 60 ' ');
  let dt = Unix.gettimeofday () -. t0 in
  Ptelemetry.Trace.uninstall ();
  Ptelemetry.Metrics.uninstall ();
  let merged = Loadgen.merge_reports reports in
  Printf.printf
    "openloop: %d domains x %d ops, %s %.0f ops/s (zipf %.2f, %d keys), %.3f \
     s wall\n\n"
    domains ops
    (if poisson then "poisson" else "fixed")
    rate theta keyspace dt;
  Printf.printf "%-8s %8s %12s %9s %9s %9s %9s %9s\n" "domain" "ops"
    "thr ops/s" "resp p50" "p99" "p99.9" "svc p50" "p99";
  List.iteri (fun d r -> openloop_row (string_of_int d) r) reports;
  openloop_row "merged" merged;
  Printf.printf "\nmax backlog %.0f ns  busy %.0f ns over %.0f ns span\n"
    merged.Loadgen.max_backlog_ns merged.Loadgen.busy_ns
    (merged.Loadgen.last_end_ns -. merged.Loadgen.first_arrival_ns);
  (match trace_out with
  | None -> ()
  | Some path ->
      Ptelemetry.Trace.save_chrome path;
      Printf.printf "wrote %s (%d events, %d dropped)\n" path
        (List.length (Ptelemetry.Trace.events ()))
        (Ptelemetry.Trace.dropped ()));
  (match metrics_out with
  | None -> ()
  | Some path ->
      write_file path
        (Ptelemetry.Json.to_string (Ptelemetry.Metrics.dump_json ()));
      Printf.printf "wrote %s\n" path);
  (match json with
  | None -> ()
  | Some path ->
      let doc =
        Ptelemetry.Json.Obj
          [
            ("schema", Ptelemetry.Json.Str "corundum-openloop-v1");
            ("domains", Ptelemetry.Json.Num (float_of_int domains));
            ("rate_ops_per_s", Ptelemetry.Json.Num rate);
            ( "arrivals",
              Ptelemetry.Json.Str (if poisson then "poisson" else "fixed") );
            ("ops_per_domain", Ptelemetry.Json.Num (float_of_int ops));
            ("merged", Loadgen.report_json ~label:"merged" merged);
            ( "per_domain",
              Ptelemetry.Json.List
                (List.mapi
                   (fun d r ->
                     Loadgen.report_json ~label:(Printf.sprintf "domain-%d" d) r)
                   reports) );
          ]
      in
      write_file path (Ptelemetry.Json.to_string doc);
      Printf.printf "wrote %s\n" path);
  match (json, baseline) with
  | Some current, Some b -> compare_openloop_baseline ~current ~baseline:b
  | None, Some _ ->
      prerr_endline "--baseline requires --json FILE for the current run";
      exit 2
  | _ -> ()

(* --- openloop --shared: N domains, ONE pool, cross-tx group commit ----- *)

(* All domains drive one shared kvstore on a single pool: each worker
   registers for a dedicated journal slot (and allocator stripe), and
   the pool's group-commit combiner merges concurrent commits into
   fence epochs — K simultaneous committers share one fence.  Unlike
   the private-pool mode, the interleaving (and with it the latency
   distribution) depends on host scheduling, so the CI gate pins only
   what grouping can never worsen: fences-per-op and flushes-per-op
   against a committed solo-cost ceiling.  Service times are global
   simulated-clock deltas on the shared device, so they include the
   clock advance of concurrently running domains — a deliberate
   contention-inflated measure, reported but not gated. *)

let run_openloop_shared ~domains ~rate ~poisson ~ops ~keyspace ~theta ~seed
    ~linger ~json ~baseline ~psan ~quiet =
  let module E = Engines.Corundum_engine in
  let module KV = Workloads.Kvstore.Make (E) in
  if psan then Psan.enable ();
  let nslots = max 8 domains in
  let pool =
    Pool_impl.create
      ~config:
        { Pool_impl.size = 64 * 1024 * 1024; nslots; slot_size = 256 * 1024 }
      ~latency:Pmem.Latency.optane ()
  in
  Pool_impl.set_group_commit ?linger pool true;
  let eng = E.of_pool pool in
  let dev = Pool_impl.device pool in
  let kv = KV.create ~nbuckets:1024 eng in
  (* Deterministic single-domain preload so reads and deletes hit. *)
  for k = 0 to keyspace - 1 do
    KV.put kv (Int64.of_int k) (Int64.of_int k)
  done;
  (* Fresh combiner after the (all-solo) preload so occupancy stats
     describe only the contended phase. *)
  Pool_impl.set_group_commit ?linger pool true;
  let s0 = Pmem.Device.stats dev in
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
      seed = seed + (d * 1_000_003);
    }
  in
  let total = domains * ops in
  let done_ops = Atomic.make 0 in
  let live = Atomic.make domains in
  let worker d =
    let r =
      try
        ignore (Pool_impl.register_domain pool);
        let prev = ref 0 in
        let progress ~done_ops:n _ =
          ignore (Atomic.fetch_and_add done_ops (n - !prev));
          prev := n
        in
        let rep =
          Loadgen.run ~progress ~progress_every:256 (spec_for d)
            ~service:(fun op ->
              let t0 = Pmem.Device.simulated_ns dev in
              let key = Int64.of_int (Loadgen.op_key op) in
              (match op with
              | Loadgen.Read _ -> ignore (KV.get kv key)
              | Loadgen.Update _ | Loadgen.Insert _ -> KV.put kv key key
              | Loadgen.Delete _ -> ignore (KV.del kv key));
              Pmem.Device.simulated_ns dev -. t0)
        in
        Pool_impl.unregister_domain pool;
        Ok rep
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
      Printf.eprintf "\ropenloop --shared: %d domains  %*d/%d ops" domains
        (String.length (string_of_int total))
        (Atomic.get done_ops) total;
    Unix.sleepf 0.05
  done;
  let reports =
    List.map
      (fun h ->
        match Domain.join h with
        | Ok r -> r
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      handles
  in
  if show_progress then Printf.eprintf "\r%s\r" (String.make 70 ' ');
  let dt = Unix.gettimeofday () -. t0 in
  let s1 = Pmem.Device.stats dev in
  let gstats =
    match Pool_impl.group_commit_stats pool with
    | Some g -> g
    | None -> assert false (* enabled above *)
  in
  let per_op n = float_of_int n /. float_of_int total in
  let fences_per_op = per_op (s1.Pmem.Device.fences - s0.Pmem.Device.fences) in
  let flushes_per_op =
    per_op (s1.Pmem.Device.flush_calls - s0.Pmem.Device.flush_calls)
  in
  let module G = Pjournal.Group_commit in
  let occ_mean =
    if gstats.G.epochs = 0 then 0.0
    else float_of_int gstats.G.commits /. float_of_int gstats.G.epochs
  in
  let solo_frac =
    if gstats.G.epochs = 0 then 0.0
    else float_of_int gstats.G.solo_epochs /. float_of_int gstats.G.epochs
  in
  let merged = Loadgen.merge_reports reports in
  Printf.printf
    "openloop --shared: %d domains x %d ops on ONE pool (group commit), %s \
     %.0f ops/s (zipf %.2f, %d keys), %.3f s wall\n\n"
    domains ops
    (if poisson then "poisson" else "fixed")
    rate theta keyspace dt;
  Printf.printf "%-8s %8s %12s %9s %9s %9s %9s %9s\n" "domain" "ops"
    "thr ops/s" "resp p50" "p99" "p99.9" "svc p50" "p99";
  List.iteri (fun d r -> openloop_row (string_of_int d) r) reports;
  openloop_row "merged" merged;
  Printf.printf
    "\nfences/op %.3f  flushes/op %.3f  epochs %d  occupancy mean %.2f max %d \
     solo %.0f%%\n"
    fences_per_op flushes_per_op gstats.G.epochs occ_mean
    gstats.G.max_occupancy (100.0 *. solo_frac);
  (match json with
  | None -> ()
  | Some path ->
      let doc =
        Ptelemetry.Json.Obj
          [
            ("schema", Ptelemetry.Json.Str "corundum-openloop-shared-v1");
            ("domains", Ptelemetry.Json.Num (float_of_int domains));
            ("rate_ops_per_s", Ptelemetry.Json.Num rate);
            ("ops_per_domain", Ptelemetry.Json.Num (float_of_int ops));
            ( "shared",
              Ptelemetry.Json.Obj
                [
                  ("fences_per_op", Ptelemetry.Json.Num fences_per_op);
                  ("flushes_per_op", Ptelemetry.Json.Num flushes_per_op);
                  ("epochs", Ptelemetry.Json.Num (float_of_int gstats.G.epochs));
                  ( "commits",
                    Ptelemetry.Json.Num (float_of_int gstats.G.commits) );
                  ("occupancy_mean", Ptelemetry.Json.Num occ_mean);
                  ( "occupancy_max",
                    Ptelemetry.Json.Num (float_of_int gstats.G.max_occupancy) );
                  ("solo_fraction", Ptelemetry.Json.Num solo_frac);
                ] );
            ("merged", Loadgen.report_json ~label:"merged-shared" merged);
          ]
      in
      write_file path (Ptelemetry.Json.to_string doc);
      Printf.printf "wrote %s\n" path);
  (match (json, baseline) with
  | Some current, Some b ->
      (* The only cross-host-stable invariant: grouping may only SAVE
         persist primitives, so the per-op counts must stay at or below
         the committed solo ceilings whatever occupancy this host's
         scheduling produced. *)
      let module J = Ptelemetry.Json in
      let probe doc ks =
        List.fold_left (fun acc k -> Option.bind acc (J.mem k)) (Some doc) ks
        |> Fun.flip Option.bind J.num
      in
      let a = J.of_string (read_file b) and c = J.of_string (read_file current) in
      let failed = ref false in
      List.iter
        (fun (cur_key, ceil_key) ->
          match (probe c [ "shared"; cur_key ], probe a [ "shared"; ceil_key ]) with
          | Some cur, Some ceil ->
              if cur > ceil then begin
                failed := true;
                Printf.printf "REGRESS shared.%-16s %.3f (ceiling %.3f)\n"
                  cur_key cur ceil
              end
              else
                Printf.printf "OK      shared.%-16s %.3f (ceiling %.3f)\n"
                  cur_key cur ceil
          | _ ->
              failed := true;
              Printf.printf "REGRESS shared.%-16s missing on one side\n" cur_key)
        [
          ("fences_per_op", "max_fences_per_op");
          ("flushes_per_op", "max_flushes_per_op");
        ];
      if !failed then begin
        prerr_endline "openloop --shared regression against OPENLOOP baseline";
        exit 1
      end
  | None, Some _ ->
      prerr_endline "--baseline requires --json FILE for the current run";
      exit 2
  | _ -> ());
  if psan then begin
    Psan.disable ();
    print_string (Psan.report_text ());
    if not (Psan.clean ()) then exit 1
  end

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
    \             [--trace FILE]\n\
    \       bench openloop --shared [--psan] [--linger SPINS] [same flags;\n\
    \             one pool, group commit; the baseline gate pins\n\
    \             fences/flushes per op]";
  exit 2

let () =
  let trace = ref None
  and metrics = ref None
  and psan = ref false
  and psan_json = ref None
  and json = ref None
  and baseline = ref None
  and waste = ref false
  and waste_json = ref None
  and waste_baseline = ref None
  and waste_trace = ref None
  and waste_capture = ref None in
  let rec parse = function
    | [] -> ()
    | "--trace" :: f :: rest ->
        trace := Some f;
        parse rest
    | "--metrics" :: f :: rest ->
        metrics := Some f;
        parse rest
    | "--psan" :: rest ->
        psan := true;
        parse rest
    | "--psan-json" :: f :: rest ->
        psan_json := Some f;
        parse rest
    | "--json" :: f :: rest ->
        json := Some f;
        parse rest
    | "--baseline" :: f :: rest ->
        baseline := Some f;
        parse rest
    | "--waste" :: rest ->
        waste := true;
        parse rest
    | "--waste-json" :: f :: rest ->
        waste := true;
        waste_json := Some f;
        parse rest
    | "--waste-baseline" :: f :: rest ->
        waste := true;
        waste_baseline := Some f;
        parse rest
    | "--waste-trace" :: f :: rest ->
        waste := true;
        waste_trace := Some f;
        parse rest
    | "--waste-capture" :: f :: rest ->
        waste := true;
        waste_capture := Some f;
        parse rest
    | _ -> usage ()
  in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> () (* plain run: the bechamel benchmark below *)
  | "recovery-latency" :: rest ->
      let sizes = ref [ 16 * 1024 * 1024 ]
      and repeats = ref 8
      and metrics_out = ref None
      and max_p99 = ref None in
      let rec parse_rl = function
        | [] -> ()
        | "--pool-size" :: n :: rest ->
            sizes := [ int_of_string n ];
            parse_rl rest
        | "--sweep" :: rest ->
            sizes :=
              [ 4 * 1024 * 1024; 16 * 1024 * 1024; 64 * 1024 * 1024 ];
            parse_rl rest
        | "--repeats" :: n :: rest ->
            repeats := int_of_string n;
            parse_rl rest
        | "--metrics" :: f :: rest ->
            metrics_out := Some f;
            parse_rl rest
        | "--max-p99-ns" :: n :: rest ->
            max_p99 := Some (float_of_string n);
            parse_rl rest
        | _ -> usage ()
      in
      parse_rl rest;
      if !repeats < 1 || List.exists (fun s -> s < 1024 * 1024) !sizes then
        usage ();
      run_recovery_latency ~sizes:!sizes ~repeats:!repeats
        ~metrics_out:!metrics_out ~max_p99:!max_p99
  | "alloc-scale" :: rest ->
      let domains = ref 4 and txs = ref 2000 and metrics_out = ref None in
      let rec parse_scale = function
        | [] -> ()
        | "--domains" :: n :: rest ->
            domains := int_of_string n;
            parse_scale rest
        | "--txs" :: n :: rest ->
            txs := int_of_string n;
            parse_scale rest
        | "--metrics" :: f :: rest ->
            metrics_out := Some f;
            parse_scale rest
        | _ -> usage ()
      in
      parse_scale rest;
      if !domains < 1 || !txs < 1 then usage ();
      run_alloc_scale ~domains:!domains ~txs:!txs ~metrics_out:!metrics_out
  | "openloop" :: rest ->
      let domains = ref 4
      and rate = ref 1e6
      and poisson = ref false
      and ops = ref 10_000
      and keyspace = ref 1024
      and theta = ref 0.99
      and seed = ref 42
      and json = ref None
      and baseline = ref None
      and metrics_out = ref None
      and trace_out = ref None
      and shared = ref false
      and psan = ref false
      and linger = ref None
      and quiet = ref false in
      let rec parse_ol = function
        | [] -> ()
        | "--shared" :: rest ->
            shared := true;
            parse_ol rest
        | "--linger" :: n :: rest ->
            linger := Some (int_of_string n);
            parse_ol rest
        | "--psan" :: rest ->
            psan := true;
            parse_ol rest
        | "--domains" :: n :: rest ->
            domains := int_of_string n;
            parse_ol rest
        | "--rate" :: r :: rest ->
            rate := float_of_string r;
            parse_ol rest
        | "--poisson" :: rest ->
            poisson := true;
            parse_ol rest
        | "--ops" :: n :: rest ->
            ops := int_of_string n;
            parse_ol rest
        | "--keys" :: n :: rest ->
            keyspace := int_of_string n;
            parse_ol rest
        | "--theta" :: t :: rest ->
            theta := float_of_string t;
            parse_ol rest
        | "--seed" :: s :: rest ->
            seed := int_of_string s;
            parse_ol rest
        | "--json" :: f :: rest ->
            json := Some f;
            parse_ol rest
        | "--baseline" :: f :: rest ->
            baseline := Some f;
            parse_ol rest
        | "--metrics" :: f :: rest ->
            metrics_out := Some f;
            parse_ol rest
        | "--trace" :: f :: rest ->
            trace_out := Some f;
            parse_ol rest
        | "--quiet" :: rest ->
            quiet := true;
            parse_ol rest
        | _ -> usage ()
      in
      parse_ol rest;
      if !domains < 1 || !ops < 1 || !keyspace < 1 || !rate <= 0.0 then usage ();
      if !shared then
        run_openloop_shared ~domains:!domains ~rate:!rate ~poisson:!poisson
          ~ops:!ops ~keyspace:!keyspace ~theta:!theta ~seed:!seed
          ~linger:!linger ~json:!json ~baseline:!baseline ~psan:!psan
          ~quiet:!quiet
      else
        run_openloop ~domains:!domains ~rate:!rate ~poisson:!poisson ~ops:!ops
          ~keyspace:!keyspace ~theta:!theta ~seed:!seed ~json:!json
          ~baseline:!baseline ~metrics_out:!metrics_out ~trace_out:!trace_out
          ~quiet:!quiet
  | args ->
      parse args;
      if !trace <> None || !metrics <> None || !psan || !psan_json <> None then
        run_instrumented ~trace:!trace ~metrics:!metrics ~psan:!psan
          ~psan_json:!psan_json;
      if !waste then
        run_waste ~waste_json:!waste_json ~waste_baseline:!waste_baseline
          ~waste_trace:!waste_trace ~waste_capture:!waste_capture;
      (match !json with
      | None -> ()
      | Some path ->
          write_file path (attribution_json ());
          Printf.printf "wrote %s\n" path);
      (match (!json, !baseline) with
      | Some current, Some b -> compare_against_baseline ~current ~baseline:b
      | None, Some _ ->
          prerr_endline "--baseline requires --json FILE for the current run";
          exit 2
      | _ -> ())

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
