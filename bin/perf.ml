(* Reproduces Figure 1: execution time of BST (INS/CHK), KVStore
   (PUT/GET) and B+Tree (INS/CHK/REM/RAND) across the five engines
   (PMDK, Atlas, Mnemosyne, go-pmem, Corundum — same algorithms, different
   logging strategies).  Time is the device's calibrated simulated clock,
   so the comparison reflects PM traffic, not host noise.
   Writes results/perf.csv. *)

let ops = [ "BST:INS"; "BST:CHK"; "KV:PUT"; "KV:GET";
            "BPT:INS"; "BPT:CHK"; "BPT:REM"; "BPT:RAND" ]

let simulated pool = Pmem.Device.simulated_ns (Corundum.Pool_impl.device pool)

(* One engine's full column: the structures persist across operations
   (CHK runs on the tree INS built), mirroring the paper's runs. *)
let run_engine (module E : Engines.Engine_sig.S) ~n ~size =
  let module Bst = Workloads.Bst.Make (E) in
  let module Kv = Workloads.Kvstore.Make (E) in
  let module Bpt = Workloads.Bptree.Make (E) in
  let results = ref [] in
  let record label pool f =
    let t0 = simulated pool in
    f ();
    results := (label, (simulated pool -. t0) /. 1e9) :: !results
  in
  let rng = Random.State.make [| 0xFEED |] in
  let key _ = Int64.of_int (Random.State.int rng (4 * n)) in

  (* BST *)
  let bst = E.create ~size () in
  record "BST:INS" (E.pool bst) (fun () ->
      for i = 0 to n - 1 do
        Bst.insert bst (key i)
      done);
  record "BST:CHK" (E.pool bst) (fun () ->
      for i = 0 to n - 1 do
        ignore (Bst.mem bst (key i))
      done);

  (* KVStore *)
  let kve = E.create ~size () in
  let kv = Kv.create kve in
  record "KV:PUT" (E.pool kve) (fun () ->
      for i = 0 to n - 1 do
        Kv.put kv (key i) (Int64.of_int i)
      done);
  record "KV:GET" (E.pool kve) (fun () ->
      for i = 0 to n - 1 do
        ignore (Kv.get kv (key i))
      done);

  (* B+Tree *)
  let bpt = E.create ~size () in
  record "BPT:INS" (E.pool bpt) (fun () ->
      for i = 0 to n - 1 do
        Bpt.insert bpt (key i) (Int64.of_int i)
      done);
  record "BPT:CHK" (E.pool bpt) (fun () ->
      for i = 0 to n - 1 do
        ignore (Bpt.find bpt (key i))
      done);
  record "BPT:REM" (E.pool bpt) (fun () ->
      for i = 0 to n - 1 do
        ignore (Bpt.remove bpt (key i))
      done);
  record "BPT:RAND" (E.pool bpt) (fun () ->
      for i = 0 to n - 1 do
        let k = key i in
        match Random.State.int rng 10 with
        | 0 | 1 | 2 -> ignore (Bpt.remove bpt k)
        | 3 | 4 | 5 | 6 -> Bpt.insert bpt k (Int64.of_int i)
        | _ -> ignore (Bpt.find bpt k)
      done);
  List.rev !results

(* Table-5-style decomposition: flushes/fences/logged-bytes per basic
   operation under each engine's logging strategy. *)
let print_attribution selected =
  let columns =
    List.map (fun (name, e) -> (name, Engines.Attribution.measure e)) selected
  in
  print_newline ();
  print_string (Engines.Attribution.table columns);
  (* The same raw-pool probe mix [pool_info top] runs, for cross-checking
     the two surfaces against each other. *)
  let module A = Engines.Attribution in
  let pool = Engines.Engine_common.create_pool ~size:(16 * 1024 * 1024) () in
  let s = A.probe_summary pool in
  Printf.printf
    "\nraw-pool probe mix (%d txs, as pool_info top): %.2f flushes/tx, %.2f \
     fences/tx, %.1f logged B/tx\n"
    s.A.probe_txs s.A.flushes_per_tx s.A.fences_per_tx s.A.logged_per_tx

let select only =
  let selected =
    match only with
    | [] -> Engines.Registry.all
    | names ->
        List.filter (fun (n, _) -> List.mem n names) Engines.Registry.all
  in
  if selected = [] then begin
    Printf.eprintf "no matching engines; known: %s\n"
      (String.concat ", " (List.map fst Engines.Registry.all));
    exit 2
  end;
  selected

let run_all ~n ~size ~only csv_path =
  let selected = select only in
  let columns =
    List.map (fun (name, e) -> (name, run_engine e ~n ~size)) selected
  in
  Printf.printf "Simulated execution time (s), %d ops per cell\n\n" n;
  Printf.printf "%-10s" "op";
  List.iter (fun (name, _) -> Printf.printf " %12s" name) columns;
  Printf.printf "\n%s\n" (String.make (10 + (13 * List.length columns)) '-');
  List.iter
    (fun op ->
      Printf.printf "%-10s" op;
      List.iter
        (fun (_, cells) -> Printf.printf " %12.3f" (List.assoc op cells))
        columns;
      print_newline ())
    ops;
  (* Normalized view: how much slower than Corundum (the paper's bars). *)
  Option.iter
    (fun corundum ->
      Printf.printf "\nRelative to corundum (x)\n%-10s" "op";
      List.iter (fun (name, _) -> Printf.printf " %12s" name) columns;
      Printf.printf "\n";
      List.iter
        (fun op ->
          Printf.printf "%-10s" op;
          let base = List.assoc op corundum in
          List.iter
            (fun (_, cells) ->
              Printf.printf " %12.2f" (List.assoc op cells /. base))
            columns;
          print_newline ())
        ops)
    (List.assoc_opt "corundum" columns);
  match csv_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc "op,%s\n" (String.concat "," (List.map fst columns));
      List.iter
        (fun op ->
          Printf.fprintf oc "%s,%s\n" op
            (String.concat ","
               (List.map
                  (fun (_, cells) ->
                    Printf.sprintf "%.4f" (List.assoc op cells))
                  columns)))
        ops;
      close_out oc;
      Printf.printf "\nwrote %s\n" path

open Cmdliner

let n_arg =
  Arg.(value & opt int 100_000 & info [ "n" ] ~doc:"Operations per cell.")

let size_arg =
  Arg.(
    value
    & opt int (128 * 1024 * 1024)
    & info [ "size" ] ~doc:"Pool size in bytes.")

let csv_arg =
  Arg.(
    value
    & opt (some string) (Some "results/perf.csv")
    & info [ "csv" ] ~doc:"CSV output path (or 'none').")

let only_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"ENGINE" ~doc:"Restrict to the named engines.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:
          "Write a Chrome trace_event JSON of the run to $(docv) (load in \
           chrome://tracing or Perfetto) and a metrics dump to \
           $(docv).metrics.json." ~docv:"FILE")

let attr_arg =
  Arg.(
    value & flag
    & info [ "attr" ]
        ~doc:"Print the per-engine flush/fence attribution table.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ]
        ~doc:
          "Write the metrics-registry JSON to $(docv) without retaining a \
           trace ring (composable with --trace, which additionally writes \
           FILE.metrics.json next to the trace)." ~docv:"FILE")

let psan_arg =
  Arg.(
    value & flag
    & info [ "psan" ]
        ~doc:
          "Run the persistency sanitizer over the whole run and print its \
           report; exit non-zero on any violation (warnings allowed).")

let waste_arg =
  Arg.(
    value & flag
    & info [ "waste" ]
        ~doc:
          "Print the per-engine persist-waste table: actual vs minimal \
           flush/fence schedule on the attribution windows, with the excess \
           classified into elision classes (E1-E4).")

let psan_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "psan-json" ]
        ~doc:"Write the psan report as JSON to $(docv) (implies --psan)."
        ~docv:"FILE")

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let main n size csv only trace metrics attr waste psan psan_json =
  let csv = match csv with Some "none" -> None | x -> x in
  (match csv with
  | Some p -> ( try Unix.mkdir (Filename.dirname p) 0o755 with _ -> ())
  | None -> ());
  let psan_on = psan || psan_json <> None in
  if psan_on then Psan.enable ();
  Option.iter (fun _ -> Ptelemetry.Trace.install_ring ~capacity:(1 lsl 18) ())
    trace;
  if trace <> None || metrics <> None then Ptelemetry.Metrics.install ();
  if waste then begin
    let columns =
      List.map
        (fun (name, e) -> (name, Engines.Waste.measure e))
        (select only)
    in
    print_string (Engines.Waste.table columns);
    print_newline ()
  end;
  run_all ~n ~size ~only csv;
  if attr then print_attribution (select only);
  (match trace with
  | None -> ()
  | Some path ->
      Ptelemetry.Trace.uninstall ();
      Ptelemetry.Metrics.uninstall ();
      Ptelemetry.Trace.save_chrome path;
      write_file (path ^ ".metrics.json")
        (Ptelemetry.Json.to_string (Ptelemetry.Metrics.dump_json ()));
      let dropped = Ptelemetry.Trace.dropped () in
      Printf.printf "wrote %s (%d events%s) and %s.metrics.json\n" path
        (List.length (Ptelemetry.Trace.events ()))
        (if dropped > 0 then Printf.sprintf ", %d dropped" dropped else "")
        path);
  (match metrics with
  | None -> ()
  | Some path ->
      write_file path
        (Ptelemetry.Json.to_string (Ptelemetry.Metrics.dump_json ()));
      Ptelemetry.Metrics.uninstall ();
      Printf.printf "wrote %s\n" path);
  if psan_on then begin
    Psan.disable ();
    print_string (Psan.report_text ());
    Option.iter (fun p -> write_file p (Psan.report_json ())) psan_json;
    if not (Psan.clean ()) then exit 1
  end

let cmd =
  Cmd.v
    (Cmd.info "perf"
       ~doc:"Reproduce Figure 1 (engine comparison on BST/KVStore/B+Tree)")
    Term.(const main $ n_arg $ size_arg $ csv_arg $ only_arg $ trace_arg
          $ metrics_arg $ attr_arg $ waste_arg $ psan_arg $ psan_json_arg)

let () = exit (Cmd.eval cmd)
