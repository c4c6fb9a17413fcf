(* pprof: offline persist-waste profiler over saved probe captures
   (corundum-probe-v1 JSON, written by Ptelemetry.Probe.save or the bench
   --waste-capture path).

     pprof_cli report CAPTURE [--json FILE] [--chrome FILE]
     pprof_cli diff BASELINE CURRENT
     pprof_cli replay CAPTURE [--psan]

   [report] analyzes one capture against the minimal flush/fence
   schedule; [diff] compares the waste of two captures of the same
   workload; [replay] re-emits a capture through the probe bus — with
   --psan into an enabled sanitizer, cross-checking that every psan
   waste warning (W1/W2) is explained by a pprof elision finding
   (E2/E1). *)

module Tr = Ptelemetry.Trace
module Json = Ptelemetry.Json

let write_file = Harness.Instrument.write_file

let load path =
  match Ptelemetry.Probe.load path with
  | evs -> evs
  | exception Sys_error msg ->
      Printf.eprintf "pprof: %s\n" msg;
      exit 2
  | exception Failure msg ->
      Printf.eprintf "pprof: %s: %s\n" path msg;
      exit 2

let run_report capture json chrome =
  let events = load capture in
  let r = Pprof.analyze ~label:(Filename.basename capture) events in
  print_string (Pprof.report_text r);
  (match json with
  | None -> ()
  | Some path ->
      write_file path (Json.to_string (Pprof.report_json r));
      Printf.printf "wrote %s\n" path);
  match chrome with
  | None -> ()
  | Some path ->
      Tr.install_ring ~capacity:(1 lsl 18) ();
      Pprof.replay events;
      Pprof.emit_overlay r;
      Tr.save_chrome path;
      Tr.uninstall ();
      Printf.printf "wrote %s\n" path

let run_diff baseline current =
  let a = Pprof.analyze ~label:(Filename.basename baseline) (load baseline) in
  let b = Pprof.analyze ~label:(Filename.basename current) (load current) in
  print_string (Pprof.diff_text a b);
  (* The gate direction: the diff fails only when waste grew. *)
  let row key waste =
    let n r = Some (float_of_int (waste r)) in
    { Harness.Gate.key; rule = Upper { rel = 0.0; abs = 0.0 }; base = n a; cur = n b }
  in
  if
    not
      (Harness.Gate.report ~gate:"PPROF-DIFF"
         [ row "waste_flushes" Pprof.waste_flushes; row "waste_fences" Pprof.waste_fences ])
  then exit 1

(* One psan warning is explained by one pprof finding when the classes
   correspond (W1 -> E2 write-back waste, W2 -> E1 fence waste) on the
   same device — W1 additionally anchored to an overlapping byte
   range.  The containment is one-directional by design: pprof also
   sees waste psan cannot (advisory E3 flushes, coalescable E4 runs,
   single collapsible fences). *)
let explains (w : Psan.finding) (f : Pprof.finding) =
  f.Pprof.dev = w.Psan.dev
  &&
  match w.Psan.cls with
  | Psan.W1 ->
      f.Pprof.cls = Pprof.E2 && f.Pprof.kind = `Flush
      && w.Psan.off < f.Pprof.off + f.Pprof.len
      && f.Pprof.off < w.Psan.off + w.Psan.len
  | Psan.W2 -> f.Pprof.cls = Pprof.E1 && f.Pprof.kind = `Fence
  | _ -> false

let run_replay capture psan =
  let events = load capture in
  if not psan then begin
    Pprof.replay events;
    Printf.printf "replayed %d events to the installed probe subscriber\n"
      (List.length events)
  end
  else begin
    let (), clean =
      Harness.Instrument.run { Harness.Instrument.none with psan = true }
        (fun () -> Pprof.replay events)
    in
    let r = Pprof.analyze ~label:(Filename.basename capture) events in
    print_newline ();
    print_string (Pprof.report_text r);
    let unmatched =
      List.filter
        (fun w -> not (List.exists (explains w) r.Pprof.findings))
        (Psan.warnings ())
    in
    Printf.printf "\npsan agreement: %d warnings, %d unexplained by pprof\n"
      (Psan.warning_count ()) (List.length unmatched);
    List.iter
      (fun (w : Psan.finding) ->
        Printf.printf "  UNEXPLAINED %s at dev %d %#x+%d: %s\n"
          (Psan.class_name w.Psan.cls) w.Psan.dev w.Psan.off w.Psan.len
          w.Psan.detail)
      unmatched;
    if unmatched <> [] || not clean then exit 1
  end

open Cmdliner

let capture_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CAPTURE" ~doc:"Probe capture file (corundum-probe-v1).")

let report_cmd =
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the analysis as corundum-pprof-v1 JSON.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write an annotated Chrome trace: the capture's persist events \
             with the waste findings overlaid as pprof instants.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Analyze a capture against the minimal flush/fence schedule")
    Term.(const run_report $ capture_arg $ json $ chrome)

let diff_cmd =
  let base =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline capture file.")
  in
  let cur =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CURRENT" ~doc:"Current capture file.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare the waste of two captures; non-zero exit when the current \
          capture wastes more than the baseline")
    Term.(const run_diff $ base $ cur)

let replay_cmd =
  let psan =
    Arg.(
      value & flag
      & info [ "psan" ]
          ~doc:
            "Replay into an enabled sanitizer and check that every psan \
             W1/W2 warning maps to a pprof E2/E1 finding.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-emit a capture through the probe bus (optionally into psan)")
    Term.(const run_replay $ capture_arg $ psan)

let cmd =
  Cmd.group
    (Cmd.info "pprof"
       ~doc:"Offline persist-waste profiler over probe captures")
    [ report_cmd; diff_cmd; replay_cmd ]

let () = exit (Cmd.eval cmd)
