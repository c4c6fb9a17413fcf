(* Exhaustive failure injection over the canned scenarios: every persist
   point of every scenario gets a crash, recovery, a full atomicity +
   heap-integrity + leak check, and a post-recovery fsck.  With --torn,
   surviving write-pending lines additionally land word-torn at the given
   probability.  Exits non-zero on any violation. *)

(* --crash-image: mint a pre-recovery crash image under the current
   journal protocol and save it to FILE.  A small pool commits a few
   transactions, then a power failure is scheduled mid-transaction; the
   power-cycled (possibly torn) media state is saved unrecovered, so CI
   can verify that [pool_info fsck] understands in-flight images. *)
let write_crash_image path countdown =
  let module P = Corundum.Pool_impl in
  let pool = P.create ~config:Crashtest.Scenario.small_config ~path () in
  let dev = P.device pool in
  let cell =
    P.transaction pool (fun tx ->
        let off = P.tx_alloc tx 256 in
        P.tx_set_root tx ~off ~ty_hash:0;
        off)
  in
  for i = 1 to 4 do
    P.transaction pool (fun tx ->
        P.tx_log tx ~off:cell ~len:64;
        Pmem.Device.write_u64 dev cell (Int64.of_int i))
  done;
  Pmem.Device.set_crash_countdown dev countdown;
  match
    P.transaction pool (fun tx ->
        let b = P.tx_alloc tx 128 in
        P.tx_log tx ~off:(cell + 64) ~len:64;
        Pmem.Device.write_u64 dev (cell + 64) 0xDEADL;
        P.tx_free tx b)
  with
  | () ->
      Printf.eprintf
        "crash_sweep: countdown %d survived the victim transaction; image \
         not written\n"
        countdown;
      exit 1
  | exception Pmem.Device.Crashed ->
      Pmem.Device.power_cycle dev;
      Pmem.Device.save dev;
      Printf.printf "wrote pre-recovery crash image %s (crash at persist %d)\n"
        path countdown

(* Replay one failing branch from the repro line a sweep printed:
   "scenario=NAME point=K sample=S torn=P [rpoint=M]".  [true] when the
   branch verifies clean. *)
let run_repro spec_str =
  let module I = Crashtest.Injector in
  let scenario =
    List.find_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i when String.sub tok 0 i = "scenario" ->
            Some (String.sub tok (i + 1) (String.length tok - i - 1))
        | _ -> None)
      (String.split_on_char ' ' (String.trim spec_str))
  in
  match scenario with
  | None ->
      Printf.eprintf "crash_sweep: --repro needs a scenario=NAME field\n";
      exit 2
  | Some name -> (
      match
        (List.assoc_opt name Crashtest.Scenario.all, I.spec_of_string spec_str)
      with
      | None, _ ->
          Printf.eprintf "crash_sweep: unknown scenario %S; known: %s\n" name
            (String.concat ", " (List.map fst Crashtest.Scenario.all));
          exit 2
      | _, Error e ->
          Printf.eprintf "crash_sweep: bad repro spec: %s\n" e;
          exit 2
      | Some make, Ok spec -> (
          let spec_s = Format.asprintf "%a" I.pp_spec spec in
          match I.replay make spec with
          | Ok () ->
              Printf.printf "%s %s: verified clean\n" name spec_s;
              true
          | Error msgs ->
              Printf.printf "%s %s: FAILED\n" name spec_s;
              List.iter (fun m -> Printf.printf "  %s\n" m) msgs;
              false))

(* [true] when every selected scenario sweeps clean. *)
let run_sweep limit samples torn recovery names =
  if not (torn >= 0.0 && torn <= 1.0) then begin
    Printf.eprintf "crash_sweep: --torn must be a probability in [0, 1]\n";
    exit 2
  end;
  let scenarios =
    match names with
    | [] -> Crashtest.Scenario.all
    | names ->
        List.filter (fun (n, _) -> List.mem n names) Crashtest.Scenario.all
  in
  if scenarios = [] then begin
    Printf.eprintf "no matching scenarios; known: %s\n"
      (String.concat ", " (List.map fst Crashtest.Scenario.all));
    exit 2
  end;
  List.map
    (fun (name, make) ->
      let r =
        Crashtest.Injector.sweep ?limit ~survival_samples:samples
          ~torn_prob:torn ~recovery_crashes:recovery make
      in
      Printf.printf "%-14s %s\n" name
        (Format.asprintf "%a" Crashtest.Injector.pp_result r);
      (* every failure is one command to replay deterministically *)
      List.iter
        (fun (spec, _) ->
          Printf.printf "  repro: crash_sweep --repro 'scenario=%s %s'\n" name
            (Crashtest.Injector.spec_to_string spec))
        r.Crashtest.Injector.failures;
      Crashtest.Injector.is_clean r)
    scenarios
  |> List.for_all Fun.id

let run limit samples torn recovery psan psan_json crash_image crash_at repro
    names =
  match (repro, crash_image) with
  | None, Some path -> write_crash_image path crash_at
  | _ ->
      (* Sweep and repro run under psan when asked; either failing
         exits 1. *)
      let ok, clean =
        Harness.Instrument.run { Harness.Instrument.none with psan; psan_json }
          (fun () ->
            match repro with
            | Some spec -> run_repro spec
            | None -> run_sweep limit samples torn recovery names)
      in
      if not (ok && clean) then exit 1

open Cmdliner

let limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "limit" ] ~doc:"Cap injected crashes per scenario (sampled).")

let samples_arg =
  Arg.(
    value & opt int 1
    & info [ "samples" ]
        ~doc:"WPQ-survival samples per crash point (explores nondeterminism).")

let torn_arg =
  Arg.(
    value & opt float 0.0
    & info [ "torn" ] ~docv:"PROB"
        ~doc:
          "Probability that a surviving write-pending line lands word-torn \
           at the crash (each 8-byte word independently old or new).")

let names_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"SCENARIO" ~doc:"Scenario names.")

let recovery_arg =
  Arg.(
    value & flag
    & info [ "recovery" ]
        ~doc:
          "Also crash the recovery of every injected crash at each of its \
           own persist points, re-run recovery from the nested crash, and \
           verify (recovery restartability).")

let repro_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro" ] ~docv:"SPEC"
        ~doc:
          "Replay exactly one failing branch from the repro line a sweep \
           printed: 'scenario=NAME point=K sample=S torn=P [rpoint=M]'.")

let psan_arg =
  Arg.(
    value & flag
    & info [ "psan" ]
        ~doc:
          "Run the persistency sanitizer over the whole sweep (crashes, \
           recoveries and all) and print its report; exit non-zero on any \
           violation.")

let psan_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "psan-json" ]
        ~doc:"Write the psan report as JSON to $(docv) (implies --psan)."
        ~docv:"FILE")

let crash_image_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "crash-image" ]
        ~doc:
          "Instead of sweeping: run a small canonical workload, crash it \
           mid-transaction, and save the power-cycled pre-recovery image to \
           $(docv) for offline fsck."
        ~docv:"FILE")

let crash_at_arg =
  Arg.(
    value & opt int 3
    & info [ "crash-at" ]
        ~doc:
          "With --crash-image: persist point (within the victim \
           transaction) at which the power failure fires.")

let cmd =
  Cmd.v
    (Cmd.info "crash_sweep" ~doc:"Failure-injection sweep over all scenarios")
    Term.(const run $ limit_arg $ samples_arg $ torn_arg $ recovery_arg
          $ psan_arg $ psan_json_arg $ crash_image_arg $ crash_at_arg
          $ repro_arg $ names_arg)

let () = exit (Cmd.eval cmd)
