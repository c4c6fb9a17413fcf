(* Exhaustive crash-state model checking of the persistence protocols
   — every model family in {!Pmodel.Mfamily} (the journal/recovery
   family and the CoW root swap/intent family) — plus trace-driven
   conformance of the real implementation against the model.

     pmodel_check check                 # full space, zero violations expected
     pmodel_check check --json stats.json --baseline PMODEL_baseline.json
     pmodel_check controls              # every seeded bug must be caught
     pmodel_check conform transfer kvstore
     pmodel_check replay 'correct:1:0:12:7:3'
     pmodel_check replay 'swap-before-flush:cow:0:1:1'

   [check] exits non-zero on any counterexample, and (with --baseline)
   when the explored crash-branch count, in total or of any family,
   drops below the committed baseline — a shrinking space means the
   checker lost coverage. *)

module Mc = Pmodel.Mcheck
module Mf = Pmodel.Mfamily
module Mv = Pmodel.Mvariant
module J = Ptelemetry.Json

let write_json path json = Harness.Instrument.write_file path (J.to_string json)

let sum_fields lists =
  List.fold_left
    (fun acc fields ->
      List.map
        (fun (k, v) ->
          (k, v + (try List.assoc k acc with Not_found -> 0)))
        fields)
    [] lists

let print_fields label fields =
  let g k = try List.assoc k fields with Not_found -> 0 in
  Printf.printf
    "%-8s %d programs, %d crash points, %d crash branches (%d distinct states), \
     %d recovery runs, %d nested recovery points (%d branches)\n"
    (label ^ ":") (g "programs") (g "crash_points") (g "crash_branches")
    (g "distinct_states") (g "recovery_runs") (g "nested_points")
    (g "nested_branches")

let num_fields fields = List.map (fun (k, v) -> (k, J.Num (float_of_int v))) fields

let stats_json variant ~total results ~violations =
  J.Obj
    (("schema", J.Str "corundum-pmodel-v1")
     :: ("variant", J.Str (Mv.name variant))
     :: ("violations", J.Num (float_of_int violations))
     :: num_fields total
    @ [
        ( "families",
          J.Obj
            (List.map (fun (name, fields, _) -> (name, J.Obj (num_fields fields))) results)
        );
      ])

let run_check variant_name no_nested json baseline =
  match Mv.of_name variant_name with
  | None ->
      Printf.eprintf "pmodel_check: unknown variant %S; known: %s\n"
        variant_name
        (String.concat ", " (List.map Mv.name Mv.all));
      exit 2
  | Some variant -> (
      let t0 = Unix.gettimeofday () in
      let nested = not no_nested in
      (* (family, stats fields, printed counterexample) per family run *)
      let results =
        List.map
          (fun (module F : Mc.S) ->
            let r = F.run ~nested variant in
            ( F.name,
              Mc.stats_fields r.Mc.stats,
              Option.map (Format.asprintf "%a" F.pp_cex) r.Mc.cex ))
          (Mf.running variant)
      in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "variant %s: %s\n" (Mv.name variant) (Mv.describe variant);
      let total = sum_fields (List.map (fun (_, fields, _) -> fields) results) in
      List.iter (fun (name, fields, _) -> print_fields name fields) results;
      if List.length results > 1 then print_fields "total" total;
      Printf.printf "%.2fs\n" dt;
      let cexs = List.filter_map (fun (_, _, cex) -> cex) results in
      let violations = List.length cexs in
      let stats = stats_json variant ~total results ~violations in
      Option.iter (fun path -> write_json path stats) json;
      Option.iter
        (fun baseline ->
          Harness.Gate.check ~gate:"PMODEL" Harness.Gate.pmodel ~baseline stats)
        baseline;
      List.iter print_string cexs;
      match violations with
      | 0 -> Printf.printf "no violations\n"
      | _ -> exit 1)

(* Positive controls: every deliberately broken protocol variant must
   yield a counterexample, or the checker itself has gone blind — and
   that counterexample must replay from its printed spec to the same
   invariant, or the printed spec is useless. *)
let run_controls json =
  (* (variant, Some (invariant, repro, replays)) per seeded bug, run in
     the family its mutation belongs to *)
  let results =
    List.concat_map
      (fun v ->
        List.map
          (fun (module F : Mc.S) ->
            let r = F.run ~nested:false v in
            ( v,
              Option.map
                (fun (c : F.cex) ->
                  let repro = F.repro_string c in
                  let replays =
                    match F.replay repro with
                    | Ok (Some c') -> c'.Mc.invariant = c.Mc.invariant
                    | Ok None | Error _ -> false
                  in
                  (c.Mc.invariant, repro, replays))
                r.Mc.cex ))
          (Mf.running v))
      Mv.broken
  in
  let failed = ref 0 in
  List.iter
    (fun (v, caught) ->
      match caught with
      | Some (invariant, repro, replays) ->
          Printf.printf "%-22s caught: %s  (replay '%s')\n" (Mv.name v)
            invariant repro;
          if not replays then begin
            incr failed;
            Printf.printf "%-22s REPLAY FAILED: '%s' does not reproduce %s\n"
              (Mv.name v) repro invariant
          end
      | None ->
          incr failed;
          Printf.printf "%-22s MISSED: no counterexample for a seeded bug\n"
            (Mv.name v))
    results;
  (match json with
  | None -> ()
  | Some path ->
      write_json path
        (J.Obj
           [
             ("schema", J.Str "corundum-pmodel-controls-v1");
             ( "controls",
               J.List
                 (List.map
                    (fun (v, caught) ->
                      J.Obj
                        [
                          ("variant", J.Str (Mv.name v));
                          ("caught", J.Bool (caught <> None));
                          ( "invariant",
                            match caught with
                            | Some (invariant, _, _) -> J.Str invariant
                            | None -> J.Null );
                        ])
                    results) );
           ]));
  if !failed > 0 then exit 1

let run_replay spec =
  let fail e =
    Printf.eprintf "pmodel_check: %s\n" e;
    exit 2
  in
  match Mf.of_spec spec with
  | None -> fail (Printf.sprintf "malformed repro spec %S" spec)
  | Some (module F) -> (
      match F.replay spec with
      | Error e -> fail e
      | Ok None -> Printf.printf "branch recovers to a legal state\n"
      | Ok (Some c) ->
          Format.printf "%a" F.pp_cex c;
          exit 1)

(* Conformance: run real scenarios with the probe bus captured and
   validate the event stream against the model's protocol order.  Each
   scenario gets a clean leg and several crashed legs (crash
   mid-[run], then reopen) so recovery's events are judged too. *)
let conform_leg make leg =
  let module D = Pmem.Device in
  Pmodel.Mconform.capture (fun () ->
      let module I = (val make () : Crashtest.Injector.INSTANCE) in
      I.setup ();
      match leg with
      | `Clean -> I.run ()
      | `Crash k -> (
          D.set_crash_countdown (I.device ()) k;
          match I.run () with
          | () -> D.set_crash_countdown (I.device ()) 0
          | exception D.Crashed ->
              D.reseed (I.device ()) (0xC0 + k);
              I.reopen ()))

let run_conform json names =
  let names = match names with [] -> [ "transfer"; "kvstore" ] | ns -> ns in
  let failed = ref false in
  let results =
    List.map
      (fun name ->
        match List.assoc_opt name Crashtest.Scenario.all with
        | None ->
            Printf.eprintf "pmodel_check: unknown scenario %S; known: %s\n"
              name
              (String.concat ", " (List.map fst Crashtest.Scenario.all));
            exit 2
        | Some make ->
            let points = Crashtest.Injector.points_of_dry_run make in
            let legs =
              `Clean
              :: List.map
                   (fun k -> `Crash k)
                   (List.sort_uniq compare
                      [ 1; points / 3; points / 2; 2 * points / 3; points - 1 ]
                   |> List.filter (fun k -> k >= 1))
            in
            let verdicts =
              List.map
                (fun leg ->
                  let events, () = conform_leg make leg in
                  let v = Pmodel.Mconform.validate events in
                  let leg_name =
                    match leg with
                    | `Clean -> "clean"
                    | `Crash k -> Printf.sprintf "crash@%d" k
                  in
                  Printf.printf "%-14s %-9s %s" name leg_name
                    (Format.asprintf "%a" Pmodel.Mconform.pp_verdict v);
                  if not (Pmodel.Mconform.ok v) then failed := true;
                  (leg_name, v))
                legs
            in
            (name, verdicts))
      names
  in
  (match json with
  | None -> ()
  | Some path ->
      write_json path
        (J.Obj
           [
             ("schema", J.Str "corundum-conform-v1");
             ( "scenarios",
               J.List
                 (List.map
                    (fun (name, verdicts) ->
                      J.Obj
                        [
                          ("scenario", J.Str name);
                          ( "legs",
                            J.List
                              (List.map
                                 (fun (leg, v) ->
                                   J.Obj
                                     [
                                       ("leg", J.Str leg);
                                       ( "events",
                                         J.Num (float_of_int v.Pmodel.Mconform.events) );
                                       ( "txs",
                                         J.Num (float_of_int v.Pmodel.Mconform.txs) );
                                       ( "truncates",
                                         J.Num
                                           (float_of_int v.Pmodel.Mconform.truncates) );
                                       ( "drop_applies",
                                         J.Num
                                           (float_of_int
                                              v.Pmodel.Mconform.drop_applies) );
                                       ( "violations",
                                         J.List
                                           (List.map
                                              (fun (i, m) ->
                                                J.Obj
                                                  [
                                                    ("event", J.Num (float_of_int i));
                                                    ("message", J.Str m);
                                                  ])
                                              v.Pmodel.Mconform.violations) );
                                     ])
                                 verdicts) );
                        ])
                    results) );
           ]));
  if !failed then exit 1

open Cmdliner

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write machine-readable results to $(docv).")

let variant_arg =
  Arg.(
    value & opt string "correct"
    & info [ "variant" ] ~docv:"NAME"
        ~doc:
          ("Protocol variant to check: "
          ^ String.concat ", " (List.map Mv.name Mv.all)
          ^ "."))

let no_nested_arg =
  Arg.(
    value & flag
    & info [ "no-nested" ]
        ~doc:"Skip crashing recovery at its own persist points (faster).")

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Fail if the explored crash-branch count, in total or of any \
           model family, drops below the crash_branches fields of this \
           committed stats file.")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Enumerate every crash point of every modeled program, every \
          torn-word outcome, run modeled recovery, and assert durable \
          linearizability.")
    Term.(const run_check $ variant_arg $ no_nested_arg $ json_arg $ baseline_arg)

let controls_cmd =
  Cmd.v
    (Cmd.info "controls"
       ~doc:
         "Check the deliberately broken protocol variants: each must \
          produce a counterexample.")
    Term.(const run_controls $ json_arg)

let spec_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SPEC"
        ~doc:
          "Repro spec: VARIANT:NSLOTS:SPLIT:PROG:POINT:MASK[:RPOINT:RMASK] \
           for the journal family, VARIANT:cow:PROG:POINT:MASK[:RPOINT:RMASK] \
           for the CoW family; POINT -1 (with MASK 0) is the crash-free end \
           state.")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay one crash branch from its repro spec.")
    Term.(const run_replay $ spec_arg)

let scenarios_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"SCENARIO" ~doc:"Scenario names (default: transfer kvstore).")

let conform_cmd =
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Capture probe events from real scenarios (including crashed-and-\
          recovered legs) and validate the implementation's protocol order \
          against the model.")
    Term.(const run_conform $ json_arg $ scenarios_arg)

let cmd =
  Cmd.group
    (Cmd.info "pmodel_check"
       ~doc:
         "Crash-state model checker for the journal/recovery and CoW \
          root-swap protocols")
    [ check_cmd; controls_cmd; conform_cmd; replay_cmd ]

let () = exit (Cmd.eval cmd)
