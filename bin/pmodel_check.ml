(* Exhaustive crash-state model checking of the persistence protocols
   — the journal/recovery family ({!Mcheck}) and the CoW root
   swap/intent family ({!Mcow}) — plus trace-driven conformance of the
   real implementation against the model.

     pmodel_check check                 # full space, zero violations expected
     pmodel_check check --json stats.json --baseline PMODEL_baseline.json
     pmodel_check controls              # every seeded bug must be caught
     pmodel_check conform transfer kvstore
     pmodel_check replay 'correct:1:0:12:7:3'
     pmodel_check replay 'swap-before-flush:cow:0:1:1'

   [check] exits non-zero on any counterexample, and (with --baseline)
   when the explored crash-branch count (summed over both families)
   drops below the committed baseline — a shrinking space means the
   checker lost coverage. *)

module Ms = Pmodel.Mstate
module Mc = Pmodel.Mcheck
module Mw = Pmodel.Mcow
module Mv = Pmodel.Mvariant
module J = Ptelemetry.Json

let write_json path json = Harness.Instrument.write_file path (J.to_string json)

(* Which model families a variant exercises: the journal mutations run
   through {!Mcheck}, the CoW mutation through {!Mcow}, and the correct
   protocol through both (their stats are summed for the baseline). *)
let families variant =
  match variant with
  | Mv.Correct -> (true, true)
  | Mv.Swap_before_flush -> (false, true)
  | _ -> (true, false)

let sum_fields lists =
  List.fold_left
    (fun acc fields ->
      List.map
        (fun (k, v) ->
          (k, v + (try List.assoc k acc with Not_found -> 0)))
        fields)
    [] lists

let print_fields prefix fields =
  let g k = try List.assoc k fields with Not_found -> 0 in
  Printf.printf
    "%s%d programs, %d crash points, %d crash branches (%d distinct states), \
     %d recovery runs, %d nested recovery points (%d branches)\n"
    prefix (g "programs") (g "crash_points") (g "crash_branches")
    (g "distinct_states") (g "recovery_runs") (g "nested_points")
    (g "nested_branches")

let stats_json variant fields ~violations =
  J.Obj
    (("schema", J.Str "corundum-pmodel-v1")
     :: ("variant", J.Str (Mv.name variant))
     :: ("violations", J.Num (float_of_int violations))
     :: List.map (fun (k, v) -> (k, J.Num (float_of_int v))) fields)

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
      let journal, cow = families variant in
      let jr = if journal then Some (Mc.run ~nested variant) else None in
      let cr = if cow then Some (Mw.run ~nested variant) else None in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "variant %s: %s\n" (Mv.name variant) (Mv.describe variant);
      let jfields =
        Option.map (fun (r : Mc.report) -> Mc.stats_fields r.Mc.stats) jr
      and cfields =
        Option.map (fun (r : Mw.report) -> Mw.stats_fields r.Mw.stats) cr
      in
      Option.iter (print_fields "journal: ") jfields;
      Option.iter (print_fields "cow:     ") cfields;
      let fields = sum_fields (List.filter_map Fun.id [ jfields; cfields ]) in
      if jfields <> None && cfields <> None then print_fields "total:   " fields;
      Printf.printf "%.2fs\n" dt;
      let jcex = Option.bind jr (fun (r : Mc.report) -> r.Mc.cex)
      and ccex = Option.bind cr (fun (r : Mw.report) -> r.Mw.cex) in
      let violations =
        (if jcex <> None then 1 else 0) + if ccex <> None then 1 else 0
      in
      let stats = stats_json variant fields ~violations in
      Option.iter (fun path -> write_json path stats) json;
      Option.iter
        (fun baseline ->
          Harness.Gate.check ~gate:"PMODEL" Harness.Gate.pmodel ~baseline stats)
        baseline;
      Option.iter (fun c -> Format.printf "%a" Mc.pp_cex c) jcex;
      Option.iter (fun c -> Format.printf "%a" Mw.pp_cex c) ccex;
      match violations with
      | 0 -> Printf.printf "no violations\n"
      | _ -> exit 1)

(* Positive controls: every deliberately broken protocol variant must
   yield a counterexample, or the checker itself has gone blind. *)
let run_controls json =
  (* (variant, caught, invariant, repro) — each broken variant runs in
     the family its mutation belongs to *)
  let results =
    List.map
      (fun v ->
        match families v with
        | _, true ->
            let r = Mw.run ~nested:false v in
            ( v,
              Option.map
                (fun (c : Mw.cex) -> (c.Mw.invariant, Mw.repro_string c))
                r.Mw.cex )
        | _ ->
            let r = Mc.run ~nested:false v in
            ( v,
              Option.map
                (fun (c : Mc.cex) -> (c.Mc.invariant, Mc.repro_string c))
                r.Mc.cex ))
      Mv.broken
  in
  let missed = ref 0 in
  List.iter
    (fun (v, caught) ->
      match caught with
      | Some (invariant, repro) ->
          Printf.printf "%-22s caught: %s  (replay '%s')\n" (Mv.name v)
            invariant repro
      | None ->
          incr missed;
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
                            | Some (invariant, _) -> J.Str invariant
                            | None -> J.Null );
                        ])
                    results) );
           ]));
  if !missed > 0 then exit 1

let run_replay spec =
  (* CoW-family specs carry a "cow" tag in the second field *)
  let is_cow =
    match String.split_on_char ':' spec with
    | _ :: "cow" :: _ -> true
    | _ -> false
  in
  if is_cow then
    match Mw.replay spec with
    | Error e ->
        Printf.eprintf "pmodel_check: %s\n" e;
        exit 2
    | Ok None -> Printf.printf "branch recovers to a legal state\n"
    | Ok (Some c) ->
        Format.printf "%a" Mw.pp_cex c;
        exit 1
  else
    match Mc.replay spec with
    | Error e ->
        Printf.eprintf "pmodel_check: %s\n" e;
        exit 2
    | Ok None -> Printf.printf "branch recovers to a legal state\n"
    | Ok (Some c) ->
        Format.printf "%a" Mc.pp_cex c;
        exit 1

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
          "Protocol variant to check: correct, term-before-body, \
           truncate-before-clears, trust-advisory, partial-merge, \
           swap-before-flush.")

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
          "Fail if the explored crash-branch count drops below the \
           crash_branches field of this committed stats file.")

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
           for the CoW family.")

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
