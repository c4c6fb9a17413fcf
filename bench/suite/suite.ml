(* The repository benchmark.

     suite.exe --workload NAME --seed N --seconds S --trace 0|1
       runs one workload in this process.  Every metric is printed as
       "workload metric value unit"; the last line is one JSON object
       {correct, attempted, failed, metrics} holding the end-to-end
       metrics (--trace 0) or the per-layer metrics (--trace 1).  A
       traced run also writes DIR/NAME.trace.json (--trace-dir DIR).

     suite.exe [--seed N] [--runs R] [--json FILE] ...
       runs every workload in its own child process, R seeds each, and
       writes the collected values with their medians and relative
       interquartile ranges to FILE.

     suite.exe --smoke --benchmark-json FILE
       the self-test behind "dune runtest".

   The process exits non-zero only when a workload cannot finish; a
   wrong answer is reported as "correct": false. *)

let fmt_value v = Printf.sprintf "%.17g" v

let json_line (r : Run.result) metrics =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" r.correct
    r.attempted r.failed;
  List.iteri
    (fun i (m : Run.metric) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i > 0 then ", " else "")
        m.name (fmt_value m.value) m.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let run_one ~name ~seed ~seconds ~trace ~trace_dir ~scale =
  let spec =
    match Workload.find name with
    | Some s -> Workload.scale scale s
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" name
          (String.concat ", " (List.map (fun s -> s.Workload.name) Workload.all));
        exit 2
  in
  (if trace then
     try Sys.mkdir trace_dir 0o755 with Sys_error _ when Sys.file_exists trace_dir -> ());
  let trace_file = Filename.concat trace_dir (name ^ ".trace.json") in
  let r =
    if spec.typed then Run.run_workload Workload.typed spec ~seed ~seconds ~trace ~trace_file
    else Run.run_workload Workload.kv spec ~seed ~seconds ~trace ~trace_file
  in
  let bad =
    List.filter (fun (m : Run.metric) -> not (Float.is_finite m.value)) (r.end_to_end @ r.per_layer)
  in
  let r =
    if bad = [] then r
    else
      {
        r with
        correct = false;
        problems = r.problems @ List.map (fun (m : Run.metric) -> m.name ^ " is not finite") bad;
      }
  in
  List.iter (fun p -> Printf.eprintf "%s: %s\n" name p) r.problems;
  List.iter
    (fun (m : Run.metric) -> Printf.printf "%s %s %s %s\n" name m.name (fmt_value m.value) m.unit_)
    (r.end_to_end @ r.per_layer);
  print_endline (json_line r (if trace then r.per_layer else r.end_to_end))

(* {1 Child processes} *)

type child = {
  lines : (string * float * string) list;  (** metric, value, unit *)
  correct : bool;
  failed : int;
  json_metrics : string list;  (** names in the final JSON line *)
}

let value c metric =
  let _, v, _ = List.find (fun (m, _, _) -> m = metric) c.lines in
  v

(* Start a child process running one workload; the returned function
   waits for it and parses what it printed. *)
let launch ?(echo = true) ~name ~seed ~seconds ~trace ~trace_dir ~scale () =
  let args =
    [|
      Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0"); "--trace-dir";
      trace_dir; "--scale"; Printf.sprintf "%g" scale;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  fun () ->
  let rec read acc =
    match input_line ic with line -> read (line :: acc) | exception End_of_file -> acc
  in
  let out = read [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ ->
      Printf.eprintf "workload %s (seed %d) did not finish\n%!" name seed;
      exit 1);
  match out with
  | [] ->
      Printf.eprintf "workload %s printed nothing\n" name;
      exit 1
  | last :: rest ->
      let module J = Ptelemetry.Json in
      let j = J.of_string last in
      let get k = Option.get (J.mem k j) in
      let lines =
        List.rev_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ _; metric; value; unit_ ] -> (metric, float_of_string value, unit_)
            | _ -> failwith ("unexpected output line: " ^ l))
          rest
      in
      if echo then
        List.iter (fun (m, v, u) -> Printf.printf "%s %s %s %s\n%!" name m (fmt_value v) u) lines;
      {
        lines;
        correct = get "correct" = J.Bool true;
        failed = int_of_float (Option.get (J.num (get "failed")));
        json_metrics = List.map fst (Option.get (J.obj (get "metrics")));
      }

(* {1 Every workload, R seeds each} *)

let run_all ~seed ~runs ~seconds ~trace ~trace_dir ~scale ~json =
  let results =
    List.map
      (fun (spec : Workload.spec) ->
        ( spec.name,
          List.init runs (fun r ->
              launch ~name:spec.name ~seed:(seed + r) ~seconds ~trace ~trace_dir ~scale () ()) ))
      Workload.all
  in
  let module J = Ptelemetry.Json in
  let summary (name, children) =
    let first = List.hd children in
    let metrics =
      List.map
        (fun (metric, _, unit_) ->
          let values =
            List.map (fun c -> value c metric) children
          in
          let stats =
            if runs < 2 then []
            else begin
              let med = Measure.median values and iqr = Measure.rel_iqr values in
              Printf.printf "summary %s %s median %s iqr_rel %.4f\n" name metric
                (fmt_value med) iqr;
              [ ("median", J.Num med); ("iqr_rel", J.Num iqr) ]
            end
          in
          let values_json = J.List (List.map (fun v -> J.Num v) values) in
          (metric, J.Obj ([ ("unit", J.Str unit_); ("values", values_json) ] @ stats)))
        first.lines
    in
    (name, J.Obj metrics)
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str "corundum-bench-suite-v1");
        ("seed", J.Num (float_of_int seed));
        ("runs", J.Num (float_of_int runs));
        ("seconds", J.Num seconds);
        ("trace", J.Bool trace);
        ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", J.Str Sys.ocaml_version);
        ("workloads", J.Obj (List.map summary results));
      ]
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (J.to_string doc);
      output_char oc '\n';
      close_out oc)
    json;
  let bad =
    List.concat_map
      (fun (name, cs) -> List.filter_map (fun c -> if c.correct then None else Some name) cs)
      results
  in
  if bad <> [] then Printf.eprintf "incorrect results from: %s\n" (String.concat ", " bad)

(* {1 Smoke test} *)

(* Metrics that depend only on the seed on a single-domain workload: the
   simulated ones and the per-op counts.  Host times, GC and the window's
   contention and group-commit counters are excluded. *)
let deterministic m =
  let starts prefix = String.starts_with ~prefix m in
  List.mem m
    [
      "sim_ns_per_op"; "sim_p99_ns"; "recovery_sim_us"; "space_amp"; "pool_impl.tx_per_op";
      "pool_impl.aborts_per_op"; "buddy.allocs_per_op"; "buddy.frees_per_op";
      "recovery.rolled_back_per_cycle";
    ]
  || starts "journal." || starts "device." || starts "loadgen."
  || (starts "recovery." && String.ends_with ~suffix:"_sim_ns" m)

let smoke ~benchmark_json =
  let failures = ref [] in
  let check ok fmt = Printf.ksprintf (fun s -> if not ok then failures := s :: !failures) fmt in
  let trace_dir = "_trace" in
  let go ?(seed = 1) ~trace name () =
    launch ~echo:false ~name ~seed ~seconds:0.02 ~trace ~trace_dir ~scale:0.01 ()
  in
  (* Two children at a time, one per core. *)
  let rec pairwise = function
    | (ka, a) :: (kb, b) :: rest ->
        let wa = a () in
        let wb = b () in
        let ra = wa () in
        (ka, ra) :: (kb, wb ()) :: pairwise rest
    | [ (k, a) ] -> [ (k, a () ()) ]
    | [] -> []
  in
  let names = List.map (fun (s : Workload.spec) -> s.name) Workload.all in
  let single =
    List.filter_map
      (fun (s : Workload.spec) -> if s.domains = 1 then Some s.name else None)
      Workload.all
  in
  let runs =
    pairwise
      (List.map (fun n -> ((n, false, 1), go ~trace:false n)) names
      @ List.map (fun n -> ((n, true, 1), go ~trace:true n)) single
      @ [ (("kv-mixed", false, 2), go ~seed:2 ~trace:false "kv-mixed") ])
  in
  let plain = List.map (fun n -> (n, List.assoc (n, false, 1) runs)) names in
  let traced = List.map (fun n -> (n, List.assoc (n, true, 1) runs)) single in
  let other = List.assoc ("kv-mixed", false, 2) runs in
  List.iter
    (fun (n, c) ->
      check (c.correct && c.failed = 0) "%s: correct %b, failed %d" n c.correct c.failed)
    (plain @ traced);
  (* Same seed: bit-identical simulated and count metrics, traced or not. *)
  List.iter
    (fun (n, b) ->
      List.iter
        (fun (m, v, _) ->
          if deterministic m then
            match List.find_opt (fun (m', _, _) -> m' = m) b.lines with
            | Some (_, v', _) ->
                check (Int64.bits_of_float v = Int64.bits_of_float v') "%s %s: %s then %s" n m
                  (fmt_value v) (fmt_value v')
            | None -> check false "%s %s missing from the traced run" n m)
        (List.assoc n plain).lines)
    traced;
  (* Another seed: another op stream. *)
  check
    (value other "sim_ns_per_op" <> value (List.assoc "kv-mixed" plain) "sim_ns_per_op")
    "kv-mixed: seeds 1 and 2 gave the same simulated cost";
  (* The printed names are exactly BENCHMARK.json's. *)
  let module J = Ptelemetry.Json in
  let doc = J.of_string (In_channel.with_open_text benchmark_json In_channel.input_all) in
  let listed key =
    List.map
      (fun e -> Option.get (J.str (Option.get (J.mem "name" e))))
      (Option.get (J.list (Option.get (J.mem key doc))))
  in
  let same what expected got =
    check
      (List.sort compare expected = List.sort compare got)
      "%s: BENCHMARK.json lists [%s], the suite prints [%s]" what
      (String.concat " " expected) (String.concat " " got)
  in
  same "workloads" (listed "workloads") names;
  List.iter (fun (n, c) -> same ("end_to_end on " ^ n) (listed "end_to_end") c.json_metrics) plain;
  List.iter (fun (n, c) -> same ("per_layer on " ^ n) (listed "per_layer") c.json_metrics) traced;
  match !failures with
  | [] -> print_endline "smoke: ok"
  | fs ->
      List.iter (fun f -> Printf.eprintf "smoke: %s\n" f) (List.rev fs);
      exit 1

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 6.0 in
  let trace = ref 0 and trace_dir = ref "_trace" and scale = ref 1.0 in
  let runs = ref 1 and json = ref None and smoke_mode = ref false in
  let benchmark_json = ref "BENCHMARK.json" in
  Arg.parse
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME run one workload in this process" );
      ("--seed", Arg.Set_int seed, "N seed of every input (default 42)");
      ("--seconds", Arg.Set_float seconds, "S length of the host-time window (default 6)");
      ("--trace", Arg.Set_int trace, "0|1 trace the second half of the window");
      ( "--trace-dir",
        Arg.Set_string trace_dir,
        "DIR where traced runs write Chrome traces (default _trace)" );
      ("--scale", Arg.Set_float scale, "F scale key counts and pool sizes (default 1)");
      ("--runs", Arg.Set_int runs, "R seeds per workload when running all (default 1)");
      ( "--json",
        Arg.String (fun s -> json := Some s),
        "FILE write the collected values when running all" );
      ("--smoke", Arg.Set smoke_mode, " run the self-test");
      ( "--benchmark-json",
        Arg.Set_string benchmark_json,
        "FILE the benchmark definition the self-test checks" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "suite.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] ...";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if !seconds <= 0.0 || !scale <= 0.0 || !runs < 1 then begin
    prerr_endline "--seconds, --scale and --runs must be positive";
    exit 2
  end;
  let trace = !trace = 1 in
  if !smoke_mode then smoke ~benchmark_json:!benchmark_json
  else
    match !workload with
    | Some name ->
        run_one ~name ~seed:!seed ~seconds:!seconds ~trace ~trace_dir:!trace_dir ~scale:!scale
    | None ->
        run_all ~seed:!seed ~runs:!runs ~seconds:!seconds ~trace ~trace_dir:!trace_dir
          ~scale:!scale ~json:!json
