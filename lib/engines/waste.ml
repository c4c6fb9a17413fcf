module Pr = Ptelemetry.Probe
module Json = Ptelemetry.Json

type op_waste = {
  op : string;
  ops : int;
  events : Pr.event list;
  report : Pprof.report;
}

(* The same windows as [Attribution.measure], run under a probe capture.
   Each window is analyzed alone; everything before it (pool creation,
   the root transaction, earlier windows) is prelude — it evolves the
   analyzer's shadow state but is neither counted nor attributed. *)
let measure_capture ?(size = 16 * 1024 * 1024) ?(ops = 64)
    (module E : Engine_sig.S) =
  let r = Pr.Recorder.start () in
  let cut () = List.map snd (Pr.Recorder.cut r) in
  Fun.protect
    ~finally:(fun () -> ignore (Pr.Recorder.stop r))
    (fun () ->
      let t = E.create ~size () in
      let root =
        E.transaction t (fun tx ->
            let r = E.alloc tx 64 in
            E.set_root tx r;
            r)
      in
      let prelude = ref (cut ()) in
      let window op f =
        for i = 1 to ops do
          f i
        done;
        let events = cut () in
        let report = Pprof.analyze ~label:op ~prelude:!prelude events in
        prelude := !prelude @ events;
        { op; ops; events; report }
      in
      let update =
        window "update" (fun i ->
            E.transaction t (fun tx -> E.write tx root (Int64.of_int i)))
      in
      let blocks = Array.make ops 0 in
      let alloc =
        window "alloc+write" (fun i ->
            E.transaction t (fun tx ->
                let b = E.alloc tx 64 in
                E.write tx b (Int64.of_int i);
                blocks.(i - 1) <- b))
      in
      let free =
        window "free" (fun i ->
            E.transaction t (fun tx -> E.free tx blocks.(i - 1)))
      in
      (* After the last window [prelude] has accumulated the whole run
         in order — a self-contained stream a saved capture can replay
         without the live pool. *)
      (!prelude, [ update; alloc; free ]))

let measure ?size ?ops e = snd (measure_capture ?size ?ops e)

let class_summary r =
  let parts =
    List.filter_map
      (fun (cls, fl, fe) ->
        if fl = 0 && fe = 0 then None
        else
          let counts =
            List.filter_map Fun.id
              [
                (if fl > 0 then Some (Printf.sprintf "%df" fl) else None);
                (if fe > 0 then Some (Printf.sprintf "%dF" fe) else None);
              ]
          in
          Some
            (Printf.sprintf "%s:%s" (Pprof.class_name cls)
               (String.concat "+" counts)))
      (Pprof.waste_by_class r.report)
  in
  if parts = [] then "-" else String.concat " " parts

let table columns =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %-12s %17s %17s %11s  %s\n" "engine" "op"
       "flushes/op (min)" "fences/op (min)" "waste/op" "classes");
  Buffer.add_string buf (String.make 78 '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun (engine, rows) ->
      List.iter
        (fun w ->
          let per x = float_of_int x /. float_of_int (max 1 w.ops) in
          let r = w.report in
          Buffer.add_string buf
            (Printf.sprintf "%-12s %-12s %9.2f (%5.2f) %9.2f (%5.2f) %5.2ff %4.2fF  %s\n"
               engine w.op
               (per r.Pprof.actual_flushes)
               (per r.Pprof.min_flushes)
               (per r.Pprof.actual_fences)
               (per r.Pprof.min_fences)
               (per (Pprof.waste_flushes r))
               (per (Pprof.waste_fences r))
               (class_summary w)))
        rows)
    columns;
  Buffer.contents buf

let waste_json columns =
  let num i = Json.Num (float_of_int i) in
  let row w =
    let r = w.report in
    let per x = float_of_int x /. float_of_int (max 1 w.ops) in
    let by_class =
      List.filter_map
        (fun (cls, fl, fe) ->
          if fl = 0 && fe = 0 then None
          else Some (Pprof.class_name cls, Json.List [ num fl; num fe ]))
        (Pprof.waste_by_class r)
    in
    Json.Obj
      [
        ("op", Json.Str w.op);
        ("ops", num w.ops);
        ("txs", num r.Pprof.txs);
        ("actual_flushes", num r.Pprof.actual_flushes);
        ("min_flushes", num r.Pprof.min_flushes);
        ("waste_flushes", num (Pprof.waste_flushes r));
        ("actual_fences", num r.Pprof.actual_fences);
        ("min_fences", num r.Pprof.min_fences);
        ("waste_fences", num (Pprof.waste_fences r));
        ("waste_flushes_per_op", Json.Num (per (Pprof.waste_flushes r)));
        ("waste_fences_per_op", Json.Num (per (Pprof.waste_fences r)));
        ("by_class", Json.Obj by_class);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "corundum-waste-v1");
      ( "engines",
        Json.Obj
          (List.map
             (fun (engine, rows) -> (engine, Json.List (List.map row rows)))
             columns) );
    ]
