module Trace = Ptelemetry.Trace
module Metrics = Ptelemetry.Metrics

type spec = {
  trace : string option;
  metrics : string option;
  psan : bool;
  psan_json : string option;
}

let none = { trace = None; metrics = None; psan = false; psan_json = None }

let strip args =
  let rec go spec acc = function
    | "--trace" :: f :: rest -> go { spec with trace = Some f } acc rest
    | "--metrics" :: f :: rest -> go { spec with metrics = Some f } acc rest
    | "--psan" :: rest -> go { spec with psan = true } acc rest
    | "--psan-json" :: f :: rest -> go { spec with psan_json = Some f } acc rest
    | a :: rest -> go spec (a :: acc) rest
    | [] -> (spec, List.rev acc)
  in
  go none [] args

let psan_on s = s.psan || s.psan_json <> None
let active s = s.trace <> None || s.metrics <> None || psan_on s

let write_file path s =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc s;
      output_char oc '\n')

let write_metrics path =
  write_file path (Ptelemetry.Json.to_string (Metrics.dump_json ()))

(* Artifact notices go to stderr, after whatever the body printed. *)
let note fmt =
  flush stdout;
  Printf.eprintf (fmt ^^ "\n%!")

let run ?(capacity = 1 lsl 16) ?shards spec body =
  let psan = psan_on spec and ring = spec.trace <> None in
  let metrics = ring || spec.metrics <> None in
  if psan then Psan.enable ();
  if ring then Trace.install_ring ~capacity ?shards ();
  if metrics then begin
    Metrics.reset ();
    Metrics.install ()
  end;
  let v =
    Fun.protect body ~finally:(fun () ->
        if ring then Trace.uninstall ();
        if metrics then Metrics.uninstall ();
        if psan then Psan.disable ())
  in
  Option.iter
    (fun path ->
      Trace.save_chrome path;
      write_metrics (path ^ ".metrics.json");
      let dropped = Trace.dropped () in
      note "wrote %s (%d events%s) and %s.metrics.json" path
        (List.length (Trace.events ()))
        (if dropped > 0 then Printf.sprintf ", %d dropped" dropped else "")
        path)
    spec.trace;
  Option.iter
    (fun path ->
      write_metrics path;
      note "wrote %s" path)
    spec.metrics;
  if psan then begin
    print_string (Psan.report_text ());
    Option.iter
      (fun path ->
        write_file path (Psan.report_json ());
        note "wrote %s" path)
      spec.psan_json
  end;
  (v, (not psan) || Psan.clean ())
