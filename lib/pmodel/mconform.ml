(* Trace-driven conformance: replay a probe-captured execution of the
   REAL implementation against the model's protocol order.

   The model checker proves the modeled protocol safe; this module
   closes the loop by checking that the implementation actually follows
   that protocol, against the event stream the live journal emits.  It
   is the replay front-end of {!Psan.Monitor}, the one monitor of the
   protocol (psan is the live one): a fresh monitor folded over a
   domain-tagged capture, reporting the monitor's C-rules — the ordering
   facts the model's safety argument rests on.  The verdict is pure, so
   the same code judges live captures and replayed traces. *)

module Pr = Ptelemetry.Probe
module M = Psan.Monitor

type verdict = {
  events : int;
  txs : int;
  commit_points : int;
  truncates : int;
  drop_applies : int;
  violations : (int * string) list;  (* (event index, message) *)
}

let ok v = v.violations = []

let validate (events : (int * Pr.event) list) : verdict =
  let m = M.replay events in
  {
    events = List.length events;
    txs = m.txs;
    commit_points = m.commit_points;
    truncates = m.truncates;
    drop_applies = m.drop_applies;
    violations = M.violations m;
  }

(* Validate an untagged single-threaded stream (hand-built test vectors,
   replayed captures from before domain tagging). *)
let validate_events (events : Pr.event list) : verdict =
  validate (List.map (fun e -> (0, e)) events)

(* Run [f] with a domain-tagged recorder subscribed alongside any other
   subscriber; returns the captured events alongside [f]'s result. *)
let capture f =
  let r = Pr.Recorder.start () in
  match f () with
  | v -> (Pr.Recorder.stop r, v)
  | exception e ->
      ignore (Pr.Recorder.stop r);
      raise e

let pp_verdict ppf v =
  Format.fprintf ppf
    "%d events, %d txs, %d commit points, %d truncates, %d drop applies: %s@."
    v.events v.txs v.commit_points v.truncates v.drop_applies
    (if ok v then "conformant"
     else Printf.sprintf "%d violations" (List.length v.violations));
  List.iter
    (fun (i, msg) -> Format.fprintf ppf "  at event %d: %s@." i msg)
    v.violations
