module Pr = Ptelemetry.Probe
module Tr = Ptelemetry.Trace
module Json = Ptelemetry.Json

module Monitor = Monitor

type violation_class = Monitor.violation_class = V1 | V2 | V3 | V4 | V5 | W1 | W2

let class_name = function
  | V1 -> "V1"
  | V2 -> "V2"
  | V3 -> "V3"
  | V4 -> "V4"
  | V5 -> "V5"
  | W1 -> "W1"
  | W2 -> "W2"

let class_title = function
  | V1 -> "unlogged in-place store in transaction"
  | V2 -> "store still dirty at commit (missing flush)"
  | V3 -> "store write-pending at commit (missing fence)"
  | V4 -> "store to pool data outside any transaction"
  | V5 -> "store to a block retired by a committed root swap"
  | W1 -> "redundant flush (no dirty line in range)"
  | W2 -> "redundant fence (write-pending queue empty)"

let is_warning = function W1 | W2 -> true | V1 | V2 | V3 | V4 | V5 -> false

type finding = Monitor.finding = {
  cls : violation_class;
  dev : int;
  off : int;
  len : int;
  tx : int option;
  ns : float;
  detail : string;
}

(* The live front-end: one monitor for the whole process, stepped under
   [lock] with the emitting domain as [who] (probe handlers run
   synchronously on the emitting thread). *)

let lock = Mutex.create ()
let user_exempt : (int, int * int) Hashtbl.t = Hashtbl.create 8

(* Surface each finding in the trace too, so it lands inside the tx span
   it belongs to when a ring is installed. *)
let trace_finding f =
  if Tr.on () then
    Tr.emit
      ~args:
        ([
           ("class", class_name f.cls);
           ("title", class_title f.cls);
           ("dev", string_of_int f.dev);
           ("off", string_of_int f.off);
           ("len", string_of_int f.len);
           ("detail", f.detail);
         ]
        @ match f.tx with Some i -> [ ("tx", string_of_int i) ] | None -> [])
      ~cat:"psan"
      ~name:("psan." ^ class_name f.cls)
      ~ph:Tr.I ~ts_ns:f.ns ()

let fresh () =
  Monitor.create ~on_finding:trace_finding
    ~exempt:(Hashtbl.find_all user_exempt) ()

let monitor = ref (fresh ())

let on_event ev =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () -> Monitor.step !monitor ~who:(Domain.self () :> int) ev)

(* {1 Lifecycle} *)

let reset () =
  Mutex.lock lock;
  monitor := fresh ();
  Mutex.unlock lock

let subscription = ref None

let enable () =
  reset ();
  if !subscription = None then subscription := Some (Pr.subscribe on_event)

let disable () =
  Option.iter Pr.unsubscribe !subscription;
  subscription := None

let enabled () = !subscription <> None

(* {1 Exemptions} *)

let exempt ~dev ~off ~len =
  Mutex.lock lock;
  Hashtbl.add user_exempt dev (off, len);
  Mutex.unlock lock

let unexempt ~dev ~off ~len =
  Mutex.lock lock;
  Hashtbl.filter_map_inplace
    (fun d r -> if d = dev && r = (off, len) then None else Some r)
    user_exempt;
  Mutex.unlock lock

(* {1 Findings and reports} *)

let all_findings () =
  Mutex.lock lock;
  let r = Monitor.findings !monitor in
  Mutex.unlock lock;
  r

let violations () = List.filter (fun f -> not (is_warning f.cls)) (all_findings ())
let warnings () = List.filter (fun f -> is_warning f.cls) (all_findings ())
let violation_count () = List.length (violations ())
let warning_count () = List.length (warnings ())
let clean () = violation_count () = 0

let finding_text f =
  Printf.sprintf "psan: %s %s: dev=%d off=%d len=%d%s ns=%.0f — %s [%s]"
    (if is_warning f.cls then "warning" else "violation")
    (class_name f.cls) f.dev f.off f.len
    (match f.tx with Some i -> Printf.sprintf " tx=%d" i | None -> "")
    f.ns (class_title f.cls) f.detail

let counts_by_class fs =
  List.map
    (fun c -> (c, List.length (List.filter (fun f -> f.cls = c) fs)))
    [ V1; V2; V3; V4; V5; W1; W2 ]

(* Violations are always printed in full; warning lines are capped so a
   long sweep (hundreds of short-lived devices, each re-reporting the
   same benign redundant flush) stays readable.  The JSON report and
   [warnings ()] are never truncated. *)
let max_warning_lines = 20

let report_text () =
  let fs = all_findings () in
  let b = Buffer.create 256 in
  let printed_warnings = ref 0 in
  List.iter
    (fun f ->
      if not (is_warning f.cls) then begin
        Buffer.add_string b (finding_text f);
        Buffer.add_char b '\n'
      end
      else begin
        incr printed_warnings;
        if !printed_warnings <= max_warning_lines then begin
          Buffer.add_string b (finding_text f);
          Buffer.add_char b '\n'
        end
      end)
    fs;
  if !printed_warnings > max_warning_lines then
    Buffer.add_string b
      (Printf.sprintf "psan: ... %d more warning(s) not shown\n"
         (!printed_warnings - max_warning_lines));
  let vs = List.filter (fun f -> not (is_warning f.cls)) fs in
  let ws = List.filter (fun f -> is_warning f.cls) fs in
  if vs = [] then
    Buffer.add_string b
      (Printf.sprintf "psan: clean (%d warning%s)\n" (List.length ws)
         (if List.length ws = 1 then "" else "s"))
  else begin
    Buffer.add_string b
      (Printf.sprintf "psan: %d violation(s), %d warning(s):" (List.length vs)
         (List.length ws));
    List.iter
      (fun (c, n) ->
        if n > 0 then
          Buffer.add_string b (Printf.sprintf " %s=%d" (class_name c) n))
      (counts_by_class fs);
    Buffer.add_char b '\n'
  end;
  Buffer.contents b

let finding_json f =
  Json.Obj
    ([
       ("class", Json.Str (class_name f.cls));
       ("title", Json.Str (class_title f.cls));
       ("dev", Json.Num (float_of_int f.dev));
       ("off", Json.Num (float_of_int f.off));
       ("len", Json.Num (float_of_int f.len));
     ]
    @ (match f.tx with
      | Some i -> [ ("tx", Json.Num (float_of_int i)) ]
      | None -> [])
    @ [ ("ns", Json.Num f.ns); ("detail", Json.Str f.detail) ])

let report_json () =
  let fs = all_findings () in
  let vs = List.filter (fun f -> not (is_warning f.cls)) fs in
  let ws = List.filter (fun f -> is_warning f.cls) fs in
  Json.to_string
    (Json.Obj
       [
         ("violations", Json.List (List.map finding_json vs));
         ("warnings", Json.List (List.map finding_json ws));
         ( "summary",
           Json.Obj
             (List.map
                (fun (c, n) -> (class_name c, Json.Num (float_of_int n)))
                (counts_by_class fs)
             @ [ ("clean", Json.Bool (vs = [])) ]) );
       ])
