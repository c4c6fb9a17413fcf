module Pr = Ptelemetry.Probe
module Tr = Ptelemetry.Trace
module Json = Ptelemetry.Json
module PL = Pmem.Persist_line
module Sh = PL.Shadow

type violation_class = V1 | V2 | V3 | V4 | V5 | W1 | W2

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

type finding = {
  cls : violation_class;
  dev : int;
  off : int;
  len : int;
  tx : int option;
  ns : float;
  detail : string;
}

(* The device's cache is a Persist_line shadow whose line owners are
   domains.  On a shared pool a commit judges only the committing
   domain's own stores: a line another domain dirtied between this
   member's epoch fence and its commit point must not read as this
   member's missing flush. *)
type dev_state = {
  mutable heap : (int * int) option; (* from Pool_layout *)
  lines : Sh.t;
  dyn_exempt : (int, int) Hashtbl.t; (* live spill regions: off -> len *)
  retired : (int, int) Hashtbl.t; (* CoW-retired blocks: off -> len *)
  mutable exempt_depth : int; (* recovery bracket nesting *)
  mutable last_fence_empty : bool; (* previous fence drained nothing *)
}

(* One open outermost transaction, keyed by (domain, device). *)
type tx_state = {
  tx_id : int;
  mutable covered : (int * int) list; (* logged ranges ∪ fresh allocs *)
  mutable stored : (int * int) list; (* heap, non-exempt stores *)
  mutable commit_seen : bool;
}

let lock = Mutex.create ()
let devs : (int, dev_state) Hashtbl.t = Hashtbl.create 8
let txs : (int * int, tx_state) Hashtbl.t = Hashtbl.create 8
let user_exempt : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 8
let next_tx = ref 0
let found : finding list ref = ref [] (* newest first *)
let seen : (string * int * int, unit) Hashtbl.t = Hashtbl.create 64
let active = ref false

let dev_state dev =
  match Hashtbl.find_opt devs dev with
  | Some ds -> ds
  | None ->
      let ds =
        {
          heap = None;
          lines = Sh.create ();
          dyn_exempt = Hashtbl.create 8;
          retired = Hashtbl.create 8;
          exempt_depth = 0;
          last_fence_empty = false;
        }
      in
      Hashtbl.add devs dev ds;
      ds

(* {1 Interval arithmetic}

   Ranges are (off, len) lists, unordered and possibly overlapping;
   coverage checks subtract covering intervals from the query segment
   and look at what survives.  Lists are per-transaction and small. *)

let subtract segs (o, l) =
  let e = o + l in
  List.concat_map
    (fun (so, sl) ->
      let se = so + sl in
      if e <= so || o >= se then [ (so, sl) ]
      else
        (if o > so then [ (so, o - so) ] else [])
        @ if e < se then [ (e, se - e) ] else [])
    segs

let remaining segs cover = List.fold_left subtract segs cover

let exempt_ranges dev ds =
  let user =
    match Hashtbl.find_opt user_exempt dev with Some r -> !r | None -> []
  in
  Hashtbl.fold (fun o l acc -> (o, l) :: acc) ds.dyn_exempt user

(* Clip a store range to the device's heap; [] when no pool is attached
   or the range is pure metadata. *)
let heap_clip ds ~off ~len =
  match ds.heap with
  | None -> []
  | Some (hb, hl) ->
      let lo = max off hb and hi = min (off + len) (hb + hl) in
      if hi > lo then [ (lo, hi - lo) ] else []

(* {1 Findings} *)

let record cls ~dev ~off ~len ~tx ~ns ~detail =
  let key = (class_name cls, dev, PL.line_of off) in
  if not (Hashtbl.mem seen key) then begin
    Hashtbl.add seen key ();
    found := { cls; dev; off; len; tx; ns; detail } :: !found;
    (* Surface the finding in the trace too, so it lands inside the tx
       span it belongs to when a ring is installed. *)
    if Tr.on () then
      Tr.emit
        ~args:
          ([
             ("class", class_name cls);
             ("title", class_title cls);
             ("dev", string_of_int dev);
             ("off", string_of_int off);
             ("len", string_of_int len);
             ("detail", detail);
           ]
          @ match tx with Some i -> [ ("tx", string_of_int i) ] | None -> [])
        ~cat:"psan"
        ~name:("psan." ^ class_name cls)
        ~ph:Tr.I ~ts_ns:ns ()
  end

let tx_of dev = Hashtbl.find_opt txs ((Domain.self () :> int), dev)
let tx_id_of dev = Option.map (fun t -> t.tx_id) (tx_of dev)

(* {1 The shadow machine} *)

let on_store ~dev ~off ~len ~ns =
  let ds = dev_state dev in
  (* Probe handlers run synchronously on the emitting thread, so
     [Domain.self] here is the storing domain. *)
  Sh.store ds.lines ~who:(Domain.self () :> int) ~off ~len;
  if ds.exempt_depth = 0 then begin
    (* Use-after-retire: no store may land in a retired block until the
       allocator reissues it, no matter how well-covered the tx is. *)
    Hashtbl.iter
      (fun o l ->
        let lo = max off o and hi = min (off + len) (o + l) in
        if hi > lo then
          record V5 ~dev ~off:lo ~len:(hi - lo) ~tx:(tx_id_of dev) ~ns
            ~detail:"block was retired by a root swap and not reissued")
      ds.retired;
    match heap_clip ds ~off ~len with
    | [] -> ()
    | segs -> (
        match remaining segs (exempt_ranges dev ds) with
        | [] -> ()
        | segs -> (
            match tx_of dev with
            | None ->
                List.iter
                  (fun (o, l) ->
                    record V4 ~dev ~off:o ~len:l ~tx:None ~ns
                      ~detail:"heap store with no open transaction")
                  segs
            | Some tx ->
                tx.stored <- segs @ tx.stored;
                List.iter
                  (fun (o, l) ->
                    record V1 ~dev ~off:o ~len:l ~tx:(Some tx.tx_id) ~ns
                      ~detail:
                        "no covering undo-log entry or same-tx allocation")
                  (remaining segs tx.covered)))
  end

let on_flush ~dev ~off ~len ~ns =
  let ds = dev_state dev in
  if Sh.flush ds.lines ~off ~len = [] && ds.exempt_depth = 0 then
    record W1 ~dev ~off ~len ~tx:(tx_id_of dev) ~ns
      ~detail:"flushed lines held no unwritten-back data"

let on_fence ~dev ~ns =
  let ds = dev_state dev in
  let empty = Sh.fence ds.lines = 0 in
  if empty && ds.last_fence_empty && ds.exempt_depth = 0 then
    record W2 ~dev ~off:0 ~len:0 ~tx:(tx_id_of dev) ~ns
      ~detail:"consecutive fences with an empty write-pending queue";
  ds.last_fence_empty <- empty

(* At the commit point every range the transaction stored must already
   be durable: dirty means the flush is missing, write-pending means
   the fence is.  Judged here — before the journal truncates — because
   truncation's own persists drain the WPQ and would mask both.  Only
   the committing domain's own residue counts: on a shared pool another
   domain may have re-dirtied one of these lines between this member's
   epoch fence and its commit point, and that is its transaction's
   problem, not this one's. *)
let check_commit ds tx ~who ~dev ~ns =
  tx.commit_seen <- true;
  List.iter
    (fun (o, l) ->
      for ln = PL.line_of o to PL.line_of (o + l - 1) do
        let off = PL.line_start ln and len = PL.line_size in
        if List.mem who (Sh.dirty_owners ds.lines ln) then
          record V2 ~dev ~off ~len ~tx:(Some tx.tx_id) ~ns
            ~detail:"line still dirty at commit point (missing flush)"
        else if List.mem who (Sh.pending_owners ds.lines ln) then
          record V3 ~dev ~off ~len ~tx:(Some tx.tx_id) ~ns
            ~detail:"line write-pending at commit point (flush without fence)"
      done)
    tx.stored

let on_event ev =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      match ev with
      | Pr.Store { dev; off; len; ns } -> on_store ~dev ~off ~len ~ns
      | Pr.Flush { dev; off; len; ns; _ } -> on_flush ~dev ~off ~len ~ns
      | Pr.Fence { dev; ns; _ } -> on_fence ~dev ~ns
      | Pr.Power_cycle { dev } ->
          (* All cache state is gone; in-flight spills roll back at
             recovery, so their exemptions die with them.  User
             exemptions are statements about regions and survive. *)
          let ds = dev_state dev in
          Sh.reset ds.lines;
          Hashtbl.reset ds.dyn_exempt;
          Hashtbl.reset ds.retired;
          ds.exempt_depth <- 0;
          ds.last_fence_empty <- false;
          Hashtbl.filter_map_inplace
            (fun (_, d) tx -> if d = dev then None else Some tx)
            txs
      | Pr.Pool_layout { dev; heap_base; heap_len; _ } ->
          (dev_state dev).heap <- Some (heap_base, heap_len)
      | Pr.Tx_begin { dev; _ } ->
          incr next_tx;
          Hashtbl.replace txs
            ((Domain.self () :> int), dev)
            { tx_id = !next_tx; covered = []; stored = []; commit_seen = false }
      | Pr.Tx_end { dev; outcome; ns; _ } ->
          let key = ((Domain.self () :> int), dev) in
          (match (outcome, Hashtbl.find_opt txs key) with
          | Pr.Commit, Some tx when not tx.commit_seen ->
              (* The journal had nothing to commit, so no commit point
                 was emitted (nor any fence run) — judge here. *)
              check_commit (dev_state dev) tx ~who:(fst key) ~dev ~ns
          | _ -> ());
          Hashtbl.remove txs key
      | Pr.Log { dev; off; len; _ } -> (
          match tx_of dev with
          | Some tx -> tx.covered <- (off, len) :: tx.covered
          | None -> ())
      | Pr.Alloc { dev; off; len; _ } | Pr.Cow_shadow { dev; off; len } ->
          (* Shadow state is unreachable until the root swap publishes
             it, so it is rollback-safe exactly like a fresh alloc; a
             reissued block is no longer retired. *)
          let ds = dev_state dev in
          Hashtbl.filter_map_inplace
            (fun o l -> if max off o < min (off + len) (o + l) then None else Some l)
            ds.retired;
          (match tx_of dev with
          | Some tx -> tx.covered <- (off, len) :: tx.covered
          | None -> ())
      | Pr.Cow_retire { dev; off; len } ->
          Hashtbl.replace (dev_state dev).retired off len
      | Pr.Commit_point { dev; ns } -> (
          match tx_of dev with
          | Some tx ->
              check_commit (dev_state dev) tx
                ~who:(Domain.self () :> int)
                ~dev ~ns
          | None -> ())
      | Pr.Region_reserve { dev; off; len; _ } ->
          Hashtbl.replace (dev_state dev).dyn_exempt off len
      | Pr.Region_release { dev; off } ->
          Hashtbl.remove (dev_state dev).dyn_exempt off
      | Pr.Exempt_push { dev } ->
          let ds = dev_state dev in
          ds.exempt_depth <- ds.exempt_depth + 1
      | Pr.Exempt_pop { dev } ->
          let ds = dev_state dev in
          ds.exempt_depth <- max 0 (ds.exempt_depth - 1)
      | Pr.Journal_truncate _ | Pr.Drop_apply _
      | Pr.Recovery_phase _ | Pr.Recovery _ | Pr.Epoch _ | Pr.Block_alloc _
      | Pr.Block_free _ ->
          (* Geometry, protocol-progress and accounting events for other
             subscribers; the sanitizer's rules key off the coarser
             events. *)
          ())

(* {1 Lifecycle} *)

let reset_state () =
  Hashtbl.reset devs;
  Hashtbl.reset txs;
  Hashtbl.reset seen;
  found := [];
  next_tx := 0

let reset () =
  Mutex.lock lock;
  reset_state ();
  Mutex.unlock lock

let subscription = ref None

let enable () =
  Mutex.lock lock;
  reset_state ();
  active := true;
  Mutex.unlock lock;
  if !subscription = None then subscription := Some (Pr.subscribe on_event)

let disable () =
  Mutex.lock lock;
  active := false;
  Mutex.unlock lock;
  Option.iter Pr.unsubscribe !subscription;
  subscription := None

let enabled () = !active

(* {1 Exemptions} *)

let exempt ~dev ~off ~len =
  Mutex.lock lock;
  (match Hashtbl.find_opt user_exempt dev with
  | Some r -> r := (off, len) :: !r
  | None -> Hashtbl.add user_exempt dev (ref [ (off, len) ]));
  Mutex.unlock lock

let unexempt ~dev ~off ~len =
  Mutex.lock lock;
  (match Hashtbl.find_opt user_exempt dev with
  | Some r -> r := List.filter (fun x -> x <> (off, len)) !r
  | None -> ());
  Mutex.unlock lock

(* {1 Findings and reports} *)

let all_findings () =
  Mutex.lock lock;
  let r = List.rev !found in
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
