module Pr = Ptelemetry.Probe
module Tr = Ptelemetry.Trace
module Json = Ptelemetry.Json
module M = Psan.Monitor

(* {1 Capture} *)

module Capture = struct
  let current : Pr.Recorder.t option ref = ref None
  let untag = List.map snd

  let stop () =
    match !current with
    | None -> []
    | Some r ->
        current := None;
        untag (Pr.Recorder.stop r)

  let start () =
    ignore (stop ());
    current := Some (Pr.Recorder.start ())

  let cut () = match !current with None -> [] | Some r -> untag (Pr.Recorder.cut r)
end

let replay events = List.iter Pr.emit events

(* {1 Elision classes} *)

type elision = E1 | E2 | E3 | E4

let class_name = function E1 -> "E1" | E2 -> "E2" | E3 -> "E3" | E4 -> "E4"

let class_doc = function
  | E1 -> "fence collapsible across independent lines"
  | E2 -> "flush of a line re-dirtied before its governing fence"
  | E3 -> "deferrable advisory update"
  | E4 -> "coalescable adjacent-line flush"

type finding = {
  cls : elision;
  kind : [ `Flush | `Fence ];
  dev : int;
  off : int;
  len : int;
  ns : float;
  tx : int;
  site : string;
  count : int;
  detail : string;
}

type report = {
  label : string;
  events : int;
  txs : int;
  unanalyzed : int;
  actual_flushes : int;
  actual_fences : int;
  min_flushes : int;
  min_fences : int;
  bg_flushes : int;
  bg_fences : int;
  recovery_flushes : int;
  recovery_fences : int;
  findings : finding list;
  recovery_phases : (string * float) list;
}

(* {1 Shadow analyzer}

   The probe-stream context — layout, region classification, spill
   regions, recovery brackets and the lines' persist states
   ({!Pmem.Persist_line.Shadow}) — is {!Psan.Monitor}'s, shared with
   psan and conformance.  On top of it, each open transaction
   accumulates the line sets the protocol's ordering barriers require
   durable, split by region (journal/spill vs data/mark vs post-commit
   clears vs header reset), from which the minimal schedule falls out as
   contiguous-run counts per barrier. *)

module PL = Pmem.Persist_line
module Sh = PL.Shadow

let site_of_region = function
  | M.Header -> "header"
  | M.Cow -> "cow-root"
  | M.Journal -> "journal"
  | M.Journal_adv -> "journal-advisory"
  | M.Table -> "table"
  | M.Heap -> "heap"
  | M.Spill -> "spill"

(* One flush call awaiting its governing fence (for E2-superseded and
   E4-coalescing attribution). *)
type frec = { fr_off : int; fr_len : int; fr_ns : float; fr_newly : int list }

type txstate = {
  tx_id : int;
  mutable commit_seen : bool;
  mutable poisoned : bool;
  mutable is_cow : bool; (* touched the CoW root-cell region *)
  pre_log : (int, unit) Hashtbl.t; (* journal/spill lines, required *)
  pre_other : (int, unit) Hashtbl.t; (* data/mark/header lines, required *)
  pre_adv : (int, unit) Hashtbl.t; (* advisory-only candidates *)
  pre_cow : (int, unit) Hashtbl.t; (* intent lines sealed under their own fence *)
  post_journal : (int, unit) Hashtbl.t; (* header-reset lines, required *)
  post_table : (int, unit) Hashtbl.t; (* table-clear lines, required *)
  post_adv : (int, unit) Hashtbl.t;
  post_cow : (int, unit) Hashtbl.t; (* the swap word, flushed unfenced *)
  mutable a_fl : int;
  mutable a_fe : int;
  mutable classified_fl : int; (* flush waste already explained *)
  mutable empty_fences : int; (* fence waste already explained *)
  mutable tfind : finding list; (* newest first; dropped if unanalyzed *)
  mutable last_ns : float;
}

type dstate = {
  c : M.dev;
  mutable pending : frec list; (* since the last fence, newest first *)
  mutable pending_cycle : int; (* [c.cycles] when [pending] was queued *)
  mutable tx : txstate option;
  mutable tx_overlap : int; (* extra Tx_begins the stream can't attribute *)
}

(* The state of one [analyze] run: the report so far, findings newest
   first. *)
type acc = {
  ctx : M.ctx;
  devs : (int, dstate) Hashtbl.t;
  mutable live : bool; (* past the prelude: persists are scored *)
  mutable next_tx : int;
  mutable r : report;
}

let runs_of_sorted = function
  | [] -> 0
  | l0 :: rest ->
      fst
        (List.fold_left
           (fun (r, last) l -> if l <= last + 1 then (r, l) else (r + 1, l))
           (1, l0) rest)

let runs_of_tbl tbl =
  runs_of_sorted
    (List.sort_uniq compare (Hashtbl.fold (fun l () a -> l :: a) tbl []))

let runs_of_list ls = runs_of_sorted (List.sort_uniq compare ls)

let fresh_tx id =
  {
    tx_id = id;
    commit_seen = false;
    poisoned = false;
    is_cow = false;
    pre_log = Hashtbl.create 16;
    pre_other = Hashtbl.create 16;
    pre_adv = Hashtbl.create 4;
    pre_cow = Hashtbl.create 4;
    post_journal = Hashtbl.create 8;
    post_table = Hashtbl.create 8;
    post_adv = Hashtbl.create 4;
    post_cow = Hashtbl.create 4;
    a_fl = 0;
    a_fe = 0;
    classified_fl = 0;
    empty_fences = 0;
    tfind = [];
    last_ns = 0.0;
  }

let dstate acc dev =
  match Hashtbl.find_opt acc.devs dev with
  | Some d -> d
  | None ->
      let d =
        { c = M.dev acc.ctx dev; pending = []; pending_cycle = 0; tx = None; tx_overlap = 0 }
      in
      Hashtbl.add acc.devs dev d;
      d

(* Flushes queued before a power cycle died with the write-pending
   queue. *)
let pending d = if d.pending_cycle = d.c.M.cycles then d.pending else []

let note tx d ~cls ~kind ~off ~len ~ns ~site ~count detail =
  tx.tfind <-
    { cls; kind; dev = d.c.M.id; off; len; ns; tx = tx.tx_id; site; count; detail }
    :: tx.tfind

(* {2 Per-event handlers} *)

(* A store files its lines under the barrier group that its region and
   the transaction's commit phase make them part of. *)
let on_store d off len =
  if d.c.M.exempt = 0 then
    match d.tx with
    | Some tx when not tx.poisoned -> (
        match d.c.M.layout with
        | None -> tx.poisoned <- true
        | Some g -> (
            let add tbl =
              for l = PL.line_of off to PL.line_of (off + len - 1) do
                Hashtbl.replace tbl l ()
              done
            in
            match (tx.commit_seen, M.region d.c g ~off ~len) with
            | false, (Journal | Spill) -> add tx.pre_log
            | false, Journal_adv -> add tx.pre_adv
            | false, (Table | Heap | Header) -> add tx.pre_other
            | true, Table -> add tx.post_table
            | true, Journal_adv -> add tx.post_adv
            | true, (Journal | Spill | Header | Heap) -> add tx.post_journal
            | post, Cow ->
                tx.is_cow <- true;
                add (if post then tx.post_cow else tx.pre_cow)))
    | _ -> ()

(* A flush that queues no line is E2 and one that queues advisory bytes
   only is E3; the rest wait for their governing fence. *)
let on_flush acc d off len ns =
  let newly = d.c.M.queued in
  if acc.live then
    if d.c.M.exempt > 0 then
      acc.r <- { acc.r with recovery_flushes = acc.r.recovery_flushes + 1 }
    else
      match d.tx with
      | None -> acc.r <- { acc.r with bg_flushes = acc.r.bg_flushes + 1 }
      | Some tx -> (
          tx.a_fl <- tx.a_fl + 1;
          tx.last_ns <- ns;
          if not tx.poisoned then
            match d.c.M.layout with
            | None -> tx.poisoned <- true
            | Some g ->
                let req l =
                  if tx.commit_seen then
                    Hashtbl.mem tx.post_table l
                    || Hashtbl.mem tx.post_journal l
                    || Hashtbl.mem tx.post_cow l
                  else
                    Hashtbl.mem tx.pre_log l || Hashtbl.mem tx.pre_other l
                    || Hashtbl.mem tx.pre_cow l
                in
                let adv l =
                  Hashtbl.mem (if tx.commit_seen then tx.post_adv else tx.pre_adv) l
                in
                let classified cls detail =
                  tx.classified_fl <- tx.classified_fl + 1;
                  note tx d ~cls ~kind:`Flush ~off ~len ~ns
                    ~site:(site_of_region (M.region d.c g ~off ~len))
                    ~count:1 detail
                in
                if newly = [] then
                  classified E2 "write-back of a range with no newly-dirty line"
                else if List.for_all (fun l -> adv l && not (req l)) newly then
                  classified E3
                    "advisory bytes only (never trusted by recovery); deferrable"
                else begin
                  d.pending <-
                    { fr_off = off; fr_len = len; fr_ns = ns; fr_newly = newly }
                    :: pending d;
                  d.pending_cycle <- d.c.M.cycles
                end)

(* Judge the flushes a fence governs, before it drains: a flush whose
   every queued line was re-dirtied since is E2, flushes beyond the
   contiguous runs they cover are E4, and a fence over an empty queue
   is E1. *)
let score_fence d tx ns =
  let site_of fr =
    match d.c.M.layout with
    | Some g -> site_of_region (M.region d.c g ~off:fr.fr_off ~len:fr.fr_len)
    | None -> "unknown"
  in
  let superseded, effective =
    List.partition
      (fun fr ->
        fr.fr_newly <> []
        && List.for_all (fun l -> Sh.state d.c.M.lines l = PL.Wpq_dirty) fr.fr_newly)
      (List.rev (pending d))
  in
  List.iter
    (fun fr ->
      tx.classified_fl <- tx.classified_fl + 1;
      note tx d ~cls:E2 ~kind:`Flush ~off:fr.fr_off ~len:fr.fr_len ~ns:fr.fr_ns
        ~site:(site_of fr) ~count:1
        "every line written back was re-dirtied before the governing fence")
    superseded;
  let k = List.length effective in
  (if k > 1 then
     let r = runs_of_list (List.concat_map (fun fr -> fr.fr_newly) effective) in
     if k > r then begin
       tx.classified_fl <- tx.classified_fl + (k - r);
       note tx d ~cls:E4 ~kind:`Flush
         ~off:(match effective with fr :: _ -> fr.fr_off | [] -> 0)
         ~len:0 ~ns ~site:"fence-group" ~count:(k - r)
         (Printf.sprintf "%d flush calls cover %d contiguous run(s) under this fence"
            k r)
     end);
  if Sh.pending_count d.c.M.lines = 0 then begin
    tx.empty_fences <- tx.empty_fences + 1;
    note tx d ~cls:E1 ~kind:`Fence ~off:0 ~len:0 ~ns ~site:"fence" ~count:1
      "fence drained nothing"
  end

(* Runs before the context sees the fence: scoring reads the queue the
   fence is about to drain. *)
let on_fence acc d ns =
  (if acc.live then
     if d.c.M.exempt > 0 then
       acc.r <- { acc.r with recovery_fences = acc.r.recovery_fences + 1 }
     else
       match d.tx with
       | None -> acc.r <- { acc.r with bg_fences = acc.r.bg_fences + 1 }
       | Some tx ->
           tx.a_fe <- tx.a_fe + 1;
           tx.last_ns <- ns;
           if not tx.poisoned then score_fence d tx ns);
  d.pending <- []

(* The minimal (flushes, fences) of a committed transaction: one flush
   per contiguous run of each barrier group, one fence per barrier
   with work. *)
let min_schedule tx =
  let g1 = runs_of_tbl tx.pre_log and g2 = runs_of_tbl tx.pre_other in
  let g3 = runs_of_tbl tx.post_table and g4 = runs_of_tbl tx.post_journal in
  let c1 = runs_of_tbl tx.pre_cow and c4 = runs_of_tbl tx.post_cow in
  let one b = if b then 1 else 0 in
  if tx.is_cow then
    (* CoW fence floor: the intent seal (if any) fences alone; one
       commit fence orders every pre-swap line before the swap word;
       the swap word and any publish words are flushed unfenced
       (buffered durability); retire clears need one fence ordering
       them after the swap. *)
    ( c1 + g1 + g2 + g3 + g4 + c4,
      one (c1 > 0) + one (g1 + g2 > 0) + one (g3 > 0) )
  else
    ( g1 + g2 + g3 + g4,
      one (g1 > 0 && g2 > 0)
      + one (g1 > 0 || g2 > 0)
      + one (g3 > 0 && g4 > 0)
      + one (g3 > 0 || g4 > 0) )

let finish_tx acc d tx ~committed =
  d.tx <- None;
  if acc.live then begin
    let a_fl = tx.a_fl and a_fe = tx.a_fe and r = acc.r in
    let r =
      { r with
        actual_flushes = r.actual_flushes + a_fl;
        actual_fences = r.actual_fences + a_fe }
    in
    if
      committed && (not tx.poisoned)
      && (tx.commit_seen || (a_fl = 0 && a_fe = 0))
    then begin
      let min_fl, min_fe = min_schedule tx in
      (* A buggy (flush/fence-eliding) trace can undershoot the
         minimum; waste is never negative. *)
      let m_fl = min min_fl a_fl and m_fe = min min_fe a_fe in
      let rem_fl = a_fl - m_fl - tx.classified_fl in
      if rem_fl > 0 then
        note tx d ~cls:E1 ~kind:`Flush ~off:0 ~len:0 ~ns:tx.last_ns ~site:"journal"
          ~count:rem_fl "line(s) re-flushed under a collapsible fence";
      let rem_fe = a_fe - m_fe - tx.empty_fences in
      if rem_fe > 0 then
        note tx d ~cls:E1 ~kind:`Fence ~off:0 ~len:0 ~ns:tx.last_ns ~site:"fence"
          ~count:rem_fe
          "per-entry seal fences collapsible into one (independent lines)";
      acc.r <-
        { r with txs = r.txs + 1; min_flushes = r.min_flushes + m_fl;
          min_fences = r.min_fences + m_fe; findings = tx.tfind @ r.findings }
    end
    else
      acc.r <-
        { r with unanalyzed = r.unanalyzed + 1; min_flushes = r.min_flushes + a_fl;
          min_fences = r.min_fences + a_fe }
  end

let on_tx_begin acc d =
  match d.tx with
  | None ->
      acc.next_tx <- acc.next_tx + 1;
      d.tx <- Some (fresh_tx acc.next_tx)
  | Some tx ->
      (* Two transactions on one device: the stream carries no domain
         id, so neither can be attributed.  Poison. *)
      tx.poisoned <- true;
      d.tx_overlap <- d.tx_overlap + 1

let on_tx_end acc d outcome =
  if d.tx_overlap > 0 then d.tx_overlap <- d.tx_overlap - 1
  else Option.iter (fun tx -> finish_tx acc d tx ~committed:(outcome = Pr.Commit)) d.tx

let on_recovery_phase acc phase dur_ns =
  let phases = acc.r.recovery_phases in
  if acc.live then
    acc.r <-
      { acc.r with
        recovery_phases =
          (match List.assoc_opt phase phases with
          | Some prev -> (phase, prev +. dur_ns) :: List.remove_assoc phase phases
          | None -> phases @ [ (phase, dur_ns) ]) }

let on_event acc ev =
  let d = dstate acc (Pr.dev_of ev) in
  (match ev with Pr.Fence { ns; _ } -> on_fence acc d ns | _ -> ());
  (* the untagged stream carries no domain: one owner for every line *)
  ignore (M.observe acc.ctx ~who:0 ev : int * M.dev);
  match ev with
  | Pr.Store { off; len; _ } -> on_store d off len
  | Pr.Flush { off; len; ns; _ } -> on_flush acc d off len ns
  | Pr.Tx_begin _ -> on_tx_begin acc d
  | Pr.Tx_end { outcome; _ } -> on_tx_end acc d outcome
  | Pr.Commit_point _ -> Option.iter (fun tx -> tx.commit_seen <- true) d.tx
  | Pr.Recovery_phase { phase; dur_ns; _ } -> on_recovery_phase acc phase dur_ns
  | _ ->
      (* geometry, spill regions, recovery brackets and power cycles
         are the shared context's *)
      ()

let analyze ?(label = "trace") ?(prelude = []) events =
  let r =
    {
      label;
      events = List.length events;
      txs = 0;
      unanalyzed = 0;
      actual_flushes = 0;
      actual_fences = 0;
      min_flushes = 0;
      min_fences = 0;
      bg_flushes = 0;
      bg_fences = 0;
      recovery_flushes = 0;
      recovery_fences = 0;
      findings = [];
      recovery_phases = [];
    }
  in
  let acc = { ctx = M.context (); devs = Hashtbl.create 4; live = false; next_tx = 0; r } in
  List.iter (on_event acc) prelude;
  (* A transaction spanning the prelude boundary has uncounted persists;
     score it conservatively. *)
  Hashtbl.iter (fun _ d -> Option.iter (fun tx -> tx.poisoned <- true) d.tx) acc.devs;
  acc.live <- true;
  List.iter (on_event acc) events;
  Hashtbl.iter
    (fun _ d -> Option.iter (fun tx -> finish_tx acc d tx ~committed:false) d.tx)
    acc.devs;
  { acc.r with findings = List.rev acc.r.findings }

let waste_flushes r = r.actual_flushes - r.min_flushes
let waste_fences r = r.actual_fences - r.min_fences

let sum_by key r =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun f ->
      let k = key f in
      let fl, fe =
        match Hashtbl.find_opt tbl k with
        | Some v -> v
        | None ->
            order := k :: !order;
            (0, 0)
      in
      let fl, fe =
        match f.kind with
        | `Flush -> (fl + f.count, fe)
        | `Fence -> (fl, fe + f.count)
      in
      Hashtbl.replace tbl k (fl, fe))
    r.findings;
  List.rev_map (fun k -> let fl, fe = Hashtbl.find tbl k in (k, fl, fe)) !order

let waste_by_class r = sum_by (fun f -> f.cls) r

(* {1 Rendering} *)

let kind_name = function `Flush -> "flush" | `Fence -> "fence"

let report_text r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "pprof report: %s\n" r.label;
  pf "  events=%d txs=%d unanalyzed=%d\n" r.events r.txs r.unanalyzed;
  pf "  flushes: actual=%d minimum=%d waste=%d\n" r.actual_flushes
    r.min_flushes (waste_flushes r);
  pf "  fences:  actual=%d minimum=%d waste=%d\n" r.actual_fences r.min_fences
    (waste_fences r);
  if r.bg_flushes + r.bg_fences > 0 then
    pf "  out-of-tx (min=actual): flushes=%d fences=%d\n" r.bg_flushes
      r.bg_fences;
  if r.recovery_flushes + r.recovery_fences > 0 then
    pf "  recovery (min=actual): flushes=%d fences=%d\n" r.recovery_flushes
      r.recovery_fences;
  (match waste_by_class r with
  | [] -> ()
  | classes ->
      pf "  waste by elision class:\n";
      List.iter
        (fun (cls, fl, fe) ->
          pf "    %s (%s): flushes=%d fences=%d\n" (class_name cls)
            (class_doc cls) fl fe)
        classes);
  (match r.recovery_phases with
  | [] -> ()
  | phases ->
      pf "  recovery phases (ns):";
      List.iter (fun (name, ns) -> pf " %s=%.0f" name ns) phases;
      pf "\n");
  let shown = ref 0 in
  List.iter
    (fun f ->
      if !shown < 40 then begin
        incr shown;
        pf "  [%s] %s dev=%d off=%d len=%d tx=%d site=%s x%d — %s\n"
          (class_name f.cls) (kind_name f.kind) f.dev f.off f.len f.tx f.site
          f.count f.detail
      end)
    r.findings;
  let total = List.length r.findings in
  if total > !shown then pf "  … %d more finding(s)\n" (total - !shown);
  Buffer.contents b

let num i = Json.Num (float_of_int i)

let finding_json f =
  Json.Obj
    [
      ("class", Json.Str (class_name f.cls));
      ("kind", Json.Str (kind_name f.kind));
      ("dev", num f.dev);
      ("off", num f.off);
      ("len", num f.len);
      ("ns", Json.Num f.ns);
      ("tx", num f.tx);
      ("site", Json.Str f.site);
      ("count", num f.count);
      ("detail", Json.Str f.detail);
    ]

let report_json r =
  Json.Obj
    [
      ("schema", Json.Str "corundum-pprof-v1");
      ("label", Json.Str r.label);
      ("events", num r.events);
      ("txs", num r.txs);
      ("unanalyzed", num r.unanalyzed);
      ( "flushes",
        Json.Obj
          [
            ("actual", num r.actual_flushes);
            ("min", num r.min_flushes);
            ("waste", num (waste_flushes r));
          ] );
      ( "fences",
        Json.Obj
          [
            ("actual", num r.actual_fences);
            ("min", num r.min_fences);
            ("waste", num (waste_fences r));
          ] );
      ( "background",
        Json.Obj [ ("flushes", num r.bg_flushes); ("fences", num r.bg_fences) ]
      );
      ( "recovery",
        Json.Obj
          [
            ("flushes", num r.recovery_flushes);
            ("fences", num r.recovery_fences);
            ( "phases",
              Json.Obj
                (List.map
                   (fun (name, ns) -> (name, Json.Num ns))
                   r.recovery_phases) );
          ] );
      ( "by_class",
        Json.Obj
          (List.map
             (fun (cls, fl, fe) ->
               ( class_name cls,
                 Json.Obj [ ("flushes", num fl); ("fences", num fe) ] ))
             (waste_by_class r)) );
      ("findings", Json.List (List.map finding_json r.findings));
    ]

let diff_text a b =
  let buf = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "pprof diff: %s -> %s\n" a.label b.label;
  let row name va vb =
    pf "  %-16s %8d -> %8d  (%+d)\n" name va vb (vb - va)
  in
  row "txs" a.txs b.txs;
  row "actual flushes" a.actual_flushes b.actual_flushes;
  row "actual fences" a.actual_fences b.actual_fences;
  row "min flushes" a.min_flushes b.min_flushes;
  row "min fences" a.min_fences b.min_fences;
  row "waste flushes" (waste_flushes a) (waste_flushes b);
  row "waste fences" (waste_fences a) (waste_fences b);
  Buffer.contents buf

(* {1 Chrome-trace annotation} *)

let emit_overlay r =
  if Tr.on () then
    List.iter
      (fun f ->
        Tr.emit
          ~args:
            [
              ("class", class_name f.cls);
              ("kind", kind_name f.kind);
              ("site", f.site);
              ("tx", string_of_int f.tx);
              ("count", string_of_int f.count);
              ("detail", f.detail);
            ]
          ~cat:"pprof"
          ~name:("waste." ^ class_name f.cls)
          ~ph:Tr.I ~ts_ns:f.ns ())
      r.findings
