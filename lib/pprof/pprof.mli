(** Offline persist-waste profiler over probe event streams.

    {!Psan} judges a run {e locally} — a flush with nothing to write
    back, two fences in a row. This module answers the global
    question ROADMAP item 3 asks: how far above the {e provable
    minimum} persist cost does each engine run? It replays a
    probe-captured event stream ({!Ptelemetry.Probe}) through a
    shadow dependency analyzer built on the probe-stream context of
    {!Psan.Monitor} (layout, spill regions, recovery bracket and the
    {!Pmem.Persist_line.Shadow} line states psan and conformance
    judge), reconstructs the happens-before ordering DAG that crash
    consistency actually requires, computes the minimal flush/fence
    schedule for the trace, and attributes [actual - minimum] per
    transaction and per emission site, classifying every excess
    persist into a named elision opportunity.

    {2 The minimum}

    For each committed transaction the analyzer derives, from the pool
    geometry ({!Ptelemetry.Probe.Pool_layout}) and the store stream,
    the 64-byte lines that must be durable at each of the protocol's
    ordering barriers (the invariants {!Pmodel} checks):

    - {e seal barrier}: journal-region lines (entries, spill regions,
      drop records) must be durable before any data/mark line may be
      written back — one fence, needed only when both groups are
      non-empty (I-ATOMIC: an undo entry must be durable before the
      store it covers can reach media).
    - {e commit barrier}: every line the transaction stored must be
      durable at the commit point — one fence (C-FENCE-AT-COMMIT).
    - {e clears barrier}: post-commit allocation-table clears must be
      durable strictly before the log invalidation — one fence, needed
      only when the transaction applied drops
      (I-CLEARS-BEFORE-INVALIDATE).
    - {e truncate barrier}: the header reset that retires the log —
      one fence when any post-commit line exists (I-QUIESCENT-LOG).

    The minimal flush-call count is the number of maximal runs of
    contiguous dirty lines per barrier group (the device coalesces a
    contiguous range into one call); the minimal fence count is the
    number of barriers with work.  Journal-slot bytes in
    [[slot+8, slot+24)] (the advisory entry/drop counts, which recovery
    never trusts — I-NO-ADVISORY-TRUST) are not required durable at
    all.  Aborted or crashed transactions, overlapping transactions the
    untagged stream cannot attribute, recovery windows
    ({!Ptelemetry.Probe.Exempt_push}) and out-of-transaction persists
    are scored conservatively: minimum = actual, no waste claimed.

    {2 Elision classes}

    - [E1] — fence collapsible across independent lines (includes
      fences that drained nothing, psan's W2).
    - [E2] — flush of a line re-dirtied before its governing fence, or
      with no newly-dirty line at all (psan's W1).
    - [E3] — deferrable advisory update (the journal header's
      entry/drop counts).
    - [E4] — coalescable adjacent-line flushes under one fence.

    Every psan W1/W2 warning maps to an E2/E1 finding; the converse
    does not hold (e.g. the shipped free path carries one E3 flush psan
    cannot see).  Totals ([actual - minimum]) are authoritative;
    findings explain them. *)

(** {1 Capturing} *)

(** Record the probe stream in memory through a
    {!Ptelemetry.Probe.Recorder}, alongside any other subscriber — psan,
    the trace ring and the metrics registry can watch the same run. *)
module Capture : sig
  val start : unit -> unit
  (** Subscribe a fresh recorder (stopping any previous one). *)

  val cut : unit -> Ptelemetry.Probe.event list
  (** Return the events recorded since the last [start]/[cut] and keep
      recording — used to split one run into per-operation windows. *)

  val stop : unit -> Ptelemetry.Probe.event list
  (** Unsubscribe the recorder and return what it recorded since the
      last [start]/[cut] ([[]] when none is running). *)
end

val replay : Ptelemetry.Probe.event list -> unit
(** Re-emit a captured stream through the probe bus, delivering it to
    every current subscriber (e.g. an enabled {!Psan}, or a
    {!Ptelemetry.Trace} ring to render the capture as a Chrome trace). *)

(** {1 Analysis} *)

type elision = E1 | E2 | E3 | E4

val class_name : elision -> string
val class_doc : elision -> string

type finding = {
  cls : elision;
  kind : [ `Flush | `Fence ];
  dev : int;
  off : int;  (** anchor byte offset (0 for fences) *)
  len : int;
  ns : float;  (** simulated time of the excess persist *)
  tx : int;  (** analyzer-assigned transaction ordinal *)
  site : string;  (** emission site: journal / table / heap / … *)
  count : int;  (** excess persists this finding explains *)
  detail : string;
}

type report = {
  label : string;
  events : int;
  txs : int;  (** committed transactions analyzed against the minimum *)
  unanalyzed : int;  (** aborted/crashed/overlapping: minimum = actual *)
  actual_flushes : int;  (** flush calls inside transactions *)
  actual_fences : int;
  min_flushes : int;  (** minimal schedule for the same transactions *)
  min_fences : int;
  bg_flushes : int;  (** out-of-transaction persists (min = actual) *)
  bg_fences : int;
  recovery_flushes : int;  (** persists inside exempt windows *)
  recovery_fences : int;
  findings : finding list;  (** oldest first *)
  recovery_phases : (string * float) list;
      (** summed per-phase recovery durations from
          {!Ptelemetry.Probe.Recovery_phase} events, ns *)
}

val analyze :
  ?label:string ->
  ?prelude:Ptelemetry.Probe.event list ->
  Ptelemetry.Probe.event list ->
  report
(** Analyze a captured stream.  [prelude] events (pool creation,
    earlier windows) evolve the shadow state — geometry, line states,
    spill regions — but are not counted or attributed. *)

val waste_flushes : report -> int
val waste_fences : report -> int

val waste_by_class : report -> (elision * int * int) list
(** [(class, flush count, fence count)] summed over findings. *)

(** {1 Rendering} *)

val report_text : report -> string
val report_json : report -> Ptelemetry.Json.t
(** [{"schema": "corundum-pprof-v1", …}]. *)

val diff_text : report -> report -> string
(** Waste deltas between two reports of the same shape (A is the
    baseline). *)

(** {1 Chrome-trace annotation} *)

val emit_overlay : report -> unit
(** Emit one [cat:"pprof"] instant per finding into the installed
    {!Ptelemetry.Trace} sink, at the finding's simulated timestamp —
    overlaying waste on an existing trace of the same run. *)
