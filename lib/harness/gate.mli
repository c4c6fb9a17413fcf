(** The one baseline gate.

    A gate compares keyed numeric rows of a current run against a
    committed baseline.  Each metric carries one rule from a closed set,
    and every row prints one line:

    {v OK|NEW|REGRESS|MISSING <gate> <key> <cur> (<rule> <base>) v}

    A row only in the current run is [NEW] and passes (adding an engine
    or op needs no baseline refresh in the same change); a baseline row
    absent from the current run is [MISSING] and fails.  The file-level
    entry points exit 1 if any row fails and 2 if a required input is
    absent.  DESIGN.md lists every gate with its rule table. *)

type rule =
  | Upper of { rel : float; abs : float }
      (** [cur <= base * (1 + rel) + abs] *)
  | Lower  (** [cur >= base] *)
  | Band of float  (** [|cur - base| <= rel * max |base| 1] *)

val pass : rule -> base:float -> float -> bool
val rule_to_string : rule -> string

type verdict = Ok | New | Regress | Missing

type row = {
  key : string;
  rule : rule;
  base : float option;
  cur : float option;
}

val verdict : row -> verdict
val failed : row -> bool
(** [Regress] or [Missing]. *)

val report : gate:string -> row list -> bool
(** Print every row; [true] when none failed. *)

(** {1 Rows from JSON documents} *)

type metric
(** A path to numeric leaves plus the rule that gates them. *)

val metric : ?base:string list -> string list -> rule -> metric
(** [metric path rule]: the numbers at [path] in the current document,
    compared with the numbers at [base] (default [path]) in the
    baseline.  A ["*"] component steps into every member of an object
    or every element of a list; a list element is named by its first
    string member (engine, op, label).  Row keys are [path] joined by
    ['/'] with each ["*"] replaced by the name it matched. *)

val rows : metric list -> base:Ptelemetry.Json.t -> cur:Ptelemetry.Json.t -> row list
(** Baseline rows in baseline order, then rows only the current run has. *)

val check : gate:string -> metric list -> baseline:string -> Ptelemetry.Json.t -> unit
(** Gate a current document against the baseline file: print the rows,
    exit 1 if any failed, exit 2 if the baseline is unreadable or yields
    no row. *)

val files :
  ?flags:string * string ->
  gate:string ->
  metric list ->
  current:string option ->
  baseline:string option ->
  unit
(** The [--json F --baseline B] idiom: nothing without a baseline,
    exit 2 when a baseline is given without a current file, otherwise
    {!check} the current file.  [flags] names the two options in the
    error message (default [("--json", "--baseline")]). *)

(** {1 The rule tables} *)

val bench : metric list
(** Flushes and fences per op, per engine and op: [Upper {0.10; 0.01}]. *)

val pprof : metric list
(** Waste flushes and fences per op, per engine and op: [Upper {0; 0.01}]. *)

val openloop : metric list
(** Merged throughput and response/service percentiles: [Band 0.10]. *)

val openloop_shared : metric list
(** Shared-pool fences and flushes per op against the baseline's [max_*]
    ceilings: [Upper {0; 0}]. *)

val recovery_p99 : rule
(** Recovery attach p99 against [--max-p99-ns]: [Upper {0; 0}]. *)

val pmodel : metric list
(** Explored crash branches: [Lower]. *)
