(** Sharded global registry of named counters and fixed-precision
    histograms.

    The registry backs the per-transaction attribution the evaluation
    needs (flushes/tx, fences/tx, logged bytes/tx — the quantities
    Table 5 of the paper reasons with): the probe subscriber interns
    each metric once and bumps it per event, and tooling dumps the
    whole registry as stable text or JSON.

    {b Multicore discipline.}  Every metric is sharded {!nshards} ways
    by the calling domain's id.  A counter bump is one lock-free
    fetch-and-add on the caller's own shard; a histogram observation
    takes a per-shard mutex that is uncontended unless two domains
    collide on a shard index.  Shards are merged on snapshot, so reads
    see a consistent whole-registry view while writers never serialize
    against each other — N domains recording latencies do not queue on
    one registry lock.

    {b Histogram precision.}  Histograms are {!Hdr} log-linear
    histograms: raw samples are retained (preallocated, allocation-free)
    up to {!exact_threshold} per shard-merge and quantiles there are
    exact; past it, quantiles are sub-bucket lower bounds within
    {!Hdr.max_rel_error} (≈3.1%) of the true sample at any population
    size — not the one-power-of-two floors of the old log2 buckets.

    Metric names are dot-separated ([tx.flushes], [alloc.size], …); the
    dumps list them in lexicographic order so diffs between runs are
    meaningful.  All operations are thread-safe.

    The stack's own metrics are fed by a {!Probe} subscriber
    ({!install}): no layer touches the registry directly, so an
    uninstrumented run pays only the probe gate's branch.  Tools may
    still intern and bump their own metrics. *)

type counter
type histogram

val nshards : int
(** Shards per metric (64).  Domain ids index shards modulo this. *)

val counter : string -> counter
(** Intern (find or create) the counter named [s]. *)

val histogram : string -> histogram
(** Intern the histogram named [s].  Raises [Invalid_argument] if the
    name is already registered as a counter (and vice versa). *)

val incr : ?by:int -> counter -> unit
(** One atomic fetch-and-add on the calling domain's shard. *)

val observe : histogram -> int -> unit
(** Record one sample into the calling domain's shard.  Negative
    samples clamp to 0.  Never allocates. *)

(** {1 Reading} *)

val counter_value : counter -> int
(** Sum over all shards. *)

val find_counter : string -> int option
(** Current value of a counter by name, if registered. *)

type histo_snapshot = Hdr.snapshot = {
  count : int;
  sum : int;
  min : int;  (** 0 when [count = 0] *)
  max : int;
  buckets : (int * int) list;
      (** ({!Hdr} bucket index, samples) for non-empty buckets,
          ascending. *)
  samples : int list option;
      (** every sample, sorted ascending, while [count <=
          exact_threshold]; [None] once the merged population outgrows
          the retention window (quantiles then fall back to log-linear
          sub-bucket lower bounds). *)
}

val find_histogram : string -> histo_snapshot option
(** Merged snapshot over every shard of the named histogram. *)

val exact_threshold : int
(** = {!Hdr.exact_capacity} (128): raw samples are retained while a
    histogram's merged population is at or below this, and {!quantile}
    is exact there rather than a bounded-error estimate. *)

val exact : histo_snapshot -> bool
(** Whether {!quantile} on this snapshot returns exact nearest-rank
    values (raw samples retained) rather than sub-bucket lower bounds.
    An empty histogram reports exact. *)

val bucket_of : int -> int
(** = {!Hdr.index_of}: the log-linear bucket a sample lands in.
    Values 0–63 get unit buckets; each power-of-two decade above is
    split into {!Hdr.sub_half} linear sub-buckets. *)

val bucket_lo : int -> int
(** = {!Hdr.bucket_lo}: smallest value of bucket [i]. *)

val mean : histo_snapshot -> float

val quantile : histo_snapshot -> float -> int
(** [quantile s q] is the [q]-quantile ([0 <= q <= 1]): the exact
    nearest-rank sample while the raw population is retained
    ([count <= exact_threshold]), otherwise the lower bound of the
    sub-bucket holding that rank — within {!Hdr.max_rel_error} of the
    true sample.  {!exact} tells which path applies. *)

(** {1 Dumps} *)

val dump_text : unit -> string
(** One metric per line: [name value] for counters, [name
    count=… sum=… mean=… p50…  p99… p999… max=…] for histograms ([p50=]
    when the quantile is exact, [p50~] when sub-bucket-estimated). *)

val dump_json : unit -> Json.t
(** [{"counters": {name: value}, "histograms": {name: {count, sum, min,
    max, mean, p50, p99, p999, exact, buckets: [[lo, n], …]}}}].
    Quantiles follow {!quantile}; [exact] says whether they are
    nearest-rank values or sub-bucket lower bounds. *)

val reset : unit -> unit
(** Zero every registered metric (names stay registered). *)

(** {1 The probe subscriber} *)

val install : unit -> unit
(** Subscribe the registry to the {!Probe} bus: transaction,
    journal, allocator, group-commit and recovery events update the
    vocabulary metrics ([tx.*], [journal.*], [alloc.*], [free.*],
    [group_commit.*], [recovery.*]).  A transaction's [tx.flushes] and
    [tx.fences] count only the persists its own domain issued on its
    device.  Idempotent. *)

val uninstall : unit -> unit
(** Unsubscribe; the registry keeps its values. *)
