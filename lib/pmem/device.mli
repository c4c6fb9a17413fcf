(** Simulated byte-addressable persistent-memory device.

    The device models the part of the memory hierarchy that matters for
    crash consistency on real PM hardware:

    - stores land in a volatile {e line cache} (the CPU cache);
    - {!flush} writes a 64-byte line back into a {e write-pending queue}
      (the behaviour of [clflushopt] without an ordering fence);
    - {!fence} drains the write-pending queue to durable media ([sfence]);
    - a power failure ({!power_cycle} after a scheduled {!Crashed}) keeps
      durable media, keeps a {e random subset} of the write-pending queue
      (lines flushed but not yet fenced may or may not have reached media),
      and discards everything else.

    The per-line transitions are {!Persist_line}'s, the one definition
    psan and pprof replay too; the device keeps them densely, one byte
    per line, next to a WPQ of line snapshots (an array of queued line
    indexes and one reusable 64-byte buffer per entry, so flushes and
    fences allocate nothing).

    The durable image and the view are private mappings of [/dev/zero]:
    creating a device is O(1), and a page costs host memory only once
    it is written.

    Durable contents can be saved to / loaded from a backing file so that
    pools survive process restarts, mirroring DAX-mmap files.

    Time is simulated analytically: every operation bumps a counter and
    {!simulated_ns} folds the counters through a {!Latency.t} model, so
    microbenchmark results are deterministic and hardware-independent. *)

exception Crashed
(** Raised at a persist point when the scheduled crash countdown reaches
    zero.  After it is raised every subsequent access raises {!Crashed}
    again until {!power_cycle} is called, so no code can "survive" the
    simulated power failure by catching the exception. *)

type t

val line_size : int
(** Cache-line size in bytes (64). *)

val create : ?latency:Latency.t -> ?seed:int -> ?path:string -> size:int -> unit -> t
(** [create ~size ()] makes a device of [size] bytes (rounded up to a whole
    number of lines), zero-filled and durable.  [latency] defaults to
    {!Latency.zero}.  [path] names an optional backing file used by
    {!save} and {!load}. *)

val id : t -> int
(** Process-unique device id, assigned at {!create} (and therefore also
    by {!load}).  Carried by {!Ptelemetry.Probe} events so auditors can
    key shadow state per device without holding the device itself. *)

val size : t -> int
val latency : t -> Latency.t
val path : t -> string option

(** {1 Loads and stores}

    All offsets are byte offsets from the start of the device.  Loads read
    the volatile view (cache); stores dirty the affected lines.  Out-of-range
    accesses raise [Invalid_argument]. *)

val read_u8 : t -> int -> int
val read_u32 : t -> int -> int
val read_u64 : t -> int -> int64
val read_int : t -> int -> int
(** [read_int t off] is [Int64.to_int (read_u64 t off)] (the low 63
    bits of the little-endian word), with the same checks and accounting,
    but allocation-free. *)

val read_bytes : t -> int -> int -> Bytes.t
val read_string : t -> int -> int -> string

val read_into : t -> int -> Bytes.t -> int -> unit
(** [read_into t off buf len] copies the [len] bytes at [off] into the
    head of [buf]: one load, like [read_bytes t off len], and no
    allocation.  The range must lie inside one cache line; a wider one
    (or a [buf] shorter than [len]) raises [Invalid_argument], so a bulk
    read can never pass for a single load. *)

val crc32_fold : t -> int -> int -> int -> int
(** [crc32_fold t crc off len] folds the [len] bytes at [off] into the
    CRC-32 accumulator [crc] ({!Crc32.update}), reading the view in
    place: one load, like [read_bytes t off len], and no copy. *)

val write_u8 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit
val write_u64 : t -> int -> int64 -> unit
val write_int : t -> int -> int -> unit
(** [write_int t off v] is [write_u64 t off (Int64.of_int v)],
    allocation-free. *)

val write_bytes : t -> int -> Bytes.t -> unit
val write_string : t -> int -> string -> unit
val fill : t -> int -> int -> char -> unit
val copy_within : t -> src:int -> dst:int -> len:int -> unit
(** [copy_within t ~src ~dst ~len] reads [len] bytes at [src] and stores
    them at [dst] (a load followed by a store; both sides are cache ops). *)

(** {1 Persistence primitives} *)

val flush : t -> int -> int -> unit
(** [flush t off len] writes back every line intersecting [off, off+len)
    into the write-pending queue ([clflushopt]). *)

val fence : t -> unit
(** Drain the write-pending queue to durable media ([sfence]). *)

val persist : t -> int -> int -> unit
(** [persist t off len] = [flush t off len; fence t]. *)

(** {1 Crash injection} *)

val set_crash_countdown : t -> int -> unit
(** [set_crash_countdown t n] schedules {!Crashed} to be raised at the
    [n]-th subsequent persist point (a {!flush} or {!fence} call); [n <= 0]
    disables the schedule.  Crashing {e at} a persist point means the
    point's effect does not happen.  An armed countdown survives
    {!power_cycle}, so a crash can be scheduled to fire inside the
    recovery that follows a power cycle (nested recovery crashes). *)

val persist_points : t -> int
(** Number of persist points executed so far; drives exhaustive crash
    enumeration in the failure-injection harness. *)

val is_crashed : t -> bool

val reseed : t -> int -> unit
(** Replace the RNG that decides which write-pending lines survive a
    power failure — the failure injector uses it to sample several
    survival outcomes at the same crash point. *)

val power_cycle : t -> unit
(** Apply power-failure semantics: each write-pending line independently
    survives with probability 1/2 (device RNG); dirty lines are lost; the
    volatile view is re-read from durable media (only lines that were not
    clean need it); the device becomes usable again.  Idempotent on a non-crashed device (it simply drops volatile
    state, which also models a restart without a crash).

    With a nonzero {!set_torn_write_prob}, a write-pending line's
    write-back can additionally be {e torn} by the failure: media
    guarantees 8-byte atomicity only, so each u64 word of the line
    independently lands new or stays old. *)

(** {1 Media faults} *)

val set_torn_write_prob : t -> float -> unit
(** Probability, per write-pending line at a power failure, that the
    line's write-back is torn at 8-byte granularity instead of landing or
    failing whole.  0 (the default) restores the all-or-nothing model.
    Raises [Invalid_argument] outside [0, 1]. *)

val torn_write_prob : t -> float

val corrupt_line : t -> int -> unit
(** [corrupt_line t off] flips one RNG-chosen bit of the durable byte at
    [off] — simulated media bit rot, below the cache.  The volatile view
    reflects the rot only when the containing line holds no cached store
    (a dirty or write-pending line masks the media until its next
    write-back).  Works on crashed devices (rot needs no power). *)

(** {1 Durability across processes} *)

val save : t -> unit
(** Write durable media to the backing file.  Raises [Invalid_argument] if
    the device has no [path]. *)

val load : ?latency:Latency.t -> ?seed:int -> string -> t
(** [load path] recreates a device from a file written by {!save}. *)

(** {1 Accounting} *)

type stats = {
  loads : int;
  stores : int;
  flushes : int;  (** line write-backs *)
  flush_calls : int;  (** flush invocations (bulk-discount accounting) *)
  fences : int;
  fence_lines : int;  (** lines drained by fences *)
  alloc_steps : int;  (** buddy split/merge steps charged by the allocator *)
  extra_ns : int;  (** ad-hoc charges *)
  torn_lines : int;  (** WPQ lines torn at power failures *)
  corrupted_lines : int;  (** bit-rot faults injected via {!corrupt_line} *)
}

val stats : t -> stats

val reset_stats : t -> unit
(** Zero {e every} field of {!stats} — traffic counters, latency
    charges, and the media-fault counters ([torn_lines],
    [corrupted_lines]) alike — so a benchmark window opened after a
    fault-injection phase starts clean.  Two things deliberately
    survive a reset: {!persist_points} (it sequences crash scheduling,
    not accounting, and resetting it would silently shift a pending
    {!set_crash_countdown}), and the media state itself (resetting
    counters does not un-tear or un-rot any line).  {!simulated_ns}
    restarts from zero since it is derived from the counters. *)

val simulated_ns : t -> float
(** Simulated elapsed time under the device's latency model. *)

val charge_ns : t -> int -> unit
(** Add an ad-hoc simulated cost (used sparingly; see DESIGN.md). *)

val charge_alloc_steps : t -> int -> unit
(** Charge [n] buddy split/merge steps. *)
