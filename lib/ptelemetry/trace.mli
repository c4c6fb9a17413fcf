(** Chrome-trace rendering of the PM stack's event stream.

    The trace is a {!Probe} subscriber: {!install_ring} subscribes a
    converter that renders every protocol event of interest (flushes,
    fences, transactions, journal entries, allocations, recovery) as a
    timestamped trace event into bounded in-memory rings.  Timestamps
    are the device's {e simulated} nanoseconds, so traces are
    deterministic and reflect PM cost, not host noise.  Tools may also
    {!emit} their own annotations (sanitizer findings, waste overlays)
    into the installed ring.

    With no ring installed, {!on} is false and {!emit} is a no-op;
    the instrumented layers only pay the {!Probe} gate.

    The ring can be {e sharded per domain} ([install_ring ~shards]):
    each emitting domain appends to its own ring under its own lock, so
    N domains tracing concurrently never serialize on one ring mutex;
    {!events} merges the rings back into one stream ordered by
    simulated time, with [tid] identifying the emitting domain — one
    Chrome trace, one track per domain.

    The rings export Chrome [trace_event] JSON ({!to_chrome_json},
    loadable in [chrome://tracing] / Perfetto); {!Trace_schema}
    validates it and parses it back. *)

type phase =
  | B  (** span begin (paired with [E] per thread, LIFO) *)
  | E  (** span end *)
  | I  (** instant *)
  | X of float  (** complete span carrying its duration in ns *)

type event = {
  name : string;
  cat : string;  (** category: [pool], [journal], [device], [palloc], … *)
  ph : phase;
  ts_ns : float;  (** simulated-ns timestamp *)
  tid : int;  (** emitting domain id *)
  args : (string * string) list;
}

(** {1 Subscription} *)

val install_ring : ?capacity:int -> ?shards:int -> unit -> unit
(** Install an in-memory ring keeping the most recent [capacity] events
    {e per shard} (default 65536) and subscribe it to the {!Probe} bus;
    older events are overwritten and counted in {!dropped}.  [shards]
    (default 1, rounded up to a power of two) shards the ring by
    emitting domain id.  Replaces any ring installed before. *)

val uninstall : unit -> unit
(** Unsubscribe the ring.  {!on} becomes false; its events remain
    readable through {!events} until the next {!install_ring}. *)

val on : unit -> bool
(** Whether a ring is installed. *)

(** {1 Emission} *)

val emit :
  ?args:(string * string) list ->
  ?tid:int ->
  cat:string ->
  name:string ->
  ph:phase ->
  ts_ns:float ->
  unit ->
  unit
(** Append one event to the ring; no-op unless {!on}.  [tid] defaults
    to the calling domain's id. *)

val begin_span :
  ?args:(string * string) list -> cat:string -> name:string -> ts_ns:float -> unit -> unit

val end_span :
  ?args:(string * string) list -> cat:string -> name:string -> ts_ns:float -> unit -> unit

(** {1 Reading the ring} *)

val events : unit -> event list
(** Events currently retained, oldest first.  With a sharded ring, the
    per-domain rings are merged into one stream ordered by simulated
    timestamp (ties keep each ring's own emission order).  [[]] when
    no ring was ever installed. *)

val dropped : unit -> int
(** Events overwritten by ring wrap-around since the last install,
    summed over shards. *)

val clear : unit -> unit
(** Empty the ring(s) (keeps the subscription). *)

(** {1 Export} *)

val event_to_json : event -> Json.t
(** One Chrome [trace_event] object; [ts]/[dur] are microseconds. *)

val to_chrome_json : event list -> string
(** A complete [{"traceEvents": […]}] document. *)

val save_chrome : string -> unit
(** Write the ring's current contents as Chrome JSON to a file. *)
