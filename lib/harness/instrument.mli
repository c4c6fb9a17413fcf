(** The one instrumented-run session every CLI shares.

    A run subscribes the requested probe consumers (Chrome-trace ring,
    metrics registry, psan), runs a body, unsubscribes them and writes
    their artifacts.  Notices about written files go to stderr, so a
    tool's stdout stays its own output; the psan report goes to
    stdout. *)

type spec = {
  trace : string option;
      (** [--trace F]: a Chrome trace to [F] plus the metrics registry
          to [F.metrics.json]. *)
  metrics : string option;  (** [--metrics F]: the metrics registry alone. *)
  psan : bool;  (** [--psan]: sanitize the run and print the report. *)
  psan_json : string option;
      (** [--psan-json F]: also write the report as JSON (implies psan). *)
}

val none : spec
(** Nothing subscribed: {!run} just runs the body. *)

val strip : string list -> spec * string list
(** Remove [--trace F], [--metrics F], [--psan] and [--psan-json F]
    from an argument list, wherever they occur; returns the spec and
    the remaining arguments in order.  For tools without cmdliner. *)

val active : spec -> bool
(** Whether the spec subscribes anything. *)

val run : ?capacity:int -> ?shards:int -> spec -> (unit -> 'a) -> 'a * bool
(** [run spec body] subscribes what [spec] asks for (psan first, so it
    sees every pool the body creates), runs [body], unsubscribes and
    writes the artifacts.  Returns [body]'s result and whether psan
    found no violation ([true] when psan was off).  [capacity] and
    [shards] size the trace ring (default 65536 events, one shard).
    If [body] raises, the subscribers are removed and nothing is
    written. *)

val write_file : string -> string -> unit
(** [write_file path s] writes [s] and a newline to [path]. *)
