(** Per-line persist semantics: the one definition the device and the
    event-driven analyzers (psan, pprof) share.

    A store dirties a 64-byte cache line; a flush queues a snapshot of
    a dirty line in the write-pending queue (WPQ); a fence drains the
    WPQ to media; a power cycle loses every cache and WPQ line, leaving
    all lines [Clean].  A line re-dirtied while its snapshot waits in
    the WPQ is [Wpq_dirty]: the fence lands the snapshot, not the newer
    bytes, and leaves the line [Dirty].

    {!Device} keeps the state densely, as two flag bytes per line
    (stored since the last flush, queued in the WPQ), so that a store
    only ever sets a flag and cannot lose a racing flush's update;
    {!Shadow} is the sparse table analyzers replay a probe stream
    through.  [Pmodel.Mstate] keeps its own word-granular version as
    the model checker's reference. *)

val line_size : int
(** Cache-line (flush unit) size in bytes: 64. *)

val line_shift : int
(** [log2 line_size]. *)

val line_of : int -> int
(** Line number holding a byte offset. *)

val line_start : int -> int
(** Byte offset where a line starts. *)

(** {1 Transitions} *)

type state = Clean | Dirty | Wpq | Wpq_dirty

val store : state -> state

val flush : state -> state option
(** [Some s'] when the line held unwritten-back data and a fresh
    snapshot is now queued; [None] when the flush is a no-op. *)

val drain : state -> state
(** A fence: the queued snapshot reaches media. *)

val pending : state -> bool
(** The line has a snapshot queued in the WPQ ([Wpq] or [Wpq_dirty]). *)

(** {1 Sparse shadow} *)

(** Line states of one device, rebuilt from store/flush/fence events
    (absent lines are [Clean]).  Each line also records {e who} wrote
    it (an owner id, e.g. a domain): dirty owners have stores not yet
    written back, pending owners have stores waiting in the WPQ.  A
    flush moves every dirty owner of a line to its pending set; a fence
    empties it.  Fences visit only the pending lines. *)
module Shadow : sig
  type t

  val create : unit -> t
  val state : t -> int -> state
  val store : t -> who:int -> off:int -> len:int -> unit

  val flush : t -> off:int -> len:int -> int list
  (** The newly queued lines, ascending ([[]] for a redundant flush). *)

  val fence : t -> int
  (** Drain the WPQ; returns how many lines it held. *)

  val pending_count : t -> int
  val dirty_owners : t -> int -> int list
  val pending_owners : t -> int -> int list

  val reset : t -> unit
  (** Power cycle: every line back to [Clean]. *)
end
