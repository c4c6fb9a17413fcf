(** Wire format of journal slots and their entries.

    Entries live in a journal slot's entry area; the stream of sealed
    entries ends at a {e terminator} — a full zero word persisted
    together with the entry it follows (a single ordered persist per
    entry).  Validity is checksum-defined: every entry carries a salted
    CRC-32 of its body packed into the high half of its kind word, so a
    torn tail write fails verification and {!walk_to_tail} treats it and
    everything after as never written.  The slot-header entry count is
    advisory only (persisted once at commit, for fsck cross-checks).

    The checksum salt binds an entry to its slot and truncation epoch
    ({!salt}): entries left behind by a truncated transaction — or by
    another slot in a recycled spill region — fail verification instead
    of surviving as plausible stale tails.

    Layout (all fields little-endian u64; word 0 is
    [kind (low 32 bits) | salted body CRC-32 (high 32 bits)]):

    - terminator: [0] (the whole word is zero)
    - [Data]:  [kind=1+crc | target offset | length | saved bytes, padded to 8]
    - [Alloc]: [kind=2+crc | block offset  | order]
    - [Drop]:  [kind=3+crc | block offset, order packed in the top byte]

    The CRC covers the body — everything after the kind word except a
    [Data] entry's padding.
*)

(** {1 The slot header}

    A journal slot is [hdr_size] bytes of header, the main entry region
    up to {!main_entry_limit}, then the drop area: the tail quarter,
    {!drop_capacity} records consed downward from the slot end.  The
    header's u64 fields are the phase, the advisory entry and drop
    counts (0 on a healthy image; fsck reconciles others), the head of
    the spill chain and the truncation epoch that salts checksums. *)

val hdr_phase : int
val hdr_count : int
val hdr_drops : int
val hdr_spill : int
val hdr_epoch : int
val hdr_size : int

val phase_normal : int64
val phase_committing : int64
(** Only on legacy images, whose commits persisted the phase. *)

val retire_header : Pmem.Device.t -> slot_base:int -> epoch:int -> unit
(** The truncate's header stores: zero the count, drop and spill words,
    store the new [epoch], rewrite the terminator at the head of the
    entry area.  Writes no phase and persists nothing — each truncate
    (runtime, recovery, fsck) orders those itself. *)

(** {1 Entries} *)

type t =
  | Data of { off : int; len : int; payload : int }
      (** Undo record: [len] saved bytes at device offset [payload] must be
          copied back to [off] on abort. *)
  | Alloc of { off : int; order : int }
      (** Allocation intent: block at [off] must be freed on abort. *)
  | Drop of { off : int; order : int }
      (** Deferred free: the order-[order] block at [off] must be freed at
          commit.  The order lets recovery re-mark the block's table byte
          when a crash interrupted the batched clear flush (images from
          before orders were recorded decode as order 0). *)

val data_entry_size : int -> int
(** Total bytes a [Data] entry of the given payload length occupies. *)

val alloc_entry_size : int
val drop_entry_size : int

val terminator_size : int
(** Bytes of the tail terminator word (8); the writer reserves this much
    after every entry so the terminator never crosses a region limit. *)

type salt
(** Checksum salt: the CRC accumulator pre-folded with
    [(epoch, slot_base)].  Sealing and verification must use the same
    salt; entries sealed under another slot or an earlier epoch fail. *)

val salt : slot_base:int -> epoch:int -> salt

val write_data : Pmem.Device.t -> salt:salt -> at:int -> off:int -> len:int -> unit
(** Write a [Data] entry at [at]: copy the current contents of
    [off, off+len) into its payload, then seal the kind word with the
    salted body checksum.  Does not persist. *)

val write_alloc :
  Pmem.Device.t -> salt:salt -> at:int -> off:int -> order:int -> unit

val write_drop :
  Pmem.Device.t -> salt:salt -> at:int -> off:int -> order:int -> unit

val write_jump : Pmem.Device.t -> at:int -> unit
(** Durably mark that the log continues in the next region (the writer
    places one whenever at least 8 bytes remain before spilling). *)

val read : Pmem.Device.t -> salt:salt -> at:int -> t * int
(** Decode and checksum-verify the entry at [at]; also return its total
    size.  Raises [Invalid_argument] on a corrupt kind tag, implausible
    length, or checksum mismatch (including a stale entry sealed under a
    different slot or epoch). *)

val spill_header : int
(** Bytes of metadata at the head of a spill region ([next | limit]). *)

val main_entry_limit : slot_base:int -> slot_size:int -> int
(** Absolute end of the slot's own entry region; the tail quarter of the
    slot is reserved for drop entries. *)

val drop_capacity : slot_size:int -> int
(** Drop records that fit the drop area ([slot_size / 4] bytes). *)

val drop_at : slot_base:int -> slot_size:int -> int -> int
(** [drop_at ~slot_base ~slot_size i]: address of drop record [i]
    (1-based), [i] records below the slot end. *)

val region_start : slot_base:int -> int -> int
val region_limit : Pmem.Device.t -> slot_base:int -> slot_size:int -> int -> int
(** First entry byte and absolute end of the entry region based at the
    given offset: the slot itself or one of its spill regions. *)

type stop_reason =
  | Terminator  (** clean tail: the zero terminator word was found *)
  | Bad_entry of string
      (** torn tail: a word failed verification (checksum mismatch, torn
          terminator, bad kind, wild or cyclic chain) — the write that
          produced it never durably finished *)
  | Chain_end of string
      (** a region ran out with no terminator and no continuation (a
          stale jump whose link was never durably chained, or an
          exhausted region on a damaged image) *)

val walk_to_tail :
  Pmem.Device.t ->
  slot_base:int ->
  slot_size:int ->
  salt:salt ->
  (t -> unit) ->
  int * int * stop_reason
(** Visit the sealed entries of a slot's undo log in write order,
    following the spill chain ({!hdr_spill}) across region
    boundaries, stopping at the tail.  Returns [(visited, stop_cursor,
    reason)]: how many entries verified, the absolute address the walk
    stopped at, and why.  [f] is only called on verified entries, so the
    visited prefix is exactly the log a torn tail write never extended.
    Never raises on corrupt images (corruption is a [Bad_entry] stop). *)

val spill_chain : Pmem.Device.t -> slot_base:int -> int list
(** Offsets of the slot's spill regions, in chain order.  Raises
    [Invalid_argument] on a wild or cyclic chain (corrupt images). *)
