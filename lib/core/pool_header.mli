(** The pool header: the one definition of a pool image's first page.
    {!Pool_impl} formats and opens it, {!Pool_check} checks and repairs
    it, {!Pool_inspect} reports it; none restates an offset.

    After the 16-byte {!magic} at 0 come little-endian u64 fields at the
    [hdr_*] offsets: version, generation (times opened), root offset and
    type hash, the immutable layout (nslots, slot size, heap length,
    table base, heap base), its checksum, and the lifetime committed and
    aborted transaction totals (folded in at save and close).  The CoW
    root cells follow at {!Cow_root.base}; journal slots start at
    {!header_size}. *)

val header_size : int
val magic : string
val version : int
val hdr_version : int
val hdr_generation : int
val hdr_root : int
val hdr_root_hash : int
val hdr_nslots : int
val hdr_slot_size : int
val hdr_heap_len : int
val hdr_table_base : int
val hdr_heap_base : int
val hdr_csum : int
val hdr_tx_total : int
val hdr_abort_total : int

val has_magic : Pmem.Device.t -> bool

(** {1 Header checksum}

    A CRC-32 of the immutable layout fields and the version; the
    generation counter and root words are excluded — they have their own
    atomic, journal-protected update protocols.  Verified at every
    read-write open; repaired by {!Pool_check.repair} when the layout
    itself is still sane. *)

val header_crc : Pmem.Device.t -> int
(** Checksum recomputed from the fields currently on media. *)

val stored_header_crc : Pmem.Device.t -> int
val header_crc_ok : Pmem.Device.t -> bool

val write_header_crc : Pmem.Device.t -> unit
(** Recompute and durably (re)write the header checksum. *)

(** {1 Layout} *)

type layout = {
  nslots : int;
  slot_size : int;
  heap_len : int;
  table_base : int;
  heap_base : int;
  root_off : int;
}

val read_layout : Pmem.Device.t -> layout

val layout_sane : Pmem.Device.t -> layout -> bool
(** Header, journal slots, allocation table and a non-empty heap fit the
    device in that order. *)
