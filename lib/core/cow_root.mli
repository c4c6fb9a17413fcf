(** CoW root cells: the persistent commit word of the mod engine.

    A cell is five 64-byte lines in the pool header page's reserved
    space: the packed (block-index | generation) root word [w0] plus
    the immutable root-pair geometry on line 0, and two CRC-protected
    intent record slots (commit-word kind, publish words,
    allocated/retired blocks), used alternately by generation parity
    (slot = igen land 1).  Two slots because a commit's unfenced tail
    (publish words, the w0 swap, retire clears) stays replayable only
    while its intent record survives — a successor sealing over a
    single slot could destroy the one record able to roll that
    in-flight tail forward.  The intent is sealed under its own fence
    before any mark or shadow line of a CoW transaction is flushed;
    the single 8-byte [w0] store (or the first publish word) is the
    commit point.  {!recover} reads both slots and rolls each record
    forward or back by comparing its generation against [w0]'s —
    every action is an idempotent durable store, so recovery survives
    its own crashes.  See DESIGN.md §14 for the ordering argument. *)

val slots : int
(** Intent record slots per cell (2, alternated by igen parity). *)

val base : int
(** Byte offset of the cell region inside the header page. *)

val region_len : int

val gen_mask : int
(** Generation wrap mask (generations live in the low 24 bits of w0). *)

val slot_of_igen : int -> int
(** The slot an intent of generation [igen] seals into. *)

val read : int -> Pmem.Device.t -> int * int
(** [(active pointer, generation)] of cell [c]. *)

val store_swap : int -> Pmem.Device.t -> ptr:int -> gen:int -> unit
(** Dirty-only store of the packed root word (the Root_swap store). *)

val flush_swap : int -> Pmem.Device.t -> unit

type kind =
  | Gen_only
  | Swap of int
  | Publish of int * (int * int64 * int64) list
      (** The new active pointer the w0 store carries, plus the
          (address, old, new) publish words — redone or undone as a set
          from the intent, so the words need not land atomically
          together. *)

type intent = {
  igen : int;
  kind : kind;
  allocs : (int * int) list;
  frees : (int * int) list;
}

val inline_ok : intent -> bool
(** Whether the intent fits the inline record; otherwise the caller
    must spill it ({!write_spill} + {!write_intent_spilled}). *)

val spill_bytes : intent -> int
(** Serialized size of the intent's lists in a spill block. *)

val write_spill : int -> Pmem.Device.t -> off:int -> intent -> int
(** Serialize the oversized intent's lists into the transient spill
    block at [off] (dirty-only) and return the content CRC.  The caller
    flushes the range before the intent seal fence. *)

val write_intent_spilled :
  int ->
  Pmem.Device.t ->
  spill_off:int ->
  spill_order:int ->
  content_crc:int ->
  intent ->
  unit
(** Write the spill-kind intent record referencing the block written by
    {!write_spill}.  A torn spill is safe to ignore: the seal fence
    never completed, so no mark or commit word of the transaction can
    have landed. *)

val write_intent : int -> Pmem.Device.t -> intent -> unit
(** Dirty-only; seal with {!flush_intent} + a fence (Seal_intent).
    Requires {!inline_ok}. *)

val flush_intent : int -> int -> Pmem.Device.t -> unit
(** [flush_intent c s dev]: flush slot [s]'s record (the seal flush). *)

type stats = {
  mutable rolled_forward : int;
  mutable rolled_back : int;
  mutable table_edited : bool;
      (** allocation-table bytes were edited: the caller must rebuild
          the buddy's volatile free lists *)
}

val recover : Pmem.Device.t -> Palloc.Alloc_table.t -> stats
(** Resolve every cell's intent records — consumed ones rolled forward
    first, then the pending one forward or back — called at pool
    attach, inside the recovery exempt window it pushes itself. *)

type cell_info = {
  ci_cell : int;
  ci_ptr : int;
  ci_gen : int;
  ci_pair : (int * int) option;
  ci_intents : (int * intent) list;
      (** valid records, (slot, record) — at most one can be pending *)
  ci_pending : bool;
}

val inspect : Pmem.Device.t -> cell_info list
(** Snapshot of every cell for [pool_info info] / fsck — a pending
    intent is a half-committed swap visible during triage. *)
