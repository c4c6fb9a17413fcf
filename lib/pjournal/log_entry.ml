type t =
  | Data of { off : int; len : int; payload : int }
  | Alloc of { off : int; order : int }
  | Drop of { off : int; order : int }

(* Kind 0 is the tail terminator: a full zero word after the last sealed
   entry.  The writer persists it together with the entry it follows, so
   "walk until the terminator" replaces the persistent entry counter. *)
let kind_term = 0
let kind_data = 1
let kind_alloc = 2
let kind_drop = 3

(* A jump sentinel marks "the log continues in the next region"; the tail
   of a region after it is dead space.  8 bytes, persisted when written. *)
let kind_jump = 4

(* Slot header field offsets.  Only [phase], [spill] and [epoch] carry
   recovery semantics; [count] and [drops] stay volatile for the whole
   transaction (zeroed durably at truncation) — the durable tail of the
   log is its terminator word and the drop area is defined by salted
   checksums, never by the counts. *)
let hdr_phase = 0
let hdr_count = 8
let hdr_drops = 16
let hdr_spill = 24
let hdr_epoch = 32
let hdr_size = 64
let phase_normal = 0L
let phase_committing = 1L
let pad8 n = (n + 7) land lnot 7
let data_entry_size len = 24 + pad8 len
let alloc_entry_size = 24
let drop_entry_size = 16
let terminator_size = 8

module D = Pmem.Device

(* Word 0 of every entry packs the kind (low 32 bits) with a CRC-32 of the
   entry body (high 32 bits).  The body is the meaningful bytes after the
   kind word — for [Data] that includes the saved payload (but not its
   padding) — so a torn or rotted entry fails verification instead of
   being silently applied.  Packing the checksum into the kind word keeps
   every entry size unchanged. *)

let pack_kind ~kind ~crc =
  Int64.logor (Int64.of_int kind) (Int64.shift_left (Int64.of_int crc) 32)

let kind_of_word w = Int64.to_int (Int64.logand w 0xFFFFFFFFL)
let crc_of_word w = Int64.to_int (Int64.shift_right_logical w 32)

(* The checksum is salted with the slot's identity and truncation epoch:
   a CRC that verifies proves the entry was sealed by THIS slot's current
   log generation.  Without the salt, a truncated-but-not-overwritten
   entry (or a recycled spill region still holding another slot's sealed
   entries) would be CRC-valid stale data that a tail walk could replay.
   The salt is the CRC accumulator after folding 16 bytes
   [epoch (LE u64) | slot_base (LE u64)], so distinct (slot, epoch) pairs
   diverge as thoroughly as CRC-32 itself allows. *)
type salt = int

let fold_u64 acc v =
  let acc = ref acc in
  for i = 0 to 7 do
    acc := Pmem.Crc32.update !acc ((v lsr (8 * i)) land 0xFF)
  done;
  !acc

let salt ~slot_base ~epoch = fold_u64 (fold_u64 Pmem.Crc32.seed epoch) slot_base

(* Salted CRC of [len] device bytes at [off]; reading through the device
   charges the load the checksum really costs. *)
let crc_of_range dev ~salt ~off ~len = Pmem.Crc32.finish (D.crc32_fold dev salt off len)

let body_len_data len = 16 + len
let body_len_alloc = 16
let body_len_drop = 8

let seal dev ~salt ~at ~kind ~body_len =
  let crc = crc_of_range dev ~salt ~off:(at + 8) ~len:body_len in
  D.write_u64 dev at (pack_kind ~kind ~crc)

let write_data dev ~salt ~at ~off ~len =
  D.write_int dev (at + 8) off;
  D.write_int dev (at + 16) len;
  D.copy_within dev ~src:off ~dst:(at + 24) ~len;
  seal dev ~salt ~at ~kind:kind_data ~body_len:(body_len_data len)

let write_alloc dev ~salt ~at ~off ~order =
  D.write_int dev (at + 8) off;
  D.write_int dev (at + 16) order;
  seal dev ~salt ~at ~kind:kind_alloc ~body_len:body_len_alloc

(* A drop slot packs the block's order into the top byte of its offset
   word (device offsets are far below 2^56), so recovery can re-mark a
   prematurely cleared table byte without growing the 16-byte slot; the
   CRC covers the packed word, so the order is integrity-checked too.
   Images written before orders were recorded decode as order 0 — only
   ever consumed by the legacy roll-forward path, which ignores it. *)
let drop_order_shift = 56
let drop_off_mask = (1 lsl drop_order_shift) - 1

let write_drop dev ~salt ~at ~off ~order =
  D.write_int dev (at + 8) (off lor (order lsl drop_order_shift));
  seal dev ~salt ~at ~kind:kind_drop ~body_len:body_len_drop

let corrupt ~at fmt =
  Printf.ksprintf
    (fun m -> invalid_arg (Printf.sprintf "Log_entry: %s at %d" m at))
    fmt

(* Entry size without materializing the entry (for region-boundary
   decisions during walks). *)
let verify dev ~salt ~at ~stored_crc ~body_len =
  if at + 8 + body_len > D.size dev then corrupt ~at "entry overruns the device";
  if crc_of_range dev ~salt ~off:(at + 8) ~len:body_len <> stored_crc then
    corrupt ~at "checksum mismatch"

let read dev ~salt ~at =
  let w = D.read_u64 dev at in
  let kind = kind_of_word w and stored_crc = crc_of_word w in
  let off = D.read_int dev (at + 8) in
  if kind = kind_data then begin
    let len = D.read_int dev (at + 16) in
    if len <= 0 || len > D.size dev then corrupt ~at "implausible length %d" len;
    verify dev ~salt ~at ~stored_crc ~body_len:(body_len_data len);
    (Data { off; len; payload = at + 24 }, data_entry_size len)
  end
  else if kind = kind_alloc then begin
    verify dev ~salt ~at ~stored_crc ~body_len:body_len_alloc;
    let order = D.read_int dev (at + 16) in
    (Alloc { off; order }, alloc_entry_size)
  end
  else if kind = kind_drop then begin
    verify dev ~salt ~at ~stored_crc ~body_len:body_len_drop;
    ( Drop
        { off = off land drop_off_mask; order = off lsr drop_order_shift },
      drop_entry_size )
  end
  else corrupt ~at "bad kind %d" kind

(* --- walking a (possibly spilled) undo log ----------------------------- *)

(* An undo log is the slot's entry area plus a chain of heap-allocated
   spill regions ([hdr_spill] points at the first; each region
   starts with [next u64 | limit u64]).  An entry never crosses a region
   boundary: the writer jumps to the next region when one would, and the
   walker reproduces the same decision from the entry sizes. *)

let spill_header = 16

(* The tail quarter of a slot is reserved for the drop area, so the main
   entry region never collides with it and walkers need no knowledge of
   the (volatile) drop count. *)
let main_entry_limit ~slot_base ~slot_size =
  slot_base + slot_size - (slot_size / 4)

(* Drop records are consed downward from the slot end, in the tail
   quarter; a region is the slot itself or one of its spill regions. *)
let drop_capacity ~slot_size = slot_size / 4 / drop_entry_size
let drop_at ~slot_base ~slot_size i = slot_base + slot_size - (i * drop_entry_size)

let region_start ~slot_base base =
  if base = slot_base then base + hdr_size else base + spill_header

let region_limit dev ~slot_base ~slot_size base =
  if base = slot_base then main_entry_limit ~slot_base ~slot_size
  else base + D.read_int dev (base + 8)

let retire_header dev ~slot_base ~epoch =
  D.write_u64 dev (slot_base + hdr_count) 0L;
  D.write_u64 dev (slot_base + hdr_drops) 0L;
  D.write_u64 dev (slot_base + hdr_spill) 0L;
  D.write_int dev (slot_base + hdr_epoch) epoch;
  D.write_u64 dev (slot_base + hdr_size) 0L

let write_jump dev ~at =
  D.write_u64 dev at (pack_kind ~kind:kind_jump ~crc:0);
  D.persist dev at 8

type stop_reason = Terminator | Bad_entry of string | Chain_end of string

(* The tail walk: visit sealed entries in write order until the zero
   terminator word, following the spill chain across region boundaries.
   The seal protocol persists every entry together with the terminator
   that follows it, so on a crash-consistent image the walk ends exactly
   at the last durable seal.  [Bad_entry] (torn kind word, checksum
   mismatch, wild chain) means a tail write never durably finished — the
   visited prefix is the whole log; [Chain_end] means a region ran out
   with no terminator (a stale jump word whose continuation was never
   durably linked, or an exhausted region on a hand-damaged image) and is
   equally a tail to stop at.  [f] only sees verified entries. *)
let walk_to_tail dev ~slot_base ~slot_size ~salt f =
  let next_region base =
    (* region 0 is the slot itself; its chain pointer is in the header *)
    if base = slot_base then D.read_int dev (slot_base + hdr_spill)
    else D.read_int dev base
  in
  let rec go visited hops base cursor =
    let limit =
      min (region_limit dev ~slot_base ~slot_size base) (D.size dev)
    in
    if cursor + 8 > limit then jump visited hops base cursor "region exhausted"
    else
      let w = D.read_u64 dev cursor in
      if w = 0L then (visited, cursor, Terminator)
      else
        let kind = kind_of_word w in
        if kind = kind_term then
          (* zero kind, nonzero checksum half: not a word this log's
             writer ever produced — a torn terminator store *)
          (visited, cursor, Bad_entry "torn terminator word")
        else if kind = kind_jump then jump visited hops base cursor "jump"
        else begin
          match read dev ~salt ~at:cursor with
          | e, sz ->
              if cursor + sz + terminator_size > limit then
                (visited, cursor, Bad_entry "entry overruns its region")
              else begin
                f e;
                go (visited + 1) hops base (cursor + sz)
              end
          | exception Invalid_argument m -> (visited, cursor, Bad_entry m)
        end
  and jump visited hops base cursor why =
    let nxt = next_region base in
    if nxt = 0 then (visited, cursor, Chain_end why)
    else if nxt < 0 || nxt + spill_header > D.size dev then
      (visited, cursor, Bad_entry (Printf.sprintf "wild spill link to %d" nxt))
    else if hops >= 4096 then (visited, cursor, Bad_entry "spill chain is cyclic")
    else go visited (hops + 1) nxt (region_start ~slot_base nxt)
  in
  go 0 0 slot_base (region_start ~slot_base slot_base)

let spill_chain dev ~slot_base =
  (* Bounds- and cycle-guarded: this runs on corrupt images too. *)
  let rec go acc hops ptr =
    if ptr = 0 then List.rev acc
    else if ptr < 0 || ptr + spill_header > D.size dev then
      invalid_arg
        (Printf.sprintf "Log_entry.spill_chain: wild link to %d" ptr)
    else if hops >= 4096 then invalid_arg "Log_entry.spill_chain: cyclic chain"
    else go (ptr :: acc) (hops + 1) (D.read_int dev ptr)
  in
  go [] 0 (D.read_int dev (slot_base + hdr_spill))
