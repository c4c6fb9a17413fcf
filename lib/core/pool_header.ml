module D = Pmem.Device

(* On-media header layout: the first [header_size] bytes of a pool. *)
let header_size = 4096
let magic = "CORUNDUM-POOL-01"
let version = 1
let hdr_version = 16
let hdr_generation = 24
let hdr_root = 32 (* root_off u64 then root_ty_hash u64 *)
let hdr_root_hash = 40
let hdr_nslots = 48
let hdr_slot_size = 56
let hdr_heap_len = 64
let hdr_table_base = 72
let hdr_heap_base = 80
let hdr_csum = 88 (* CRC-32 of the immutable layout fields *)
let hdr_tx_total = 96 (* lifetime committed transactions, folded at save *)
let hdr_abort_total = 104 (* lifetime aborted transactions, folded at save *)

let has_magic dev =
  String.equal (D.read_string dev 0 (String.length magic)) magic

(* The fields that never change after format; see the interface. *)
let header_crc dev =
  let buf = Bytes.create 48 in
  List.iteri
    (fun i off -> Bytes.set_int64_le buf (i * 8) (D.read_u64 dev off))
    [ hdr_version; hdr_nslots; hdr_slot_size; hdr_heap_len; hdr_table_base;
      hdr_heap_base ];
  Pmem.Crc32.bytes buf

let stored_header_crc dev = D.read_int dev hdr_csum
let header_crc_ok dev = stored_header_crc dev = header_crc dev

let write_header_crc dev =
  D.write_int dev hdr_csum (header_crc dev);
  D.persist dev hdr_csum 8

type layout = {
  nslots : int;
  slot_size : int;
  heap_len : int;
  table_base : int;
  heap_base : int;
  root_off : int;
}

let read_layout dev =
  let u64 off = D.read_int dev off in
  {
    nslots = u64 hdr_nslots;
    slot_size = u64 hdr_slot_size;
    heap_len = u64 hdr_heap_len;
    table_base = u64 hdr_table_base;
    heap_base = u64 hdr_heap_base;
    root_off = u64 hdr_root;
  }

let layout_sane dev l =
  l.nslots > 0 && l.nslots < 1024
  && l.slot_size > 0
  && header_size + (l.nslots * l.slot_size) <= l.table_base
  && l.table_base + (l.heap_len / 64) <= l.heap_base
  && l.heap_base + l.heap_len <= D.size dev
  && l.heap_len > 0
  && l.heap_len mod 64 = 0
