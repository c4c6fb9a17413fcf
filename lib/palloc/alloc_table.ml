type t = {
  dev : Pmem.Device.t;
  table_base : int;
  heap_base : int;
  heap_len : int;
  nblocks : int;
}

let min_block = 64
let min_block_shift = 6
let table_bytes ~heap_len = heap_len / min_block

let make dev ~table_base ~heap_base ~heap_len =
  if heap_len mod min_block <> 0 then
    invalid_arg "Alloc_table: heap_len must be a multiple of min_block";
  if heap_len <= 0 then invalid_arg "Alloc_table: empty heap";
  { dev; table_base; heap_base; heap_len; nblocks = heap_len / min_block }

let create dev ~table_base ~heap_base ~heap_len =
  let t = make dev ~table_base ~heap_base ~heap_len in
  Pmem.Device.fill dev table_base t.nblocks '\000';
  Pmem.Device.persist dev table_base t.nblocks;
  t

let attach dev ~table_base ~heap_base ~heap_len =
  make dev ~table_base ~heap_base ~heap_len

let nblocks t = t.nblocks
let heap_base t = t.heap_base
let heap_len t = t.heap_len
let device t = t.dev

let index_of_offset t off =
  let rel = off - t.heap_base in
  if rel < 0 || rel >= t.heap_len then
    invalid_arg (Printf.sprintf "Alloc_table: offset %d outside heap" off);
  if rel land (min_block - 1) <> 0 then
    invalid_arg (Printf.sprintf "Alloc_table: offset %d not block-aligned" off);
  rel lsr min_block_shift

let offset_of_index t idx =
  if idx < 0 || idx >= t.nblocks then
    invalid_arg (Printf.sprintf "Alloc_table: index %d out of range" idx);
  t.heap_base + (idx lsl min_block_shift)

let entry_addr t idx = t.table_base + idx
let entry_line t idx = (t.table_base + idx) lsr 6

let mark t ~idx ~order =
  Pmem.Device.write_u8 t.dev (entry_addr t idx) (order + 1)

let clear t ~idx = Pmem.Device.write_u8 t.dev (entry_addr t idx) 0

let mark_durable t ~idx ~order =
  let addr = entry_addr t idx in
  Pmem.Device.write_u8 t.dev addr (order + 1);
  Pmem.Device.persist t.dev addr 1

let clear_durable t ~idx =
  let addr = entry_addr t idx in
  Pmem.Device.write_u8 t.dev addr 0;
  Pmem.Device.persist t.dev addr 1

let order_at t ~idx =
  match Pmem.Device.read_u8 t.dev (entry_addr t idx) with
  | 0 -> None
  | b -> Some (b - 1)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* First non-zero byte of [buf] at or after [i] (or [len]): whole zero
   words are skipped 8 bytes at a time. *)
let rec skip_zeros buf i len =
  if i + 8 <= len && Int64.equal (get64u buf i) 0L then skip_zeros buf (i + 8) len
  else if i < len && Bytes.unsafe_get buf i = '\000' then skip_zeros buf (i + 1) len
  else i

(* One device load per table line the walk enters: [line idx] loads from
   entry [idx] to the end of its line (or of the table) into [buf], and
   [scan] walks it, so a jump that lands past the line — over an
   allocation's interior — loads nothing in between.  The heads visited,
   and their order, are exactly those of a byte-at-a-time walk. *)
let order_error = "Alloc_table.iter_allocated: "
let is_order_error msg = String.starts_with ~prefix:order_error msg

let iter_allocated ?(lo = 0) ?hi t f =
  let hi = Option.value hi ~default:t.nblocks in
  let buf = Bytes.create Pmem.Device.line_size in
  let table_end = t.table_base + hi in
  let rec line idx =
    if idx < hi then begin
      let a = t.table_base + idx in
      let len = min ((a lor (Pmem.Device.line_size - 1)) + 1) table_end - a in
      Pmem.Device.read_into t.dev a buf len;
      scan idx len 0
    end
  and scan base len i =
    let i = skip_zeros buf i len in
    if i < len then begin
      let idx = base + i and order = Char.code (Bytes.unsafe_get buf i) - 1 in
      let next = idx + (1 lsl order) in
      (* [1 lsl order] wraps for orders past the int width: 0 for 63,
         127 and 191, negative for 62 and 254 *)
      if next <= idx then
        invalid_arg
          (Printf.sprintf "%sblock %d has order %d" order_error idx order);
      f ~idx ~order;
      let j = next - base in
      if j > i && j < len then scan base len j else line next
    end
    else line (base + len)
  in
  line lo
