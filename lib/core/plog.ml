module D = Pmem.Device

(* Header block: [records u64 | bytes pointer (Pbytes header)].
   Record wire format inside the buffer: [len u32 | bytes]. *)
let hdr_size = 16

type 'p t = { hdr : int; pool : Pool_impl.t }

let off l = l.hdr
let dev pool = Pool_impl.device pool
let read_records l = D.read_int (dev l.pool) l.hdr

let buffer l : 'p Pbytes.t = Pbytes.unsafe_at l.pool (D.read_int (dev l.pool) (l.hdr + 8))

let records l =
  Pool_impl.check_open l.pool;
  read_records l

let is_empty l = records l = 0
let size_bytes l = Pbytes.length (buffer l)

let make ?(capacity = 256) j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  let hdr = Pool_impl.tx_alloc tx hdr_size in
  let buf = Pbytes.make ~capacity j in
  D.write_int (dev pool) hdr 0;
  D.write_int (dev pool) (hdr + 8) (Pbytes.off buf);
  D.persist (dev pool) hdr hdr_size;
  { hdr; pool }

let append l record j =
  let tx = Journal.tx j in
  let len = String.length record in
  let prefix = Bytes.create 4 in
  Bytes.set_int32_le prefix 0 (Int32.of_int len);
  let buf = buffer l in
  Pbytes.append buf (Bytes.to_string prefix) j;
  if len > 0 then Pbytes.append buf record j;
  Pool_impl.tx_set_int tx l.hdr (read_records l + 1)

let fold l ~init ~f =
  Pool_impl.check_open l.pool;
  let buf = buffer l in
  let n = read_records l in
  let acc = ref init and pos = ref 0 in
  for _ = 1 to n do
    let len =
      Int32.to_int (Bytes.get_int32_le (Bytes.of_string (Pbytes.read buf ~pos:!pos ~len:4)) 0)
    in
    acc := f !acc (Pbytes.read buf ~pos:(!pos + 4) ~len);
    pos := !pos + 4 + len
  done;
  !acc

let iter l f = fold l ~init:() ~f:(fun () r -> f r)
let to_list l = List.rev (fold l ~init:[] ~f:(fun acc r -> r :: acc))

let nth l i =
  if i < 0 then None
  else
    let k = ref 0 and found = ref None in
    iter l (fun r ->
        if !k = i then found := Some r;
        incr k);
    !found

let truncate l j =
  let tx = Journal.tx j in
  Pbytes.truncate (buffer l) 0 j;
  Pool_impl.tx_set_int tx l.hdr 0

let drop l j =
  let tx = Journal.tx j in
  Pbytes.drop (buffer l) j;
  Pool_impl.tx_free tx l.hdr

let ptype () =
  Ptype.handle ~name:"plog" ~hdr:off ~drop
    ~wrap:(fun pool hdr _ -> { hdr; pool })
    ~edges:(fun l -> Ptype.reach (Pbytes.ptype ()) l.pool (l.hdr + 8))
    (Ptype.Of_rec (lazy Ptype.unit))
