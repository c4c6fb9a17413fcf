module D = Pmem.Device

(* Header block: [len u64 | cap u64 | data u64]. *)
let hdr_size = 24

type 'p t = { hdr : int; pool : Pool_impl.t }

let off b = b.hdr
let unsafe_at pool hdr = { hdr; pool }
let dev pool = Pool_impl.device pool
let read_len b = D.read_int (dev b.pool) b.hdr
let read_cap b = D.read_int (dev b.pool) (b.hdr + 8)
let read_data b = D.read_int (dev b.pool) (b.hdr + 16)

let length b =
  Pool_impl.check_open b.pool;
  read_len b

let capacity b =
  Pool_impl.check_open b.pool;
  read_cap b

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let make ?(capacity = 64) j =
  if capacity <= 0 then invalid_arg "Pbytes.make: capacity must be positive";
  let capacity = pow2_at_least capacity 64 in
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  let hdr = Pool_impl.tx_alloc tx hdr_size in
  let data = Pool_impl.tx_alloc tx capacity in
  D.write_int (dev pool) hdr 0;
  D.write_int (dev pool) (hdr + 8) capacity;
  D.write_int (dev pool) (hdr + 16) data;
  D.persist (dev pool) hdr hdr_size;
  { hdr; pool }

let bounds b ~pos ~len what =
  if pos < 0 || len < 0 || pos + len > read_len b then
    invalid_arg
      (Printf.sprintf "Pbytes.%s: range [%d, %d) outside [0, %d)" what pos
         (pos + len) (read_len b))

let get b i =
  Pool_impl.check_open b.pool;
  bounds b ~pos:i ~len:1 "get";
  Char.chr (D.read_u8 (dev b.pool) (read_data b + i))

let read b ~pos ~len =
  Pool_impl.check_open b.pool;
  bounds b ~pos ~len "read";
  D.read_string (dev b.pool) (read_data b + pos) len

let to_string b = read b ~pos:0 ~len:(length b)

let write b ~pos s j =
  let tx = Journal.tx j in
  let len = String.length s in
  bounds b ~pos ~len "write";
  if len > 0 then begin
    let at = read_data b + pos in
    Pool_impl.tx_log tx ~off:at ~len;
    D.write_string (dev b.pool) at s
  end

let set b i c j = write b ~pos:i (String.make 1 c) j

(* Ensure room for [extra] more bytes, doubling the data block if
   needed (fresh block: copy + eager persist, old block deferred-freed). *)
let reserve b tx extra =
  let len = read_len b and cap = read_cap b in
  if len + extra > cap then begin
    let ncap = pow2_at_least (len + extra) (cap * 2) in
    let data = read_data b in
    let ndata = Pool_impl.tx_alloc tx ncap in
    if len > 0 then begin
      D.copy_within (dev b.pool) ~src:data ~dst:ndata ~len;
      D.persist (dev b.pool) ndata len
    end;
    Pool_impl.tx_log tx ~off:(b.hdr + 8) ~len:16;
    D.write_int (dev b.pool) (b.hdr + 8) ncap;
    D.write_int (dev b.pool) (b.hdr + 16) ndata;
    Pool_impl.tx_free tx data
  end

let append b s j =
  let tx = Journal.tx j in
  let extra = String.length s in
  if extra > 0 then begin
    reserve b tx extra;
    let len = read_len b in
    let at = read_data b + len in
    (* the tail beyond [len] is semantically dead: no undo needed, only
       durability at commit *)
    D.write_string (dev b.pool) at s;
    Pool_impl.tx_add_target tx ~off:at ~len:extra;
    Pool_impl.tx_set_int tx b.hdr (len + extra)
  end

let of_string s j =
  let b = make ~capacity:(max 64 (String.length s)) j in
  append b s j;
  b

let truncate b n j =
  let tx = Journal.tx j in
  if n < 0 || n > read_len b then
    invalid_arg (Printf.sprintf "Pbytes.truncate: %d outside [0, %d]" n (read_len b));
  Pool_impl.tx_set_int tx b.hdr n

let drop b j =
  let tx = Journal.tx j in
  Pool_impl.tx_free tx (read_data b);
  Pool_impl.tx_free tx b.hdr

let ptype () =
  Ptype.handle ~name:"pbytes" ~hdr:off ~drop
    ~wrap:(fun pool hdr _ -> unsafe_at pool hdr)
    ~edges:(fun b -> [ { Ptype.block = read_data b; follow = (fun _ -> []) } ])
    (Ptype.Of_rec (lazy Ptype.unit))
