module D = Pmem.Device

type 'p t = { off : int; pool : Pool_impl.t }

let off s = s.off
let dev pool = Pool_impl.device pool

let make str j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  let len = String.length str in
  let off = Pool_impl.tx_alloc tx (8 + len) in
  D.write_int (dev pool) off len;
  if len > 0 then D.write_string (dev pool) (off + 8) str;
  D.persist (dev pool) off (8 + len);
  { off; pool }

let length s =
  Pool_impl.check_open s.pool;
  D.read_int (dev s.pool) s.off

let get s =
  Pool_impl.check_open s.pool;
  let len = D.read_int (dev s.pool) s.off in
  D.read_string (dev s.pool) (s.off + 8) len

let equal a b = a.off = b.off || String.equal (get a) (get b)

let sub s ~pos ~len j =
  let full = get s in
  if pos < 0 || len < 0 || pos + len > String.length full then
    invalid_arg
      (Printf.sprintf "Pstring.sub: range [%d, %d) outside [0, %d)" pos
         (pos + len) (String.length full));
  make (String.sub full pos len) j

let concat a b j = make (get a ^ get b) j

let drop s j =
  let tx = Journal.tx j in
  Pool_impl.tx_free tx s.off

let ptype () =
  Ptype.handle ~name:"pstring" ~hdr:off ~drop
    ~wrap:(fun pool off _ -> { off; pool })
    ~edges:(fun _ -> [])
    (Ptype.Of_rec (lazy Ptype.unit))
