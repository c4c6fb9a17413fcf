module D = Pmem.Device

(* Header block: [len u64 | cap u64 | head u64 | data u64]. *)
let hdr_size = 32

type ('a, 'p) t = { hdr : int; pool : Pool_impl.t; ty : ('a, 'p) Ptype.t }

let off q = q.hdr
let dev pool = Pool_impl.device pool
let esize q = max 8 (Ptype.size q.ty)
let read_len q = D.read_int (dev q.pool) q.hdr
let read_cap q = D.read_int (dev q.pool) (q.hdr + 8)
let read_head q = D.read_int (dev q.pool) (q.hdr + 16)
let read_data q = D.read_int (dev q.pool) (q.hdr + 24)

let length q =
  Pool_impl.check_open q.pool;
  read_len q

let capacity q =
  Pool_impl.check_open q.pool;
  read_cap q

let is_empty q = length q = 0

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let make ~ty ?(capacity = 8) j =
  if capacity <= 0 then invalid_arg "Pqueue.make: capacity must be positive";
  let capacity = pow2_at_least capacity 1 in
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  let es = max 8 (Ptype.size ty) in
  let hdr = Pool_impl.tx_alloc tx hdr_size in
  let data = Pool_impl.tx_alloc tx (capacity * es) in
  D.write_int (dev pool) hdr 0;
  D.write_int (dev pool) (hdr + 8) capacity;
  D.write_int (dev pool) (hdr + 16) 0;
  D.write_int (dev pool) (hdr + 24) data;
  D.persist (dev pool) hdr hdr_size;
  { hdr; pool; ty }

let slot q i =
  (* i counts from the front; physical index wraps modulo capacity *)
  let cap = read_cap q in
  read_data q + (((read_head q + i) land (cap - 1)) * esize q)

(* Double the ring, linearizing front-to-back into the new block. *)
let grow q tx =
  let es = esize q in
  let len = read_len q and cap = read_cap q in
  let ncap = cap * 2 in
  let ndata = Pool_impl.tx_alloc tx (ncap * es) in
  for i = 0 to len - 1 do
    D.copy_within (dev q.pool) ~src:(slot q i) ~dst:(ndata + (i * es)) ~len:es
  done;
  if len > 0 then D.persist (dev q.pool) ndata (len * es);
  Pool_impl.tx_log tx ~off:(q.hdr + 8) ~len:24;
  D.write_int (dev q.pool) (q.hdr + 8) ncap;
  D.write_int (dev q.pool) (q.hdr + 16) 0;
  let old = read_data q in
  D.write_int (dev q.pool) (q.hdr + 24) ndata;
  Pool_impl.tx_free tx old

let push q x j =
  let tx = Journal.tx j in
  let len = read_len q in
  if len = read_cap q then grow q tx;
  let len = read_len q in
  let s = slot q len in
  Pool_impl.tx_log tx ~off:s ~len:(esize q);
  Ptype.write q.ty q.pool s x;
  Pool_impl.tx_set_int tx q.hdr (len + 1)

let pop q j =
  let tx = Journal.tx j in
  let len = read_len q in
  if len = 0 then None
  else begin
    let x = Ptype.read q.ty q.pool (slot q 0) in
    let cap = read_cap q and head = read_head q in
    Pool_impl.tx_log tx ~off:q.hdr ~len:24;
    D.write_int (dev q.pool) q.hdr (len - 1);
    D.write_int (dev q.pool) (q.hdr + 16) ((head + 1) land (cap - 1));
    Some x
  end

let peek q =
  Pool_impl.check_open q.pool;
  if read_len q = 0 then None else Some (Ptype.read q.ty q.pool (slot q 0))

let iter q f =
  Pool_impl.check_open q.pool;
  for i = 0 to read_len q - 1 do
    f (Ptype.read q.ty q.pool (slot q i))
  done

let fold q ~init ~f =
  let acc = ref init in
  iter q (fun x -> acc := f !acc x);
  !acc

let to_list q = List.rev (fold q ~init:[] ~f:(fun acc x -> x :: acc))

let clear q j =
  let tx = Journal.tx j in
  let len = read_len q in
  for i = 0 to len - 1 do
    Ptype.drop q.ty tx (slot q i)
  done;
  Pool_impl.tx_log tx ~off:q.hdr ~len:24;
  D.write_int (dev q.pool) q.hdr 0;
  D.write_int (dev q.pool) (q.hdr + 16) 0

let drop q j =
  let tx = Journal.tx j in
  let len = read_len q in
  for i = 0 to len - 1 do
    Ptype.drop q.ty tx (slot q i)
  done;
  Pool_impl.tx_free tx (read_data q);
  Pool_impl.tx_free tx q.hdr

let handle elt =
  Ptype.handle ~name:"pqueue" ~hdr:off ~drop
    ~wrap:(fun pool hdr ty -> { hdr; pool; ty })
    ~edges:(fun q ->
      [
        {
          Ptype.block = read_data q;
          follow =
            (fun p ->
              let q = { q with pool = p } in
              List.concat
                (List.init (read_len q) (fun i -> Ptype.reach q.ty p (slot q i))));
        };
      ])
    elt

let ptype inner = handle (Ptype.Of inner)
let ptype_rec inner = handle (Ptype.Of_rec inner)
