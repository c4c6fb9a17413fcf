module D = Pmem.Device

(* Header block: [len u64 | cap u64 | data u64]. *)
let hdr_size = 24

type ('a, 'p) t = { hdr : int; pool : Pool_impl.t; ty : ('a, 'p) Ptype.t }

let off v = v.hdr
let dev pool = Pool_impl.device pool
let esize v = max 8 (Ptype.size v.ty)
let read_len v = D.read_int (dev v.pool) v.hdr
let read_cap v = D.read_int (dev v.pool) (v.hdr + 8)
let read_data v = D.read_int (dev v.pool) (v.hdr + 16)

let length v =
  Pool_impl.check_open v.pool;
  read_len v

let capacity v =
  Pool_impl.check_open v.pool;
  read_cap v

let is_empty v = length v = 0

let make ~ty ?(capacity = 8) j =
  if capacity <= 0 then invalid_arg "Pvec.make: capacity must be positive";
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  let es = max 8 (Ptype.size ty) in
  let hdr = Pool_impl.tx_alloc tx hdr_size in
  let data = Pool_impl.tx_alloc tx (capacity * es) in
  D.write_int (dev pool) hdr 0;
  D.write_int (dev pool) (hdr + 8) capacity;
  D.write_int (dev pool) (hdr + 16) data;
  D.persist (dev pool) hdr hdr_size;
  { hdr; pool; ty }

let slot v i = read_data v + (i * esize v)

let check_bounds v i what =
  let len = read_len v in
  if i < 0 || i >= len then
    invalid_arg (Printf.sprintf "Pvec.%s: index %d out of bounds [0, %d)" what i len)

let get v i =
  Pool_impl.check_open v.pool;
  check_bounds v i "get";
  Ptype.read v.ty v.pool (slot v i)

let set v i x j =
  let tx = Journal.tx j in
  check_bounds v i "set";
  let s = slot v i in
  Pool_impl.tx_log tx ~off:s ~len:(esize v);
  Ptype.drop v.ty tx s;
  Ptype.write v.ty v.pool s x

(* Double the data block: fresh allocation, raw copy, eager persist (the
   new block is not undo-logged; rollback frees it). *)
let grow v tx =
  let es = esize v in
  let len = read_len v and cap = read_cap v and data = read_data v in
  let ncap = cap * 2 in
  let ndata = Pool_impl.tx_alloc tx (ncap * es) in
  if len > 0 then begin
    D.copy_within (dev v.pool) ~src:data ~dst:ndata ~len:(len * es);
    D.persist (dev v.pool) ndata (len * es)
  end;
  Pool_impl.tx_log tx ~off:(v.hdr + 8) ~len:16;
  D.write_int (dev v.pool) (v.hdr + 8) ncap;
  D.write_int (dev v.pool) (v.hdr + 16) ndata;
  Pool_impl.tx_free tx data

let push v x j =
  let tx = Journal.tx j in
  let len = read_len v in
  if len = read_cap v then grow v tx;
  let s = slot v len in
  Pool_impl.tx_log tx ~off:s ~len:(esize v);
  Ptype.write v.ty v.pool s x;
  Pool_impl.tx_set_int tx v.hdr (len + 1)

(* Shift-based editing; O(n) like Array-backed vectors everywhere. *)
let insert_at v i x j =
  let tx = Journal.tx j in
  let len = read_len v in
  if i < 0 || i > len then
    invalid_arg (Printf.sprintf "Pvec.insert_at: index %d outside [0, %d]" i len);
  if len = read_cap v then grow v tx;
  let es = esize v in
  (* log the shifted region as one range, then move it up *)
  if len > i then begin
    Pool_impl.tx_log tx ~off:(slot v i) ~len:((len - i + 1) * es);
    D.copy_within (dev v.pool) ~src:(slot v i) ~dst:(slot v (i + 1))
      ~len:((len - i) * es)
  end
  else Pool_impl.tx_log tx ~off:(slot v i) ~len:es;
  Ptype.write v.ty v.pool (slot v i) x;
  Pool_impl.tx_set_int tx v.hdr (len + 1)

let remove_at v i j =
  let tx = Journal.tx j in
  check_bounds v i "remove_at";
  let len = read_len v in
  let es = esize v in
  let x = Ptype.read v.ty v.pool (slot v i) in
  if len - 1 > i then begin
    Pool_impl.tx_log tx ~off:(slot v i) ~len:((len - i) * es);
    D.copy_within (dev v.pool) ~src:(slot v (i + 1)) ~dst:(slot v i)
      ~len:((len - 1 - i) * es)
  end;
  Pool_impl.tx_set_int tx v.hdr (len - 1);
  x

let pop v j =
  let tx = Journal.tx j in
  let len = read_len v in
  if len = 0 then None
  else begin
    let x = Ptype.read v.ty v.pool (slot v (len - 1)) in
    Pool_impl.tx_set_int tx v.hdr (len - 1);
    Some x
  end

let iter v f =
  Pool_impl.check_open v.pool;
  for i = 0 to read_len v - 1 do
    f (Ptype.read v.ty v.pool (slot v i))
  done

let fold v ~init ~f =
  let acc = ref init in
  iter v (fun x -> acc := f !acc x);
  !acc

let to_list v = List.rev (fold v ~init:[] ~f:(fun acc x -> x :: acc))

let clear v j =
  let tx = Journal.tx j in
  let len = read_len v in
  for i = 0 to len - 1 do
    Ptype.drop v.ty tx (slot v i)
  done;
  Pool_impl.tx_set_int tx v.hdr 0

let drop v j =
  let tx = Journal.tx j in
  let len = read_len v in
  for i = 0 to len - 1 do
    Ptype.drop v.ty tx (slot v i)
  done;
  Pool_impl.tx_free tx (read_data v);
  Pool_impl.tx_free tx v.hdr

let handle elt =
  Ptype.handle ~name:"pvec" ~hdr:off ~drop
    ~wrap:(fun pool hdr ty -> { hdr; pool; ty })
    ~edges:(fun v ->
      [
        {
          Ptype.block = read_data v;
          follow =
            (fun p ->
              let v = { v with pool = p } in
              List.concat
                (List.init (read_len v) (fun i -> Ptype.reach v.ty p (slot v i))));
        };
      ])
    elt

let ptype inner = handle (Ptype.Of inner)
let ptype_rec inner = handle (Ptype.Of_rec inner)
