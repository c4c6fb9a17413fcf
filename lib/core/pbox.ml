module D = Pmem.Device

type ('a, 'p) t = { off : int; pool : Pool_impl.t; ty : ('a, 'p) Ptype.t }

let unsafe_handle pool off ty = { off; pool; ty }
let off b = b.off
let equal a b = a.off = b.off

let make ~ty v j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  let size = max 8 (Ptype.size ty) in
  let off = Pool_impl.tx_alloc tx size in
  Ptype.write ty pool off v;
  (* AtomicInit: fresh blocks are not undo-logged (rollback frees them),
     so their initial contents must be persisted eagerly. *)
  D.persist (Pool_impl.device pool) off (Ptype.size ty);
  { off; pool; ty }

let get b =
  Pool_impl.check_open b.pool;
  Ptype.read b.ty b.pool b.off

let set b v j =
  let tx = Journal.tx j in
  Pool_impl.tx_log tx ~off:b.off ~len:(max 8 (Ptype.size b.ty));
  Ptype.drop b.ty tx b.off;
  Ptype.write b.ty b.pool b.off v

let modify b j f = set b (f (get b)) j

let pclone b j = make ~ty:b.ty (get b) j

let drop b j =
  let tx = Journal.tx j in
  Ptype.drop b.ty tx b.off;
  Pool_impl.tx_free tx b.off

let handle elt =
  Ptype.handle ~name:"pbox" ~hdr:off ~drop
    ~wrap:(fun pool off ty -> { off; pool; ty })
    ~edges:(fun b -> Ptype.reach b.ty b.pool b.off)
    elt

let ptype inner = handle (Ptype.Of inner)
let ptype_rec inner = handle (Ptype.Of_rec inner)
