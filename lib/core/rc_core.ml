exception Dangling of int

module D = Pmem.Device

type ('a, 'p) rc = {
  ctrl : int;
  pool : Pool_impl.t;
  ty : ('a, 'p) Ptype.t;
  atomic : bool;
}

type ('a, 'p) pweak = {
  w_ctrl : int;
  w_pool : Pool_impl.t;
  w_ty : ('a, 'p) Ptype.t;
  w_atomic : bool;
}

type ('a, 'p) vweak = {
  v_ctrl : int;
  v_uid : int;
  v_birth : int;
  v_ty : ('a, 'p) Ptype.t;
  v_atomic : bool;
}

let header = 16
let ctrl rc = rc.ctrl
let equal a b = a.ctrl = b.ctrl
let dev pool = Pool_impl.device pool
let read_strong pool c = D.read_int (dev pool) c
let read_weak pool c = D.read_int (dev pool) (c + 8)
let write_strong pool c v = D.write_int (dev pool) c v
let write_weak pool c v = D.write_int (dev pool) (c + 8) v

let strong_count rc =
  Pool_impl.check_open rc.pool;
  read_strong rc.pool rc.ctrl

let weak_count rc =
  Pool_impl.check_open rc.pool;
  (* hide the implicit weak held by the strong references *)
  let w = read_weak rc.pool rc.ctrl in
  if read_strong rc.pool rc.ctrl > 0 then w - 1 else w

(* Guard a control block's counter words before reading them.  Atomic
   blocks take the pool lock (held to transaction end) so that a
   read-modify-write of a count cannot interleave with another domain's;
   non-atomic blocks rely on single-threaded use. *)
let lock_counts tx ~atomic c = if atomic then Pool_impl.tx_lock tx c

(* Log the counter words: atomic blocks log every update, non-atomic ones
   deduplicate. *)
let log_counts tx ~atomic c =
  if atomic then Pool_impl.tx_log_nodedup tx ~off:c ~len:header
  else Pool_impl.tx_log tx ~off:c ~len:header

let make ~atomic ~ty v j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  let size = header + max 8 (Ptype.size ty) in
  let c = Pool_impl.tx_alloc tx size in
  write_strong pool c 1;
  (* the strong references collectively hold one implicit weak, so a
     weak_drop reached from inside the payload's own teardown can never
     free the block out from under it (Rust's Rc uses the same trick) *)
  write_weak pool c 1;
  Ptype.write ty pool (c + header) v;
  D.persist (dev pool) c (header + Ptype.size ty);
  (* Counters are born crash-consistent: their journal entry makes the
     initialization independently recoverable (the paper's pricier
     [Prc]/[Parc] AtomicInit).  Logged without dedup so that the first
     in-transaction [pclone] still pays its own entry. *)
  Pool_impl.tx_log_nodedup tx ~off:c ~len:header;
  if atomic then begin
    (* Arc-style: the contended counter line is persisted on its own. *)
    Pool_impl.tx_lock tx c;
    D.persist (dev pool) c header
  end;
  { ctrl = c; pool; ty; atomic }

let get rc =
  Pool_impl.check_open rc.pool;
  if read_strong rc.pool rc.ctrl = 0 then raise (Dangling rc.ctrl);
  Ptype.read rc.ty rc.pool (rc.ctrl + header)

let pclone rc j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  lock_counts tx ~atomic:rc.atomic rc.ctrl;
  let s = read_strong pool rc.ctrl in
  if s = 0 then raise (Dangling rc.ctrl);
  log_counts tx ~atomic:rc.atomic rc.ctrl;
  write_strong pool rc.ctrl (s + 1);
  rc

(* Decrement a strong count at [c]; at zero, drop the payload and then
   release the implicit weak — freeing the block only when no other weak
   references remain.  The payload drop may itself drop weak references
   to [c]; the implicit weak keeps the block alive throughout. *)
let drop_strong_at tx ~atomic ~ty c =
  let pool = Pool_impl.tx_pool tx in
  lock_counts tx ~atomic c;
  let s = read_strong pool c in
  if s = 0 then raise (Dangling c);
  log_counts tx ~atomic c;
  write_strong pool c (s - 1);
  if s = 1 then begin
    Ptype.drop ty tx (c + header);
    (* release the implicit weak (re-read: the payload drop may have
       changed the count) *)
    let w = read_weak pool c in
    write_weak pool c (w - 1);
    if w = 1 then Pool_impl.tx_free tx c
  end

let drop rc j = drop_strong_at (Journal.tx j) ~atomic:rc.atomic ~ty:rc.ty rc.ctrl

(* Take the payload out when we are the only strong owner (Rust's
   Rc::try_unwrap): the value is read out by copy (ownership of what it
   references moves with it), the slot is NOT dropped, and the block is
   released through the ordinary weak accounting. *)
let try_unwrap rc j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  lock_counts tx ~atomic:rc.atomic rc.ctrl;
  let s = read_strong pool rc.ctrl in
  if s = 0 then raise (Dangling rc.ctrl);
  if s <> 1 then None
  else begin
    let v = Ptype.read rc.ty pool (rc.ctrl + header) in
    log_counts tx ~atomic:rc.atomic rc.ctrl;
    write_strong pool rc.ctrl 0;
    let w = read_weak pool rc.ctrl in
    write_weak pool rc.ctrl (w - 1);
    if w = 1 then Pool_impl.tx_free tx rc.ctrl;
    Some v
  end

let downgrade rc j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  lock_counts tx ~atomic:rc.atomic rc.ctrl;
  if read_strong pool rc.ctrl = 0 then raise (Dangling rc.ctrl);
  log_counts tx ~atomic:rc.atomic rc.ctrl;
  write_weak pool rc.ctrl (read_weak pool rc.ctrl + 1);
  { w_ctrl = rc.ctrl; w_pool = rc.pool; w_ty = rc.ty; w_atomic = rc.atomic }

let weak_drop_at tx ~atomic c =
  let pool = Pool_impl.tx_pool tx in
  lock_counts tx ~atomic c;
  let w = read_weak pool c in
  if w = 0 then raise (Dangling c);
  log_counts tx ~atomic c;
  write_weak pool c (w - 1);
  if w = 1 && read_strong pool c = 0 then Pool_impl.tx_free tx c

let weak_drop w j = weak_drop_at (Journal.tx j) ~atomic:w.w_atomic w.w_ctrl

let upgrade w j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  lock_counts tx ~atomic:w.w_atomic w.w_ctrl;
  let s = read_strong pool w.w_ctrl in
  if s = 0 then None
  else begin
    log_counts tx ~atomic:w.w_atomic w.w_ctrl;
    write_strong pool w.w_ctrl (s + 1);
    Some { ctrl = w.w_ctrl; pool = w.w_pool; ty = w.w_ty; atomic = w.w_atomic }
  end

let demote rc j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  if read_strong pool rc.ctrl = 0 then raise (Dangling rc.ctrl);
  (* The paper's demote maintains a per-object reference list; the birth
     table plays that role here and its bookkeeping is charged to the
     simulated clock (Parc's is costlier: the list is shared). *)
  D.charge_ns (dev pool) (if rc.atomic then 75 else 40);
  {
    v_ctrl = rc.ctrl;
    v_uid = Pool_impl.uid pool;
    v_birth = Pool_impl.birth pool rc.ctrl;
    v_ty = rc.ty;
    v_atomic = rc.atomic;
  }

let promote vw j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  (* Valid only against the same open pool instance, and only if the block
     has not been freed and reused since the vweak was created. *)
  if Pool_impl.uid pool <> vw.v_uid then None
  else if Pool_impl.birth pool vw.v_ctrl <> vw.v_birth then None
  else begin
    lock_counts tx ~atomic:vw.v_atomic vw.v_ctrl;
    let s = read_strong pool vw.v_ctrl in
    if s = 0 then None
    else begin
      log_counts tx ~atomic:vw.v_atomic vw.v_ctrl;
      write_strong pool vw.v_ctrl (s + 1);
      Some { ctrl = vw.v_ctrl; pool; ty = vw.v_ty; atomic = vw.v_atomic }
    end
  end

let read_ptr pool off = D.read_int (dev pool) off

let rc_ptype ~atomic ~name inner_of =
  Ptype.make ~name ~size:8
    ~read:(fun pool off ->
      { ctrl = read_ptr pool off; pool; ty = inner_of (); atomic })
    ~write:(fun pool off rc ->
      D.write_int (dev pool) off rc.ctrl)
    ~drop:(fun tx off ->
      let pool = Pool_impl.tx_pool tx in
      let c = read_ptr pool off in
      if c <> 0 then drop_strong_at tx ~atomic ~ty:(inner_of ()) c)
    ~reach:(fun pool off ->
      let c = read_ptr pool off in
      if c = 0 then []
      else
        [
          {
            Ptype.block = c;
            follow =
              (fun p ->
                if read_strong p c > 0 then
                  Ptype.reach (inner_of ()) p (c + header)
                else []);
          };
        ])

let pweak_ptype ~atomic ~name inner_of =
  Ptype.make ~name ~size:8
    ~read:(fun pool off ->
      {
        w_ctrl = read_ptr pool off;
        w_pool = pool;
        w_ty = inner_of ();
        w_atomic = atomic;
      })
    ~write:(fun pool off w ->
      D.write_int (dev pool) off w.w_ctrl)
    ~drop:(fun tx off ->
      let pool = Pool_impl.tx_pool tx in
      let c = read_ptr pool off in
      if c <> 0 then weak_drop_at tx ~atomic c)
    ~reach:(fun pool off ->
      let c = read_ptr pool off in
      if c = 0 then []
      else [ { Ptype.block = c; follow = (fun _ -> []) } ])
