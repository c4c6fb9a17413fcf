module D = Pmem.Device

(* Header block: [root u64 | size u64].
   Node block:   [key i64 | height u64 | left u64 | right u64 | value]. *)
let hdr_size = 16
let node_meta = 32

type ('a, 'p) t = { hdr : int; pool : Pool_impl.t; vty : ('a, 'p) Ptype.t }

let off m = m.hdr
let dev pool = Pool_impl.device pool
let vsize m = max 8 (Ptype.size m.vty)
let node_size m = node_meta + vsize m
let read_root m = D.read_int (dev m.pool) m.hdr
let read_size m = D.read_int (dev m.pool) (m.hdr + 8)
let key m n = D.read_int (dev m.pool) n
let hgt m n = D.read_int (dev m.pool) (n + 8)
let left m n = D.read_int (dev m.pool) (n + 16)
let right m n = D.read_int (dev m.pool) (n + 24)
let value_off n = n + node_meta

(* Logged field writes (8-byte exact ranges; dedup makes repeats free). *)
let set_root m tx v = Pool_impl.tx_set_int tx m.hdr v
let set_size m tx v = Pool_impl.tx_set_int tx (m.hdr + 8) v
let set_hgt tx n v = Pool_impl.tx_set_int tx (n + 8) v
let set_left tx n v = Pool_impl.tx_set_int tx (n + 16) v
let set_right tx n v = Pool_impl.tx_set_int tx (n + 24) v

let length m =
  Pool_impl.check_open m.pool;
  read_size m

let is_empty m = length m = 0

let height m =
  Pool_impl.check_open m.pool;
  let r = read_root m in
  if r = 0 then 0 else hgt m r

let make ~vty j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  let hdr = Pool_impl.tx_alloc tx hdr_size in
  D.write_int (dev pool) hdr 0;
  D.write_int (dev pool) (hdr + 8) 0;
  D.persist (dev pool) hdr hdr_size;
  { hdr; pool; vty }

(* --- balance machinery ------------------------------------------------- *)

let node_height m n = if n = 0 then 0 else hgt m n
let balance_of m n = node_height m (left m n) - node_height m (right m n)

let fix_height m tx n =
  let h = 1 + max (node_height m (left m n)) (node_height m (right m n)) in
  if hgt m n <> h then set_hgt tx n h

(* Classic rotations; return the subtree's new root. *)
let rotate_right m tx n =
  let l = left m n in
  set_left tx n (right m l);
  set_right tx l n;
  fix_height m tx n;
  fix_height m tx l;
  l

let rotate_left m tx n =
  let r = right m n in
  set_right tx n (left m r);
  set_left tx r n;
  fix_height m tx n;
  fix_height m tx r;
  r

let rebalance m tx n =
  fix_height m tx n;
  let bf = balance_of m n in
  if bf > 1 then begin
    if balance_of m (left m n) < 0 then set_left tx n (rotate_left m tx (left m n));
    rotate_right m tx n
  end
  else if bf < -1 then begin
    if balance_of m (right m n) > 0 then
      set_right tx n (rotate_right m tx (right m n));
    rotate_left m tx n
  end
  else n

(* --- insert ------------------------------------------------------------ *)

let new_node m tx k v =
  let n = Pool_impl.tx_alloc tx (node_size m) in
  D.write_int (dev m.pool) n k;
  D.write_int (dev m.pool) (n + 8) 1;
  D.write_int (dev m.pool) (n + 16) 0;
  D.write_int (dev m.pool) (n + 24) 0;
  Ptype.write m.vty m.pool (value_off n) v;
  D.persist (dev m.pool) n (node_size m);
  n

let add m ~key:k v j =
  let tx = Journal.tx j in
  let added = ref false in
  let rec ins n =
    if n = 0 then begin
      added := true;
      new_node m tx k v
    end
    else if k < key m n then begin
      set_left tx n (ins (left m n));
      rebalance m tx n
    end
    else if k > key m n then begin
      set_right tx n (ins (right m n));
      rebalance m tx n
    end
    else begin
      (* replace: release the old value, write the new one *)
      Pool_impl.tx_log tx ~off:(value_off n) ~len:(vsize m);
      Ptype.drop m.vty tx (value_off n);
      Ptype.write m.vty m.pool (value_off n) v;
      n
    end
  in
  let nroot = ins (read_root m) in
  if nroot <> read_root m then set_root m tx nroot;
  if !added then set_size m tx (read_size m + 1)

(* --- find -------------------------------------------------------------- *)

let find m k =
  Pool_impl.check_open m.pool;
  let rec go n =
    if n = 0 then None
    else if k < key m n then go (left m n)
    else if k > key m n then go (right m n)
    else Some (Ptype.read m.vty m.pool (value_off n))
  in
  go (read_root m)

let mem m k = find m k <> None

(* --- remove ------------------------------------------------------------ *)

let remove m k j =
  let tx = Journal.tx j in
  let removed = ref false in
  (* Remove the minimum node of subtree [n]; [kept] receives its offset
     (the node is unlinked, not freed — the caller grafts or harvests). *)
  let rec take_min n kept =
    if left m n = 0 then begin
      kept := n;
      right m n
    end
    else begin
      set_left tx n (take_min (left m n) kept);
      rebalance m tx n
    end
  in
  let rec del n =
    if n = 0 then 0
    else if k < key m n then begin
      set_left tx n (del (left m n));
      rebalance m tx n
    end
    else if k > key m n then begin
      set_right tx n (del (right m n));
      rebalance m tx n
    end
    else begin
      removed := true;
      (* release this node's value and free the node; the successor (if
         any) is unlinked from the right subtree and grafted in place. *)
      Ptype.drop m.vty tx (value_off n);
      let l = left m n and r = right m n in
      Pool_impl.tx_free tx n;
      if r = 0 then l
      else if l = 0 then r
      else begin
        let succ = ref 0 in
        let r' = take_min r succ in
        let s = !succ in
        set_left tx s l;
        set_right tx s r';
        rebalance m tx s
      end
    end
  in
  let nroot = del (read_root m) in
  if nroot <> read_root m then set_root m tx nroot;
  if !removed then set_size m tx (read_size m - 1);
  !removed

(* --- iteration ---------------------------------------------------------- *)

let fold m ~init ~f =
  Pool_impl.check_open m.pool;
  let rec go acc n =
    if n = 0 then acc
    else
      let acc = go acc (left m n) in
      let acc = f acc (key m n) (Ptype.read m.vty m.pool (value_off n)) in
      go acc (right m n)
  in
  go init (read_root m)

let iter m f = fold m ~init:() ~f:(fun () k v -> f k v)

(* Pruned in-order descent over keys in [lo, hi] (inclusive). *)
let fold_range m ~lo ~hi ~init ~f =
  Pool_impl.check_open m.pool;
  let rec go acc n =
    if n = 0 then acc
    else
      let k = key m n in
      let acc = if k > lo then go acc (left m n) else acc in
      let acc =
        if k >= lo && k <= hi then
          f acc k (Ptype.read m.vty m.pool (value_off n))
        else acc
      in
      if k < hi then go acc (right m n) else acc
  in
  go init (read_root m)
let to_list m = List.rev (fold m ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

let min_binding m =
  Pool_impl.check_open m.pool;
  let rec go n =
    if n = 0 then None
    else if left m n = 0 then Some (key m n, Ptype.read m.vty m.pool (value_off n))
    else go (left m n)
  in
  go (read_root m)

let max_binding m =
  Pool_impl.check_open m.pool;
  let rec go n =
    if n = 0 then None
    else if right m n = 0 then Some (key m n, Ptype.read m.vty m.pool (value_off n))
    else go (right m n)
  in
  go (read_root m)

(* --- teardown ----------------------------------------------------------- *)

let rec drop_subtree m tx n =
  if n <> 0 then begin
    drop_subtree m tx (left m n);
    drop_subtree m tx (right m n);
    Ptype.drop m.vty tx (value_off n);
    Pool_impl.tx_free tx n
  end

let clear m j =
  let tx = Journal.tx j in
  drop_subtree m tx (read_root m);
  set_root m tx 0;
  set_size m tx 0

let drop m j =
  let tx = Journal.tx j in
  drop_subtree m tx (read_root m);
  Pool_impl.tx_free tx m.hdr

(* --- invariants ---------------------------------------------------------- *)

exception Violation of string

let check m =
  Pool_impl.check_open m.pool;
  let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt in
  let count = ref 0 in
  let rec go n lo hi =
    if n = 0 then 0
    else begin
      incr count;
      let k = key m n in
      (match lo with Some l when k <= l -> fail "key %d out of order" k | _ -> ());
      (match hi with Some h when k >= h -> fail "key %d out of order" k | _ -> ());
      let hl = go (left m n) lo (Some k) in
      let hr = go (right m n) (Some k) hi in
      if abs (hl - hr) > 1 then fail "unbalanced at key %d (%d vs %d)" k hl hr;
      let h = 1 + max hl hr in
      if hgt m n <> h then fail "stale height at key %d" k;
      h
    end
  in
  match go (read_root m) None None with
  | _ ->
      if !count <> read_size m then
        Error (Printf.sprintf "size %d but %d nodes" (read_size m) !count)
      else Ok ()
  | exception Violation msg -> Error msg

(* --- container descriptor ------------------------------------------------ *)

let handle elt =
  Ptype.handle ~name:"pmap" ~hdr:off ~drop
    ~wrap:(fun pool hdr vty -> { hdr; pool; vty })
    ~edges:(fun m ->
      let rec nodes acc n =
        if n = 0 then acc
        else
          let edge =
            {
              Ptype.block = n;
              follow = (fun p -> Ptype.reach m.vty p (value_off n));
            }
          in
          nodes (nodes (edge :: acc) (left m n)) (right m n)
      in
      nodes [] (read_root m))
    elt

let ptype inner = handle (Ptype.Of inner)
let ptype_rec inner = handle (Ptype.Of_rec inner)
