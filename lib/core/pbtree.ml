module D = Pmem.Device

(* Header block: [root u64 | size u64].
   Node: meta u64 (leaf flag lor count lsl 1) | keys[7] at +8;
   leaf:     values (7 x vsize) at +64, next-leaf u64 after them;
   internal: children[8] at +64. *)
let hdr_size = 16
let fanout = 8
let max_keys = fanout - 1
let min_keys = 3

type ('a, 'p) t = { hdr : int; pool : Pool_impl.t; vty : ('a, 'p) Ptype.t }

let off t = t.hdr
let dev pool = Pool_impl.device pool
let vsize t = max 8 (Ptype.size t.vty)
let leaf_size t = 64 + (max_keys * vsize t) + 8
let internal_size = 128
let read_root t = D.read_int (dev t.pool) t.hdr
let read_size t = D.read_int (dev t.pool) (t.hdr + 8)

let length t =
  Pool_impl.check_open t.pool;
  read_size t

let is_empty t = length t = 0

(* --- node accessors (logged writes, exact 8-byte or value ranges) ------ *)

let meta t n = D.read_int (dev t.pool) n
let is_leaf t n = meta t n land 1 = 1
let count t n = meta t n lsr 1

let set_root t tx v = Pool_impl.tx_set_int tx t.hdr v
let set_size t tx v = Pool_impl.tx_set_int tx (t.hdr + 8) v

let set_meta tx n ~leaf ~count =
  Pool_impl.tx_set_int tx n ((count lsl 1) lor if leaf then 1 else 0)

let key t n i = D.read_int (dev t.pool) (n + 8 + (i * 8))
let set_key tx n i v = Pool_impl.tx_set_int tx (n + 8 + (i * 8)) v
let value_off t n i = n + 64 + (i * vsize t)
let child t n i = D.read_int (dev t.pool) (n + 64 + (i * 8))
let set_child tx n i c = Pool_impl.tx_set_int tx (n + 64 + (i * 8)) c
let next_off t n = n + 64 + (max_keys * vsize t)
let next_leaf t n = D.read_int (dev t.pool) (next_off t n)
let set_next_leaf t tx n c = Pool_impl.tx_set_int tx (next_off t n) c

let read_value t n i = Ptype.read t.vty t.pool (value_off t n i)

(* Store a value with logging; drops nothing (insertion into a dead or
   freshly vacated slot). *)
let put_value t tx n i v =
  Pool_impl.tx_log tx ~off:(value_off t n i) ~len:(vsize t);
  Ptype.write t.vty t.pool (value_off t n i) v

(* Move a value's bytes between slots: ownership transfers, counts are
   untouched, the source slot becomes dead. *)
let move_value t tx ~src_node ~src_i ~dst_node ~dst_i =
  let src = value_off t src_node src_i and dst = value_off t dst_node dst_i in
  Pool_impl.tx_log tx ~off:dst ~len:(vsize t);
  D.copy_within (dev t.pool) ~src ~dst ~len:(vsize t)

let new_node t tx ~leaf =
  let size = if leaf then leaf_size t else internal_size in
  let n = Pool_impl.tx_alloc tx size in
  D.fill (dev t.pool) n size '\000';
  D.write_int (dev t.pool) n (if leaf then 1 else 0);
  D.persist (dev t.pool) n size;
  n

let make ~vty j =
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  let hdr = Pool_impl.tx_alloc tx hdr_size in
  D.write_int (dev pool) hdr 0;
  D.write_int (dev pool) (hdr + 8) 0;
  D.persist (dev pool) hdr hdr_size;
  { hdr; pool; vty }

(* Index of the child to descend into: first separator > key, else the
   rightmost child. *)
let descend_index t n k =
  let c = count t n in
  let rec go i = if i >= c then i else if k < key t n i then i else go (i + 1) in
  go 0

let leaf_search t n k =
  let c = count t n in
  let rec go i =
    if i >= c then `Insert_at i
    else
      let ki = key t n i in
      if k = ki then `Found i else if k < ki then `Insert_at i else go (i + 1)
  in
  go 0

(* --- lookup ------------------------------------------------------------- *)

let find_leaf t k =
  let rec go n =
    if n = 0 then 0
    else if is_leaf t n then n
    else go (child t n (descend_index t n k))
  in
  go (read_root t)

let find t k =
  Pool_impl.check_open t.pool;
  let n = find_leaf t k in
  if n = 0 then None
  else
    match leaf_search t n k with
    | `Found i -> Some (read_value t n i)
    | `Insert_at _ -> None

let mem t k = find t k <> None

(* --- insert -------------------------------------------------------------- *)

let split_child t tx parent i =
  let c = child t parent i in
  let leaf = is_leaf t c in
  let right = new_node t tx ~leaf in
  let sep =
    if leaf then begin
      (* left keeps 0..2, right takes 3..6 *)
      for k = 3 to 6 do
        set_key tx right (k - 3) (key t c k);
        move_value t tx ~src_node:c ~src_i:k ~dst_node:right ~dst_i:(k - 3)
      done;
      set_meta tx right ~leaf:true ~count:4;
      set_next_leaf t tx right (next_leaf t c);
      set_next_leaf t tx c right;
      set_meta tx c ~leaf:true ~count:3;
      key t right 0
    end
    else begin
      for k = 4 to 6 do
        set_key tx right (k - 4) (key t c k)
      done;
      for k = 4 to 7 do
        set_child tx right (k - 4) (child t c k)
      done;
      set_meta tx right ~leaf:false ~count:3;
      let sep = key t c 3 in
      set_meta tx c ~leaf:false ~count:3;
      sep
    end
  in
  let pc = count t parent in
  for k = pc - 1 downto i do
    set_key tx parent (k + 1) (key t parent k)
  done;
  for k = pc downto i + 1 do
    set_child tx parent (k + 1) (child t parent k)
  done;
  set_key tx parent i sep;
  set_child tx parent (i + 1) right;
  set_meta tx parent ~leaf:false ~count:(pc + 1)

let rec insert_nonfull t tx n k v added =
  if is_leaf t n then begin
    match leaf_search t n k with
    | `Found i ->
        (* replace: release the old value *)
        Pool_impl.tx_log tx ~off:(value_off t n i) ~len:(vsize t);
        Ptype.drop t.vty tx (value_off t n i);
        Ptype.write t.vty t.pool (value_off t n i) v
    | `Insert_at i ->
        added := true;
        let c = count t n in
        for m = c - 1 downto i do
          set_key tx n (m + 1) (key t n m);
          move_value t tx ~src_node:n ~src_i:m ~dst_node:n ~dst_i:(m + 1)
        done;
        set_key tx n i k;
        put_value t tx n i v;
        set_meta tx n ~leaf:true ~count:(c + 1)
  end
  else begin
    let i = descend_index t n k in
    let c = child t n i in
    if count t c = max_keys then begin
      split_child t tx n i;
      let i = descend_index t n k in
      insert_nonfull t tx (child t n i) k v added
    end
    else insert_nonfull t tx c k v added
  end

let add t ~key:k v j =
  let tx = Journal.tx j in
  let added = ref false in
  let root = read_root t in
  if root = 0 then begin
    let leaf = new_node t tx ~leaf:true in
    set_key tx leaf 0 k;
    put_value t tx leaf 0 v;
    set_meta tx leaf ~leaf:true ~count:1;
    set_root t tx leaf;
    added := true
  end
  else begin
    let root =
      if count t root = max_keys then begin
        let nroot = new_node t tx ~leaf:false in
        set_child tx nroot 0 root;
        set_meta tx nroot ~leaf:false ~count:0;
        split_child t tx nroot 0;
        set_root t tx nroot;
        nroot
      end
      else root
    in
    insert_nonfull t tx root k v added
  end;
  if !added then set_size t tx (read_size t + 1)

(* --- delete -------------------------------------------------------------- *)

let remove_from_leaf t tx n i =
  let c = count t n in
  for m = i to c - 2 do
    set_key tx n m (key t n (m + 1));
    move_value t tx ~src_node:n ~src_i:(m + 1) ~dst_node:n ~dst_i:m
  done;
  set_meta tx n ~leaf:true ~count:(c - 1)

let borrow_from_left t tx parent i =
  let c = child t parent i and l = child t parent (i - 1) in
  let lc = count t l and cc = count t c in
  if is_leaf t c then begin
    for m = cc - 1 downto 0 do
      set_key tx c (m + 1) (key t c m);
      move_value t tx ~src_node:c ~src_i:m ~dst_node:c ~dst_i:(m + 1)
    done;
    set_key tx c 0 (key t l (lc - 1));
    move_value t tx ~src_node:l ~src_i:(lc - 1) ~dst_node:c ~dst_i:0;
    set_meta tx c ~leaf:true ~count:(cc + 1);
    set_meta tx l ~leaf:true ~count:(lc - 1);
    set_key tx parent (i - 1) (key t c 0)
  end
  else begin
    for m = cc - 1 downto 0 do
      set_key tx c (m + 1) (key t c m)
    done;
    for m = cc downto 0 do
      set_child tx c (m + 1) (child t c m)
    done;
    set_key tx c 0 (key t parent (i - 1));
    set_child tx c 0 (child t l lc);
    set_meta tx c ~leaf:false ~count:(cc + 1);
    set_key tx parent (i - 1) (key t l (lc - 1));
    set_meta tx l ~leaf:false ~count:(lc - 1)
  end

let borrow_from_right t tx parent i =
  let c = child t parent i and r = child t parent (i + 1) in
  let rc = count t r and cc = count t c in
  if is_leaf t c then begin
    set_key tx c cc (key t r 0);
    move_value t tx ~src_node:r ~src_i:0 ~dst_node:c ~dst_i:cc;
    set_meta tx c ~leaf:true ~count:(cc + 1);
    for m = 0 to rc - 2 do
      set_key tx r m (key t r (m + 1));
      move_value t tx ~src_node:r ~src_i:(m + 1) ~dst_node:r ~dst_i:m
    done;
    set_meta tx r ~leaf:true ~count:(rc - 1);
    set_key tx parent i (key t r 0)
  end
  else begin
    set_key tx c cc (key t parent i);
    set_child tx c (cc + 1) (child t r 0);
    set_meta tx c ~leaf:false ~count:(cc + 1);
    set_key tx parent i (key t r 0);
    for m = 0 to rc - 2 do
      set_key tx r m (key t r (m + 1))
    done;
    for m = 0 to rc - 1 do
      set_child tx r m (child t r (m + 1))
    done;
    set_meta tx r ~leaf:false ~count:(rc - 1)
  end

let merge_children t tx parent i =
  let l = child t parent i and r = child t parent (i + 1) in
  let lc = count t l and rc = count t r in
  if is_leaf t l then begin
    for m = 0 to rc - 1 do
      set_key tx l (lc + m) (key t r m);
      move_value t tx ~src_node:r ~src_i:m ~dst_node:l ~dst_i:(lc + m)
    done;
    set_meta tx l ~leaf:true ~count:(lc + rc);
    set_next_leaf t tx l (next_leaf t r)
  end
  else begin
    set_key tx l lc (key t parent i);
    for m = 0 to rc - 1 do
      set_key tx l (lc + 1 + m) (key t r m)
    done;
    for m = 0 to rc do
      set_child tx l (lc + 1 + m) (child t r m)
    done;
    set_meta tx l ~leaf:false ~count:(lc + rc + 1)
  end;
  let pc = count t parent in
  for m = i to pc - 2 do
    set_key tx parent m (key t parent (m + 1))
  done;
  for m = i + 1 to pc - 1 do
    set_child tx parent m (child t parent (m + 1))
  done;
  set_meta tx parent ~leaf:false ~count:(pc - 1);
  Pool_impl.tx_free tx r

let fix_child t tx parent i =
  let c = child t parent i in
  if count t c > min_keys then ()
  else if i > 0 && count t (child t parent (i - 1)) > min_keys then
    borrow_from_left t tx parent i
  else if i < count t parent && count t (child t parent (i + 1)) > min_keys
  then borrow_from_right t tx parent i
  else if i > 0 then merge_children t tx parent (i - 1)
  else merge_children t tx parent i

let rec remove_rec t tx n k =
  if is_leaf t n then
    match leaf_search t n k with
    | `Found i ->
        Ptype.drop t.vty tx (value_off t n i);
        remove_from_leaf t tx n i;
        true
    | `Insert_at _ -> false
  else begin
    let i = descend_index t n k in
    fix_child t tx n i;
    let i = descend_index t n k in
    remove_rec t tx (child t n i) k
  end

let remove t k j =
  let tx = Journal.tx j in
  let root = read_root t in
  if root = 0 then false
  else begin
    let r = remove_rec t tx root k in
    let root = read_root t in
    if (not (is_leaf t root)) && count t root = 0 then begin
      set_root t tx (child t root 0);
      Pool_impl.tx_free tx root
    end
    else if is_leaf t root && count t root = 0 then begin
      set_root t tx 0;
      Pool_impl.tx_free tx root
    end;
    if r then set_size t tx (read_size t - 1);
    r
  end

(* --- scans ---------------------------------------------------------------- *)

let leftmost_leaf t n =
  let rec go n = if is_leaf t n then n else go (child t n 0) in
  go n

let fold t ~init ~f =
  Pool_impl.check_open t.pool;
  let root = read_root t in
  if root = 0 then init
  else begin
    let acc = ref init in
    let leaf = ref (leftmost_leaf t root) in
    while !leaf <> 0 do
      for i = 0 to count t !leaf - 1 do
        acc := f !acc (key t !leaf i) (read_value t !leaf i)
      done;
      leaf := next_leaf t !leaf
    done;
    !acc
  end

let iter t f = fold t ~init:() ~f:(fun () k v -> f k v)
let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

let fold_range t ~lo ~hi ~init ~f =
  Pool_impl.check_open t.pool;
  let start = find_leaf t lo in
  if start = 0 then init
  else begin
    let acc = ref init in
    let leaf = ref start and continue = ref true in
    while !leaf <> 0 && !continue do
      for i = 0 to count t !leaf - 1 do
        let k = key t !leaf i in
        if k > hi then continue := false
        else if k >= lo then acc := f !acc k (read_value t !leaf i)
      done;
      leaf := next_leaf t !leaf
    done;
    !acc
  end

let min_binding t =
  Pool_impl.check_open t.pool;
  let root = read_root t in
  if root = 0 then None
  else
    let l = leftmost_leaf t root in
    Some (key t l 0, read_value t l 0)

let max_binding t =
  Pool_impl.check_open t.pool;
  let rec go n =
    if is_leaf t n then
      let c = count t n in
      Some (key t n (c - 1), read_value t n (c - 1))
    else go (child t n (count t n))
  in
  let root = read_root t in
  if root = 0 then None else go root

(* --- teardown --------------------------------------------------------------*)

let rec drop_subtree t tx n =
  if n <> 0 then
    if is_leaf t n then begin
      for i = 0 to count t n - 1 do
        Ptype.drop t.vty tx (value_off t n i)
      done;
      Pool_impl.tx_free tx n
    end
    else begin
      for i = 0 to count t n do
        drop_subtree t tx (child t n i)
      done;
      Pool_impl.tx_free tx n
    end

let clear t j =
  let tx = Journal.tx j in
  drop_subtree t tx (read_root t);
  set_root t tx 0;
  set_size t tx 0

let drop t j =
  let tx = Journal.tx j in
  drop_subtree t tx (read_root t);
  Pool_impl.tx_free tx t.hdr

(* --- invariants -------------------------------------------------------------*)

exception Violation of string

let check t =
  Pool_impl.check_open t.pool;
  let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt in
  let entries = ref 0 in
  let rec go n ~lo ~hi ~is_root =
    let c = count t n in
    if (not is_root) && c < min_keys then fail "node %d underfull (%d)" n c;
    if c > max_keys then fail "node %d overfull (%d)" n c;
    for i = 0 to c - 1 do
      let k = key t n i in
      (match lo with
      | Some l when k < l -> fail "key %d below bound in %d" k n
      | _ -> ());
      (match hi with
      | Some h when k >= h -> fail "key %d above bound in %d" k n
      | _ -> ());
      if i > 0 && key t n (i - 1) >= k then fail "keys unsorted in %d" n
    done;
    if is_leaf t n then begin
      entries := !entries + c;
      1
    end
    else begin
      let depths =
        List.init (c + 1) (fun i ->
            let lo' = if i = 0 then lo else Some (key t n (i - 1)) in
            let hi' = if i = c then hi else Some (key t n i) in
            go (child t n i) ~lo:lo' ~hi:hi' ~is_root:false)
      in
      match depths with
      | d :: rest ->
          if List.exists (fun d' -> d' <> d) rest then fail "ragged depth under %d" n;
          d + 1
      | [] -> fail "internal node %d without children" n
    end
  in
  let root = read_root t in
  if root = 0 then
    if read_size t = 0 then Ok () else Error "empty tree with non-zero size"
  else
    match go root ~lo:None ~hi:None ~is_root:true with
    | _ ->
        if !entries <> read_size t then
          Error
            (Printf.sprintf "size %d but %d leaf entries" (read_size t) !entries)
        else Ok ()
    | exception Violation msg -> Error msg

(* --- container descriptor ----------------------------------------------------*)

let handle elt =
  Ptype.handle ~name:"pbtree" ~hdr:off ~drop
    ~wrap:(fun pool hdr vty -> { hdr; pool; vty })
    ~edges:(fun t ->
      let rec nodes acc n =
        if n = 0 then acc
        else if is_leaf t n then
          {
            Ptype.block = n;
            follow =
              (fun p ->
                let t = { t with pool = p } in
                List.concat
                  (List.init (count t n) (fun i ->
                       Ptype.reach t.vty p (value_off t n i))));
          }
          :: acc
        else begin
          let acc = ref ({ Ptype.block = n; follow = (fun _ -> []) } :: acc) in
          for i = 0 to count t n do
            acc := nodes !acc (child t n i)
          done;
          !acc
        end
      in
      nodes [] (read_root t))
    elt

let ptype inner = handle (Ptype.Of inner)
let ptype_rec inner = handle (Ptype.Of_rec inner)
