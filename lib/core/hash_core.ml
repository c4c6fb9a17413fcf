module D = Pmem.Device

module type KEY = sig
  type t
  type word

  val name : string
  val meta : int
  val word : t -> word
  val bucket : word -> int -> int
  val stored : Pool_impl.t -> int -> word
  val matches : Pool_impl.t -> int -> word -> t -> bool
  val store : Pool_impl.tx -> t -> int
  val init : Pool_impl.t -> int -> word -> int -> unit
  val release : Pool_impl.tx -> int -> unit
  val get : Pool_impl.t -> int -> t
  val check : Pool_impl.t -> int -> (word, string) result
  val to_string : t -> string
  val reach : Pool_impl.t -> int -> Ptype.edge list
end

(* Header block: [count u64 | nbuckets u64 | dir u64].
   Directory:    nbuckets chain-head pointers.
   Entry block:  [key word | next u64 | ... | value at K.meta]. *)
module Make (K : KEY) = struct
  let hdr_size = 24

  type ('a, 'p) t = { hdr : int; pool : Pool_impl.t; vty : ('a, 'p) Ptype.t }

  let off h = h.hdr
  let dev h = Pool_impl.device h.pool
  let vsize h = max 8 (Ptype.size h.vty)
  let entry_size h = K.meta + vsize h
  let value_off e = e + K.meta
  let read_count h = D.read_int (dev h) h.hdr
  let read_nbuckets h = D.read_int (dev h) (h.hdr + 8)
  let read_dir h = D.read_int (dev h) (h.hdr + 16)
  let next h e = D.read_int (dev h) (e + 8)
  let head_addr h b = read_dir h + (b * 8)
  let head h b = D.read_int (dev h) (head_addr h b)
  let set_count h tx v = Pool_impl.tx_set_int tx h.hdr v

  let length h =
    Pool_impl.check_open h.pool;
    read_count h

  let buckets h =
    Pool_impl.check_open h.pool;
    read_nbuckets h

  let is_empty h = length h = 0

  let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

  let make ~vty ?(nbuckets = 16) j =
    if nbuckets <= 0 then invalid_arg (K.name ^ ".make: nbuckets must be positive");
    let nbuckets = pow2_at_least nbuckets 1 in
    let tx = Journal.tx j in
    let pool = Pool_impl.tx_pool tx in
    let d = Pool_impl.device pool in
    let hdr = Pool_impl.tx_alloc tx hdr_size in
    let dir = Pool_impl.tx_alloc tx (nbuckets * 8) in
    D.fill d dir (nbuckets * 8) '\000';
    D.write_int d hdr 0;
    D.write_int d (hdr + 8) nbuckets;
    D.write_int d (hdr + 16) dir;
    D.persist d hdr hdr_size;
    D.persist d dir (nbuckets * 8);
    { hdr; pool; vty }

  (* The entry holding [key] (whose word is [w]), or 0. *)
  let find_entry h w key =
    let rec go e =
      if e = 0 then 0 else if K.matches h.pool e w key then e else go (next h e)
    in
    go (head h (K.bucket w (read_nbuckets h)))

  let find h key =
    Pool_impl.check_open h.pool;
    let e = find_entry h (K.word key) key in
    if e = 0 then None else Some (Ptype.read h.vty h.pool (value_off e))

  let mem h key =
    Pool_impl.check_open h.pool;
    find_entry h (K.word key) key <> 0

  (* Double the directory and relink every entry.  Entries move between
     chains by pointer surgery only (their blocks stay put); all the
     touched words are undo-logged, so the whole rehash rolls back as a
     unit. *)
  let grow h tx =
    let old_nb = read_nbuckets h and old_dir = read_dir h in
    let nb = old_nb * 2 in
    let dir = Pool_impl.tx_alloc tx (nb * 8) in
    D.fill (dev h) dir (nb * 8) '\000';
    Pool_impl.tx_add_target tx ~off:dir ~len:(nb * 8);
    (* swap the directory in first so buckets use the new geometry *)
    Pool_impl.tx_log tx ~off:(h.hdr + 8) ~len:16;
    D.write_int (dev h) (h.hdr + 8) nb;
    D.write_int (dev h) (h.hdr + 16) dir;
    for b = 0 to old_nb - 1 do
      let rec relink e =
        if e <> 0 then begin
          let nx = next h e in
          let w = K.stored h.pool e in
          let b' = K.bucket w (read_nbuckets h) in
          Pool_impl.tx_set_int tx (e + 8) (head h b');
          Pool_impl.tx_set_int tx (head_addr h b') e;
          relink nx
        end
      in
      relink (D.read_int (dev h) (old_dir + (b * 8)))
    done;
    Pool_impl.tx_free tx old_dir

  let add h ~key v j =
    let tx = Journal.tx j in
    let w = K.word key in
    let e = find_entry h w key in
    if e <> 0 then begin
      Pool_impl.tx_log tx ~off:(value_off e) ~len:(vsize h);
      Ptype.drop h.vty tx (value_off e);
      Ptype.write h.vty h.pool (value_off e) v
    end
    else begin
      if read_count h >= 2 * read_nbuckets h then grow h tx;
      let b = K.bucket w (read_nbuckets h) in
      let owned = K.store tx key in
      let e = Pool_impl.tx_alloc tx (entry_size h) in
      K.init h.pool e w owned;
      D.write_int (dev h) (e + 8) (head h b);
      Ptype.write h.vty h.pool (value_off e) v;
      D.persist (dev h) e (entry_size h);
      Pool_impl.tx_set_int tx (head_addr h b) e;
      set_count h tx (read_count h + 1)
    end

  let remove h key j =
    let tx = Journal.tx j in
    let w = K.word key in
    let rec unlink prev e =
      if e = 0 then false
      else if K.matches h.pool e w key then begin
        Pool_impl.tx_set_int tx prev (next h e);
        K.release tx e;
        Ptype.drop h.vty tx (value_off e);
        Pool_impl.tx_free tx e;
        set_count h tx (read_count h - 1);
        true
      end
      else unlink (e + 8) (next h e)
    in
    let b = K.bucket w (read_nbuckets h) in
    unlink (head_addr h b) (head h b)

  let fold h ~init ~f =
    Pool_impl.check_open h.pool;
    let acc = ref init in
    for b = 0 to read_nbuckets h - 1 do
      let rec go e =
        if e <> 0 then begin
          acc := f !acc (K.get h.pool e) (Ptype.read h.vty h.pool (value_off e));
          go (next h e)
        end
      in
      go (head h b)
    done;
    !acc

  let iter h f = fold h ~init:() ~f:(fun () k v -> f k v)
  let keys h = List.sort compare (fold h ~init:[] ~f:(fun acc k _ -> k :: acc))

  let to_list h =
    List.sort compare (fold h ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

  (* Release every entry of the chain starting at [e]; the head word that
     points at it is the caller's. *)
  let rec drop_chain h tx e =
    if e <> 0 then begin
      let nx = next h e in
      K.release tx e;
      Ptype.drop h.vty tx (value_off e);
      Pool_impl.tx_free tx e;
      drop_chain h tx nx
    end

  (* Only a non-empty chain has a head to log and zero. *)
  let clear h j =
    let tx = Journal.tx j in
    for b = 0 to read_nbuckets h - 1 do
      let e = head h b in
      if e <> 0 then begin
        drop_chain h tx e;
        Pool_impl.tx_set_int tx (head_addr h b) 0
      end
    done;
    set_count h tx 0

  (* The directory is freed with the table, so its heads stay as they are. *)
  let drop h j =
    let tx = Journal.tx j in
    for b = 0 to read_nbuckets h - 1 do
      drop_chain h tx (head h b)
    done;
    Pool_impl.tx_free tx (read_dir h);
    Pool_impl.tx_free tx h.hdr

  let check h =
    Pool_impl.check_open h.pool;
    let n = read_count h and nb = read_nbuckets h in
    let seen = ref 0 in
    let rec chain b e steps =
      if e = 0 then Ok ()
      else if steps > n then Error "chain cycle suspected"
      else
        match K.check h.pool e with
        | Error _ as err -> err
        | Ok w when K.bucket w (read_nbuckets h) <> b ->
            Error
              (Printf.sprintf "key %s in wrong bucket %d"
                 (K.to_string (K.get h.pool e))
                 b)
        | Ok _ ->
            incr seen;
            chain b (next h e) (steps + 1)
    in
    let rec buckets b =
      if b >= nb then Ok ()
      else match chain b (head h b) 0 with Ok () -> buckets (b + 1) | e -> e
    in
    match buckets 0 with
    | Error _ as e -> e
    | Ok () ->
        if !seen <> n then Error (Printf.sprintf "count %d but %d entries" n !seen)
        else Ok ()

  (* The header's one edge is the directory; each entry block's edges are
     its key's and its value's. *)
  let edges h =
    [
      {
        Ptype.block = read_dir h;
        follow =
          (fun p ->
            let h = { h with pool = p } in
            let edges = ref [] in
            for b = 0 to read_nbuckets h - 1 do
              let rec chain e =
                if e <> 0 then begin
                  edges :=
                    {
                      Ptype.block = e;
                      follow =
                        (fun p -> K.reach p e @ Ptype.reach h.vty p (value_off e));
                    }
                    :: !edges;
                  chain (next h e)
                end
              in
              chain (head h b)
            done;
            !edges);
      };
    ]

  let handle elt =
    Ptype.handle ~name:(String.lowercase_ascii K.name) ~hdr:off ~drop ~edges
      ~wrap:(fun pool hdr vty -> { hdr; pool; vty })
      elt

  let ptype inner = handle (Ptype.Of inner)
  let ptype_rec inner = handle (Ptype.Of_rec inner)
end
