module D = Pmem.Device

type edge = { block : int; follow : Pool_impl.t -> edge list }

type ('a, 'p) t = {
  name : string;
  size : int;
  read : Pool_impl.t -> int -> 'a;
  write : Pool_impl.t -> int -> 'a -> unit;
  drop : Pool_impl.tx -> int -> unit;
  reach : Pool_impl.t -> int -> edge list;
}

let name t = t.name
let size t = t.size
let read t = t.read
let write t = t.write
let drop t = t.drop
let reach t = t.reach

(* A stable (non-randomized) string hash, so root-type hashes stored in
   pool files keep their meaning across runs. *)
let hash t =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) t.name;
  !h

let no_drop (_ : Pool_impl.tx) (_ : int) = ()
let no_reach (_ : Pool_impl.t) (_ : int) = []

let make ~name ~size ~read ~write ~drop ~reach =
  if size < 0 || size mod 8 <> 0 then
    invalid_arg (Printf.sprintf "Ptype.make %s: size %d not a multiple of 8" name size);
  { name; size; read; write; drop; reach }

let dev p = Pool_impl.device p

let scalar name rd wr =
  { name; size = 8; read = rd; write = wr; drop = no_drop; reach = no_reach }

let unit =
  {
    name = "unit";
    size = 0;
    read = (fun _ _ -> ());
    write = (fun _ _ () -> ());
    drop = no_drop;
    reach = no_reach;
  }

let int =
  scalar "int"
    (fun p off -> D.read_int (dev p) off)
    (fun p off v -> D.write_int (dev p) off v)

let int64 =
  scalar "int64"
    (fun p off -> D.read_u64 (dev p) off)
    (fun p off v -> D.write_u64 (dev p) off v)

let bool =
  scalar "bool"
    (fun p off -> D.read_int (dev p) off <> 0)
    (fun p off v -> D.write_int (dev p) off (if v then 1 else 0))

let char =
  scalar "char"
    (fun p off -> Char.chr (D.read_int (dev p) off land 0xFF))
    (fun p off v -> D.write_int (dev p) off (Char.code v))

let float =
  scalar "float"
    (fun p off -> Int64.float_of_bits (D.read_u64 (dev p) off))
    (fun p off v -> D.write_u64 (dev p) off (Int64.bits_of_float v))

let pair a b =
  {
    name = Printf.sprintf "(%s * %s)" a.name b.name;
    size = a.size + b.size;
    read = (fun p off -> (a.read p off, b.read p (off + a.size)));
    write =
      (fun p off (x, y) ->
        a.write p off x;
        b.write p (off + a.size) y);
    drop =
      (fun tx off ->
        a.drop tx off;
        b.drop tx (off + a.size));
    reach = (fun p off -> a.reach p off @ b.reach p (off + a.size));
  }

let triple a b c =
  let abc = pair a (pair b c) in
  {
    abc with
    name = Printf.sprintf "(%s * %s * %s)" a.name b.name c.name;
    read = (fun p off -> let x, (y, z) = abc.read p off in (x, y, z));
    write = (fun p off (x, y, z) -> abc.write p off (x, (y, z)));
  }

let option a =
  {
    name = Printf.sprintf "%s option" a.name;
    size = 8 + a.size;
    read =
      (fun p off ->
        if D.read_int (dev p) off = 0 then None
        else Some (a.read p (off + 8)));
    write =
      (fun p off v ->
        match v with
        | None ->
            D.write_int (dev p) off 0;
            if a.size > 0 then D.fill (dev p) (off + 8) a.size '\000'
        | Some x ->
            D.write_int (dev p) off 1;
            a.write p (off + 8) x);
    drop =
      (fun tx off ->
        let p = Pool_impl.tx_pool tx in
        if D.read_int (dev p) off <> 0 then a.drop tx (off + 8));
    reach =
      (fun p off ->
        if D.read_int (dev p) off <> 0 then a.reach p (off + 8) else []);
  }

let either a b =
  let payload = max a.size b.size in
  let zero_tail p off used =
    if payload > used then D.fill (dev p) (off + 8 + used) (payload - used) '\000'
  in
  {
    name = Printf.sprintf "(%s, %s) either" a.name b.name;
    size = 8 + payload;
    read =
      (fun p off ->
        if D.read_int (dev p) off = 0 then Either.Left (a.read p (off + 8))
        else Either.Right (b.read p (off + 8)));
    write =
      (fun p off v ->
        match v with
        | Either.Left x ->
            D.write_int (dev p) off 0;
            a.write p (off + 8) x;
            zero_tail p off a.size
        | Either.Right y ->
            D.write_int (dev p) off 1;
            b.write p (off + 8) y;
            zero_tail p off b.size);
    drop =
      (fun tx off ->
        let p = Pool_impl.tx_pool tx in
        if D.read_int (dev p) off = 0 then a.drop tx (off + 8)
        else b.drop tx (off + 8));
    reach =
      (fun p off ->
        if D.read_int (dev p) off = 0 then a.reach p (off + 8)
        else b.reach p (off + 8));
  }

let pad8 n = (n + 7) land lnot 7

let fixed_string n =
  if n < 0 then invalid_arg "Ptype.fixed_string: negative capacity";
  {
    name = Printf.sprintf "string[%d]" n;
    size = 8 + pad8 n;
    read =
      (fun p off ->
        let len = D.read_int (dev p) off in
        D.read_string (dev p) (off + 8) len);
    write =
      (fun p off s ->
        let len = String.length s in
        if len > n then
          invalid_arg
            (Printf.sprintf "fixed_string[%d]: value of length %d" n len);
        D.write_int (dev p) off len;
        if len > 0 then D.write_string (dev p) (off + 8) s);
    drop = no_drop;
    reach = no_reach;
  }

let array n a =
  if n < 0 then invalid_arg "Ptype.array: negative length";
  {
    name = Printf.sprintf "%s[%d]" a.name n;
    size = n * a.size;
    read = (fun p off -> Array.init n (fun i -> a.read p (off + (i * a.size))));
    write =
      (fun p off v ->
        if Array.length v <> n then
          invalid_arg
            (Printf.sprintf "array[%d]: value of length %d" n (Array.length v));
        Array.iteri (fun i x -> a.write p (off + (i * a.size)) x) v);
    drop =
      (fun tx off ->
        for i = 0 to n - 1 do
          a.drop tx (off + (i * a.size))
        done);
    reach =
      (fun p off ->
        List.concat (List.init n (fun i -> a.reach p (off + (i * a.size)))));
  }

let map ?name:n ~to_ ~of_ a =
  {
    a with
    name = Option.value ~default:a.name n;
    read = (fun p off -> to_ (a.read p off));
    write = (fun p off v -> a.write p off (of_ v));
  }

let record2 ~name ~inj ~proj a b =
  map ~name ~to_:(fun (x, y) -> inj x y) ~of_:proj (pair a b)

let record3 ~name ~inj ~proj a b c =
  map ~name
    ~to_:(fun (x, (y, z)) -> inj x y z)
    ~of_:(fun r ->
      let x, y, z = proj r in
      (x, (y, z)))
    (pair a (pair b c))

let record4 ~name ~inj ~proj a b c d =
  map ~name
    ~to_:(fun (x, (y, (z, w))) -> inj x y z w)
    ~of_:(fun r ->
      let x, y, z, w = proj r in
      (x, (y, (z, w))))
    (pair a (pair b (pair c d)))

let record5 ~name ~inj ~proj a b c d e =
  map ~name
    ~to_:(fun (x, (y, (z, (w, v)))) -> inj x y z w v)
    ~of_:(fun r ->
      let x, y, z, w, v = proj r in
      (x, (y, (z, (w, v)))))
    (pair a (pair b (pair c (pair d e))))

let record6 ~name ~inj ~proj a b c d e g =
  map ~name
    ~to_:(fun (x, (y, (z, (w, (v, u))))) -> inj x y z w v u)
    ~of_:(fun r ->
      let x, y, z, w, v, u = proj r in
      (x, (y, (z, (w, (v, u))))))
    (pair a (pair b (pair c (pair d (pair e g)))))

type ('a, 'p) elt = Of of ('a, 'p) t | Of_rec of ('a, 'p) t Lazy.t

(* The one pointer-field format of every container: an 8-byte offset to
   the container's header block, 0 for none. *)
let handle ~name ~wrap ~hdr ~drop ~edges elt =
  let name, elt_of =
    match elt with
    | Of ty -> (Printf.sprintf "%s %s" ty.name name, fun () -> ty)
    | Of_rec ty -> (name, fun () -> Lazy.force ty)
  in
  let target pool off = D.read_int (dev pool) off in
  {
    name;
    size = 8;
    read = (fun pool off -> wrap pool (target pool off) (elt_of ()));
    write = (fun pool off h -> D.write_int (dev pool) off (hdr h));
    drop =
      (fun tx off ->
        let pool = Pool_impl.tx_pool tx in
        let b = target pool off in
        if b <> 0 then drop (wrap pool b (elt_of ())) (Journal.unsafe_of_tx tx));
    reach =
      (fun pool off ->
        let b = target pool off in
        if b = 0 then []
        else [ { block = b; follow = (fun p -> edges (wrap p b (elt_of ()))) } ]);
  }

let field_offsets tys =
  let rec go acc off = function
    | [] -> List.rev acc
    | ty :: rest -> go (off :: acc) (off + ty.size) rest
  in
  go [] 0 tys
