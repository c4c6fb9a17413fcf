(* Characterisation pins for the typed containers.

   Each container runs a fixed seeded script (make, inserts past at least
   one growth, a replace, a remove, iteration, a crash and reopen, and a
   leak check).  The test pins what the script leaves behind: the CRC-32
   of the whole device image and the device's load, store, flush and
   fence counters.  A refactor of the container layer that claims to
   issue the same device operations must leave every pin unchanged.
   The descriptor names and hashes are pinned too: [Ptype.hash] of the
   root type is stored in the pool header, so a renamed descriptor would
   make existing pool files refuse to open. *)

open Corundum
module D = Pmem.Device

let small =
  { Pool_impl.size = 1024 * 1024; nslots = 2; slot_size = 64 * 1024 }

type pin = { crc : int; loads : int; stores : int; flushes : int; fences : int }

let pp_pin ppf p =
  Format.fprintf ppf "{ crc = 0x%08x; loads = %d; stores = %d; flushes = %d; fences = %d }"
    p.crc p.loads p.stores p.flushes p.fences

let pin = Alcotest.testable pp_pin ( = )

(* Counters first: reading the image is itself one load. *)
let measure impl =
  let d = Pool_impl.device impl in
  let s = D.stats d in
  let img = D.read_bytes d 0 (D.size d) in
  {
    crc = Pmem.Crc32.bytes img;
    loads = s.D.loads;
    stores = s.D.stores;
    flushes = s.D.flushes;
    fences = s.D.fences;
  }

let keys seed n bound =
  let rng = Random.State.make [| seed |] in
  List.init n (fun _ -> Random.State.int rng bound)

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take i acc = function
        | x :: rest when i < n -> take (i + 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take 0 [] l in
      c :: chunks n rest

let check_ok what = function Ok () -> () | Error e -> Alcotest.failf "%s: %s" what e

(* {1 Keyed containers} *)

(* One script for every int-keyed map: 60 random keys in transactions of
   ten (past the first growth), a replace, two removes, a fold, a crash
   and reopen, and a leak check. *)
let int_map_script (type b) (module P : Pool.S with type brand = b) ~ty ~make
    ~add ~remove ~fold ~check =
  P.create ~config:small ();
  let root () = P.root ~ty ~init:make () in
  let m = Pbox.get (root ()) in
  List.iter
    (fun ks -> P.transaction (fun j -> List.iter (fun k -> add m k (k * 3) j) ks))
    (chunks 10 (keys 7 60 500));
  let k0 = List.hd (keys 7 1 500) in
  P.transaction (fun j -> add m k0 (-1) j);
  ignore (P.transaction (fun j -> remove m k0 j));
  ignore (P.transaction (fun j -> remove m 100_000 j));
  ignore (fold m);
  P.crash_and_reopen ();
  let m = Pbox.get (root ()) in
  ignore (fold m);
  check_ok "check" (check m);
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:ty;
  measure (P.impl ())

let phashtbl_script () =
  let module P = Pool.Make () in
  int_map_script (module P)
    ~ty:(Phashtbl.ptype Ptype.int)
    ~make:(fun j -> Phashtbl.make ~vty:Ptype.int ~nbuckets:4 j)
    ~add:(fun h k v j -> Phashtbl.add h ~key:k v j)
    ~remove:Phashtbl.remove
    ~fold:(fun h -> Phashtbl.fold h ~init:0 ~f:(fun a k v -> a + k + v))
    ~check:Phashtbl.check

let pmap_script () =
  let module P = Pool.Make () in
  int_map_script (module P)
    ~ty:(Pmap.ptype Ptype.int)
    ~make:(fun j -> Pmap.make ~vty:Ptype.int j)
    ~add:(fun m k v j -> Pmap.add m ~key:k v j)
    ~remove:Pmap.remove
    ~fold:(fun m -> Pmap.fold m ~init:0 ~f:(fun a k v -> a + k + v))
    ~check:Pmap.check

let pbtree_script () =
  let module P = Pool.Make () in
  int_map_script (module P)
    ~ty:(Pbtree.ptype Ptype.int)
    ~make:(fun j -> Pbtree.make ~vty:Ptype.int j)
    ~add:(fun t k v j -> Pbtree.add t ~key:k v j)
    ~remove:Pbtree.remove
    ~fold:(fun t -> Pbtree.fold t ~init:0 ~f:(fun a k v -> a + k + v))
    ~check:Pbtree.check

let pstrmap_script () =
  let module P = Pool.Make () in
  let key k = Printf.sprintf "key-%d" k in
  int_map_script (module P)
    ~ty:(Pstrmap.ptype Ptype.int)
    ~make:(fun j -> Pstrmap.make ~vty:Ptype.int ~nbuckets:4 j)
    ~add:(fun h k v j -> Pstrmap.add h ~key:(key k) v j)
    ~remove:(fun h k j -> Pstrmap.remove h (key k) j)
    ~fold:(fun h ->
      Pstrmap.fold h ~init:0 ~f:(fun a k v -> a + String.length k + v))
    ~check:Pstrmap.check

(* {1 Sequences} *)

let pvec_script () =
  let module P = Pool.Make () in
  let ty = Pvec.ptype Ptype.int in
  P.create ~config:small ();
  let root () = P.root ~ty ~init:(fun j -> Pvec.make ~ty:Ptype.int ~capacity:4 j) () in
  let v = Pbox.get (root ()) in
  List.iter
    (fun ks -> P.transaction (fun j -> List.iter (fun k -> Pvec.push v k j) ks))
    (chunks 10 (keys 11 40 1000));
  P.transaction (fun j -> Pvec.set v 3 (-1) j);
  P.transaction (fun j -> Pvec.insert_at v 5 77 j);
  ignore (P.transaction (fun j -> Pvec.remove_at v 2 j));
  ignore (P.transaction (fun j -> Pvec.pop v j));
  ignore (Pvec.fold v ~init:0 ~f:( + ));
  P.crash_and_reopen ();
  let v = Pbox.get (root ()) in
  ignore (Pvec.fold v ~init:0 ~f:( + ));
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:ty;
  measure (P.impl ())

let pqueue_script () =
  let module P = Pool.Make () in
  let ty = Pqueue.ptype Ptype.int in
  P.create ~config:small ();
  let root () = P.root ~ty ~init:(fun j -> Pqueue.make ~ty:Ptype.int ~capacity:4 j) () in
  let q = Pbox.get (root ()) in
  P.transaction (fun j ->
      List.iter (fun k -> Pqueue.push q k j) (keys 13 3 1000);
      ignore (Pqueue.pop q j));
  List.iter
    (fun ks -> P.transaction (fun j -> List.iter (fun k -> Pqueue.push q k j) ks))
    (chunks 10 (keys 13 40 1000));
  ignore (P.transaction (fun j -> Pqueue.pop q j));
  ignore (Pqueue.fold q ~init:0 ~f:( + ));
  P.crash_and_reopen ();
  let q = Pbox.get (root ()) in
  ignore (Pqueue.fold q ~init:0 ~f:( + ));
  P.transaction (fun j -> Pqueue.clear q j);
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:ty;
  measure (P.impl ())

let pstack_script () =
  let module P = Pool.Make () in
  let ty = Pstack.ptype Ptype.int in
  P.create ~config:small ();
  let root () = P.root ~ty ~init:(fun j -> Pstack.make ~ty:Ptype.int j) () in
  let s = Pbox.get (root ()) in
  List.iter
    (fun ks -> P.transaction (fun j -> List.iter (fun k -> Pstack.push s k j) ks))
    (chunks 10 (keys 17 40 1000));
  ignore (P.transaction (fun j -> Pstack.pop s j));
  ignore (P.transaction (fun j -> Pstack.pop s j));
  ignore (Pstack.to_list s);
  P.crash_and_reopen ();
  let s = Pbox.get (root ()) in
  ignore (Pstack.recover s);
  ignore (Pstack.to_list s);
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:ty;
  measure (P.impl ())

(* A box of a box: every [set] replaces (and so drops) the inner box
   through the pointer-field descriptor. *)
let pbox_script () =
  let module P = Pool.Make () in
  let ty = Pbox.ptype (Pbox.ptype Ptype.int) in
  P.create ~config:small ();
  let root () =
    P.root ~ty
      ~init:(fun j -> Pbox.make ~ty:(Pbox.ptype Ptype.int) (Pbox.make ~ty:Ptype.int 0 j) j)
      ()
  in
  let r = Pbox.get (root ()) in
  List.iter
    (fun k ->
      P.transaction (fun j ->
          Pbox.set r (Pbox.make ~ty:Ptype.int k j) j;
          Pbox.modify (Pbox.get r) j (fun x -> x + 1)))
    (keys 19 30 1000);
  P.transaction (fun j -> Pbox.drop (Pbox.pclone (Pbox.get r) j) j);
  ignore (Pbox.get (Pbox.get r));
  P.crash_and_reopen ();
  ignore (Pbox.get (Pbox.get (Pbox.get (root ()))));
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:ty;
  measure (P.impl ())

let pbytes_script () =
  let module P = Pool.Make () in
  let ty = Pbytes.ptype () in
  P.create ~config:small ();
  let root () = P.root ~ty ~init:(fun j -> Pbytes.make ~capacity:8 j) () in
  let b = Pbox.get (root ()) in
  List.iter
    (fun k -> P.transaction (fun j -> Pbytes.append b (string_of_int k) j))
    (keys 23 30 100_000);
  P.transaction (fun j -> Pbytes.set b 2 'x' j);
  P.transaction (fun j -> Pbytes.truncate b 40 j);
  ignore (Pbytes.to_string b);
  P.crash_and_reopen ();
  ignore (Pbytes.to_string (Pbox.get (root ())));
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:ty;
  measure (P.impl ())

let plog_script () =
  let module P = Pool.Make () in
  let ty = Plog.ptype () in
  P.create ~config:small ();
  let root () = P.root ~ty ~init:(fun j -> Plog.make ~capacity:8 j) () in
  let l = Pbox.get (root ()) in
  List.iter
    (fun ks ->
      P.transaction (fun j -> List.iter (fun k -> Plog.append l (string_of_int k) j) ks))
    (chunks 5 (keys 29 30 100_000));
  ignore (Plog.to_list l);
  P.crash_and_reopen ();
  let l = Pbox.get (root ()) in
  ignore (Plog.to_list l);
  P.transaction (fun j -> Plog.truncate l j);
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:ty;
  measure (P.impl ())

let pinned name expected script () =
  Alcotest.check pin name expected (script ())

let scripts =
  [
    ( "pbox",
      { crc = 0x1ffa299b; loads = 639; stores = 873; flushes = 668; fences = 229 },
      pbox_script);
    ( "pvec",
      { crc = 0xc6eb1df8; loads = 775; stores = 493; flushes = 452; fences = 93 },
      pvec_script);
    ( "pqueue",
      { crc = 0xa042cb19; loads = 1402; stores = 558; flushes = 432; fences = 92 },
      pqueue_script);
    ( "pmap",
      { crc = 0x2ab4d00e; loads = 5638; stores = 2727; flushes = 1026; fences = 433 },
      pmap_script);
    ( "pbtree",
      { crc = 0x84fc9483; loads = 3114; stores = 2773; flushes = 1046; fences = 448 },
      pbtree_script);
    ( "pstack",
      { crc = 0xf5d44f68; loads = 1179; stores = 463; flushes = 469; fences = 58 },
      pstack_script);
    ( "phashtbl",
      { crc = 0xc44e0811; loads = 2648; stores = 1551; flushes = 773; fences = 297 },
      phashtbl_script);
    ( "pstrmap",
      { crc = 0xa3fb429e; loads = 3170; stores = 2028; flushes = 917; fences = 415 },
      pstrmap_script);
    ( "pbytes",
      { crc = 0x004ed13d; loads = 510; stores = 495; flushes = 473; fences = 117 },
      pbytes_script);
    ( "plog",
      { crc = 0x89b3b849; loads = 1019; stores = 368; flushes = 390; fences = 55 },
      plog_script);
  ]

(* {1 Descriptor names and hashes} *)

let descriptor name ty expected_name expected_hash =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) (name ^ " name") expected_name (Ptype.name ty);
      Alcotest.(check int) (name ^ " hash") expected_hash (Ptype.hash ty))

let i = Ptype.int
let li = lazy Ptype.int

let descriptors =
  [
    descriptor "pbox" (Pbox.ptype i) "int pbox" 122833001;
    descriptor "pbox rec" (Pbox.ptype_rec li) "pbox" 1016867230;
    descriptor "pvec" (Pvec.ptype i) "int pvec" 122854430;
    descriptor "pvec rec" (Pvec.ptype_rec li) "pvec" 1016888659;
    descriptor "pqueue" (Pqueue.ptype i) "int pqueue" 639139621;
    descriptor "pqueue rec" (Pqueue.ptype_rec li) "pqueue" 358580634;
    descriptor "pmap" (Pmap.ptype i) "int pmap" 122844510;
    descriptor "pmap rec" (Pmap.ptype_rec li) "pmap" 1016878739;
    descriptor "pbtree" (Pbtree.ptype i) "int pbtree" 621328498;
    descriptor "pbtree rec" (Pbtree.ptype_rec li) "pbtree" 340769511;
    descriptor "pstack" (Pstack.ptype i) "int pstack" 641470582;
    descriptor "pstack rec" (Pstack.ptype_rec li) "pstack" 360911595;
    descriptor "phashtbl" (Phashtbl.ptype i) "int phashtbl" 733483014;
    descriptor "phashtbl rec" (Phashtbl.ptype_rec li) "phashtbl" 147424187;
    descriptor "pstrmap" (Pstrmap.ptype i) "int pstrmap" 768056151;
    descriptor "pstrmap rec" (Pstrmap.ptype_rec li) "pstrmap" 99544172;
    descriptor "pbytes" (Pbytes.ptype ()) "pbytes" 340951388;
    descriptor "plog" (Plog.ptype ()) "plog" 1016878103;
    descriptor "pstring" (Pstring.ptype ()) "pstring" 99540236;
  ]

let () =
  Alcotest.run "corundum_container_pins"
    [
      ( "script",
        List.map
          (fun (name, expected, script) ->
            Alcotest.test_case name `Quick (pinned name expected script))
          scripts );
      ("descriptor", descriptors);
    ]
