(* Tests for the typed Corundum core: pools, roots, transactions, Ptype
   combinators, and the Pbox pointer. *)

open Corundum

let small =
  { Pool_impl.size = 2 * 1024 * 1024; nslots = 2; slot_size = 64 * 1024 }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Each test gets its own brand via a locally applied generative functor. *)

let test_lifecycle () =
  let module P = Pool.Make () in
  check_bool "closed initially" false (P.is_open ());
  P.create ~config:small ();
  check_bool "open after create" true (P.is_open ());
  Alcotest.match_raises "double open"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> P.create ~config:small ());
  P.close ();
  check_bool "closed" false (P.is_open ());
  Alcotest.check_raises "transaction on closed pool" Pool_impl.Pool_closed
    (fun () -> P.transaction (fun _ -> ()))

(* A logged word update (begin, undo-log one word, store, commit) stays
   under a fixed allocation budget: the journal's commit line buffers
   and the device's WPQ are reused, and begin/end take no pool table. *)
let test_word_update_allocs () =
  let pool = Pool_impl.create ~config:small () in
  let off = Pool_impl.transaction pool (fun tx -> Pool_impl.tx_alloc tx 64) in
  let update v = Pool_impl.transaction pool (fun tx -> Pool_impl.tx_set_int tx off v) in
  for v = 1 to 100 do
    update v
  done;
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for v = 1 to n do
    update v
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  check_int "last value" n (Pmem.Device.read_int (Pool_impl.device pool) off);
  if words > 150. then
    Alcotest.failf "a logged word-update transaction allocated %.1f minor words" words

(* Each further logged range costs a few minor words: the journal's
   dedup sets are keyed by plain ints, with no boxed key or bucket per
   range.  A transaction logging 9 words on distinct lines took 201
   words when the dedup table boxed an (off, len) key. *)
let test_logged_ranges_allocs () =
  let pool = Pool_impl.create ~config:small () in
  let off = Pool_impl.transaction pool (fun tx -> Pool_impl.tx_alloc tx 1024) in
  let update v =
    Pool_impl.transaction pool (fun tx ->
        for i = 0 to 8 do
          Pool_impl.tx_set_int tx (off + (64 * i)) v
        done)
  in
  for v = 1 to 100 do
    update v
  done;
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for v = 1 to n do
    update v
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  check_int "last value" n (Pmem.Device.read_int (Pool_impl.device pool) (off + 512));
  if words > 100. then
    Alcotest.failf "a transaction logging 9 words allocated %.1f minor words" words

let test_file_roundtrip () =
  let path = Filename.temp_file "corundum" ".pool" in
  Sys.remove path;
  let module P = Pool.Make () in
  P.load_or_create ~config:small path;
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 11) () in
  P.transaction (fun j -> Pbox.set root 99 j);
  P.close () (* saves *);
  let module Q = Pool.Make () in
  Q.load_or_create ~config:small path;
  let root = Q.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
  check_int "value persisted across processes" 99 (Pbox.get root);
  Q.close ();
  Sys.remove path

let test_root_type_mismatch () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 1) ());
  Alcotest.match_raises "root type mismatch"
    (function Pool.Root_type_mismatch _ -> true | _ -> false)
    (fun () -> ignore (P.root ~ty:Ptype.float ~init:(fun _ -> 1.0) ()))

let test_transaction_basics () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
  let r = P.transaction (fun j -> Pbox.set root 5 j; "ret") in
  Alcotest.(check string) "returns body value" "ret" r;
  check_int "committed" 5 (Pbox.get root);
  (* Abort on exception. *)
  (try
     P.transaction (fun j ->
         Pbox.set root 6 j;
         failwith "panic")
   with Failure _ -> ());
  check_int "rolled back" 5 (Pbox.get root)

let test_nested_flattening () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
  (* Inner "transaction" is flattened; an abort anywhere undoes all. *)
  (try
     P.transaction (fun j ->
         Pbox.set root 1 j;
         P.transaction (fun j' -> Pbox.set root 2 j');
         failwith "outer panic")
   with Failure _ -> ());
  check_int "nested changes rolled back too" 0 (Pbox.get root);
  P.transaction (fun j ->
      Pbox.set root 1 j;
      P.transaction (fun j' -> Pbox.set root 2 j'));
  check_int "nested commit" 2 (Pbox.get root)

let test_journal_escape () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
  let smuggled = P.transaction (fun j -> j) in
  Alcotest.check_raises "escaped journal rejected" Pool_impl.Tx_escape
    (fun () -> Pbox.set root 1 smuggled);
  (* A guard smuggled out is equally dead. *)
  let cell_ty = Ptype.option Ptype.int in
  let broot =
    P.root ~ty:Ptype.int ~init:(fun _ -> 0) () |> fun _ ->
    P.transaction (fun j -> Pbox.make ~ty:(Prefcell.ptype cell_ty)
                              (Prefcell.make ~ty:cell_ty None) j)
  in
  let guard =
    P.transaction (fun j -> Prefcell.borrow_mut (Pbox.get broot) j)
  in
  Alcotest.check_raises "escaped guard rejected" Pool_impl.Tx_escape (fun () ->
      Prefcell.deref_set guard (Some 3))

let test_derefmut_first_logs_only () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
  P.transaction (fun j ->
      let jr = Pool_impl.tx_journal (Journal.tx j) in
      let n0 = Pjournal.Journal_impl.entry_count jr in
      Pbox.set root 1 j;
      let n1 = Pjournal.Journal_impl.entry_count jr in
      Pbox.set root 2 j;
      Pbox.set root 3 j;
      let n2 = Pjournal.Journal_impl.entry_count jr in
      check_int "first set logs once" (n0 + 1) n1;
      check_int "later sets are log-free" n1 n2);
  check_int "final value" 3 (Pbox.get root)

let test_txnop_touches_no_pm () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let dev = Pool_impl.device (P.impl ()) in
  let p0 = Pmem.Device.persist_points dev in
  P.transaction (fun _ -> ());
  check_int "empty transaction persists nothing" p0
    (Pmem.Device.persist_points dev)

let test_crash_reopen_typed () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 1 ) () in
  P.transaction (fun j -> Pbox.set root 7 j);
  P.crash_and_reopen ();
  Alcotest.check_raises "stale handle rejected" Pool_impl.Pool_closed
    (fun () -> ignore (Pbox.get root));
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
  check_int "value survived crash" 7 (Pbox.get root)

let test_root_migration () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  (* v1 schema: a bare counter *)
  let v1 = P.root ~ty:Ptype.int ~init:(fun _ -> 7) () in
  ignore v1;
  (* v2 schema: counter plus a label *)
  let v2_ty = Ptype.pair Ptype.int (Pstring.ptype ()) in
  let v2 =
    P.migrate_root ~from_ty:Ptype.int ~to_ty:v2_ty
      ~f:(fun old j -> (old, Pstring.make "migrated" j))
      ()
  in
  let n, label = Pbox.get v2 in
  check_int "old value carried over" 7 n;
  Alcotest.(check string) "new field" "migrated" (Pstring.get label);
  (* idempotent: calling again returns the v2 root unchanged *)
  let v2' =
    P.migrate_root ~from_ty:Ptype.int ~to_ty:v2_ty
      ~f:(fun _ _ -> Alcotest.fail "migration must not re-run")
      ()
  in
  check_bool "same root" true (Pbox.equal v2 v2');
  (* the old schema no longer matches *)
  Alcotest.match_raises "stale from_ty rejected"
    (function Pool.Root_type_mismatch _ -> true | _ -> false)
    (fun () ->
      ignore
        (P.migrate_root ~from_ty:Ptype.float ~to_ty:Ptype.int
           ~f:(fun _ _ -> 0)
           ()));
  (* migration survives a crash and leaks nothing *)
  P.crash_and_reopen ();
  let v2 = P.root ~ty:v2_ty ~init:(fun _ -> assert false) () in
  let n, label = Pbox.get v2 in
  check_int "migrated value durable" 7 n;
  Alcotest.(check string) "label durable" "migrated" (Pstring.get label);
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:v2_ty

(* --- Ptype ------------------------------------------------------------ *)

(* Descriptors polymorphic in the pool brand, so one helper can mint a
   fresh pool per call.  (The brand itself cannot escape a [Pool.Make]
   boundary — the compiler enforces it — hence the explicitly polymorphic
   record field.) *)
type 'a poly_ty = { ty : 'p. unit -> ('a, 'p) Ptype.t }

let roundtrip (type a) (pty : a poly_ty) (eq : a -> a -> bool) (v : a) =
  let module P = Pool.Make () in
  P.create ~config:small ();
  P.transaction (fun j ->
      let b = Pbox.make ~ty:(pty.ty ()) v j in
      eq (Pbox.get b) v)

let test_scalar_roundtrips () =
  check_bool "int" true (roundtrip { ty = (fun () -> Ptype.int) } ( = ) 12345);
  check_bool "negative int" true (roundtrip { ty = (fun () -> Ptype.int) } ( = ) (-99));
  check_bool "int64" true (roundtrip { ty = (fun () -> Ptype.int64) } Int64.equal 0x7FFFFFFFFFFFFFFFL);
  check_bool "bool" true (roundtrip { ty = (fun () -> Ptype.bool) } ( = ) true);
  check_bool "char" true (roundtrip { ty = (fun () -> Ptype.char) } ( = ) 'z');
  check_bool "float" true (roundtrip { ty = (fun () -> Ptype.float) } ( = ) 3.14159);
  check_bool "pair" true (roundtrip { ty = (fun () -> Ptype.(pair int float)) } ( = ) (1, 2.0));
  check_bool "triple" true
    (roundtrip { ty = (fun () -> Ptype.(triple int bool char)) } ( = ) (4, false, 'q'));
  check_bool "option some" true (roundtrip { ty = (fun () -> Ptype.(option int)) } ( = ) (Some 3));
  check_bool "option none" true (roundtrip { ty = (fun () -> Ptype.(option int)) } ( = ) None);
  check_bool "nested option" true
    (roundtrip { ty = (fun () -> Ptype.(option (option int))) } ( = ) (Some None));
  check_bool "array" true
    (roundtrip { ty = (fun () -> Ptype.(array 4 int)) } ( = ) [| 1; 2; 3; 4 |]);
  check_bool "fixed_string" true
    (roundtrip { ty = (fun () -> Ptype.fixed_string 16) } String.equal "hello")

let test_record_combinators () =
  let mk_ty () =
    Ptype.record3 ~name:"point" ~inj:(fun x y z -> (x, y, z))
      ~proj:(fun (x, y, z) -> (x, y, z))
      Ptype.int Ptype.float Ptype.bool
  in
  check_bool "record3" true (roundtrip { ty = mk_ty } ( = ) (7, 1.5, true));
  check_int "record footprint" 24 (Ptype.size (mk_ty ()));
  Alcotest.(check (list int))
    "field offsets" [ 0; 8; 16 ]
    (Ptype.field_offsets [ Ptype.int; Ptype.int; Ptype.int ])

let test_ptype_bounds () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  (P.transaction (fun j ->
          let b = Pbox.make ~ty:(Ptype.fixed_string 4) "ab" j in
          Alcotest.match_raises "overlong fixed string"
            (function Invalid_argument _ -> true | _ -> false)
            (fun () -> Pbox.set b "toolong" j);
          let arr = Pbox.make ~ty:Ptype.(array 2 int) [| 1; 2 |] j in
          Alcotest.match_raises "wrong array length"
            (function Invalid_argument _ -> true | _ -> false)
            (fun () -> Pbox.set arr [| 1 |] j)))

let test_ptype_hash_stable () =
  check_int "hash is stable across calls" (Ptype.hash Ptype.int)
    (Ptype.hash Ptype.int);
  check_bool "distinct names hash apart" true
    (Ptype.hash Ptype.int <> Ptype.hash Ptype.float)

let qcheck_int_roundtrip =
  QCheck.Test.make ~name:"ptype int roundtrip" ~count:100 QCheck.int (fun v ->
      roundtrip { ty = (fun () -> Ptype.int) } ( = ) v)

let qcheck_pair_roundtrip =
  QCheck.Test.make ~name:"ptype (int*bool) option roundtrip" ~count:100
    QCheck.(option (pair int bool))
    (fun v -> roundtrip { ty = (fun () -> Ptype.(option (pair int bool))) } ( = ) v)

let qcheck_string_roundtrip =
  QCheck.Test.make ~name:"ptype fixed_string roundtrip" ~count:100
    QCheck.(string_of_size Gen.(int_bound 32))
    (fun v -> roundtrip { ty = (fun () -> Ptype.fixed_string 32) } String.equal v)

(* --- Pbox ------------------------------------------------------------- *)

let test_pbox_drop_frees () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let live () = (P.stats ()).Pool_impl.live_blocks in
  let baseline = live () in
  P.transaction (fun j ->
      let b = Pbox.make ~ty:Ptype.int 9 j in
      check_int "one more block" (baseline + 1) (live ());
      Pbox.drop b j;
      (* deferred: still allocated until commit *)
      check_int "free deferred" (baseline + 1) (live ()));
  check_int "freed after commit" baseline (live ())

let test_pbox_set_drops_old_pointee () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
  let ty = Ptype.option (Pbox.ptype Ptype.int) in
  let live () = (P.stats ()).Pool_impl.live_blocks in
  let baseline = live () in
  P.transaction (fun j ->
      let inner1 = Pbox.make ~ty:Ptype.int 1 j in
      let outer = Pbox.make ~ty (Some inner1) j in
      let inner2 = Pbox.make ~ty:Ptype.int 2 j in
      Pbox.set outer (Some inner2) j;
      Pbox.drop outer j);
  check_int "replaced pointee reclaimed" baseline (live ())

let test_pbox_equal () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  (P.transaction (fun j ->
          let a = Pbox.make ~ty:Ptype.int 1 j in
          let b = Pbox.make ~ty:Ptype.int 1 j in
          check_bool "distinct boxes differ" false (Pbox.equal a b);
          check_bool "box equals itself" true (Pbox.equal a a)))

let () =
  Alcotest.run "corundum_core"
    [
      ( "pool",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "root type mismatch" `Quick test_root_type_mismatch;
          Alcotest.test_case "crash+reopen typed" `Quick test_crash_reopen_typed;
          Alcotest.test_case "root migration" `Quick test_root_migration;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "basics" `Quick test_transaction_basics;
          Alcotest.test_case "nested flattening" `Quick test_nested_flattening;
          Alcotest.test_case "journal escape" `Quick test_journal_escape;
          Alcotest.test_case "derefmut logs once" `Quick
            test_derefmut_first_logs_only;
          Alcotest.test_case "txnop touches no PM" `Quick test_txnop_touches_no_pm;
          Alcotest.test_case "word update allocs" `Quick test_word_update_allocs;
          Alcotest.test_case "logged ranges allocs" `Quick test_logged_ranges_allocs;
        ] );
      ( "ptype",
        [
          Alcotest.test_case "scalar roundtrips" `Quick test_scalar_roundtrips;
          Alcotest.test_case "record combinators" `Quick test_record_combinators;
          Alcotest.test_case "bounds" `Quick test_ptype_bounds;
          Alcotest.test_case "hash stable" `Quick test_ptype_hash_stable;
          QCheck_alcotest.to_alcotest qcheck_int_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_pair_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_string_roundtrip;
        ] );
      ( "pbox",
        [
          Alcotest.test_case "drop frees" `Quick test_pbox_drop_frees;
          Alcotest.test_case "set drops old pointee" `Quick
            test_pbox_set_drops_old_pointee;
          Alcotest.test_case "equality" `Quick test_pbox_equal;
        ] );
    ]
