(* Pstrmap (string-keyed persistent hash map): model-based validation,
   rehash, key-block ownership, crash survival, and leak freedom. *)

open Corundum
module SM = Map.Make (String)

let small =
  { Pool_impl.size = 4 * 1024 * 1024; nslots = 2; slot_size = 128 * 1024 }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let map_root (type b) (module P : Pool.S with type brand = b) () =
  P.root
    ~ty:(Pstrmap.ptype Ptype.int)
    ~init:(fun j -> Pstrmap.make ~vty:Ptype.int ~nbuckets:4 j)
    ()

let assert_ok h =
  match Pstrmap.check h with Ok () -> () | Error e -> Alcotest.fail e

let test_basics () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let h = Pbox.get (map_root (module P) ()) in
  P.transaction (fun j ->
      Pstrmap.add h ~key:"alpha" 1 j;
      Pstrmap.add h ~key:"beta" 2 j;
      Pstrmap.add h ~key:"" 0 j (* empty keys are fine *));
  check_int "length" 3 (Pstrmap.length h);
  check_bool "find" true (Pstrmap.find h "alpha" = Some 1);
  check_bool "empty key" true (Pstrmap.find h "" = Some 0);
  check_bool "miss" true (Pstrmap.find h "gamma" = None);
  P.transaction (fun j -> Pstrmap.add h ~key:"alpha" 11 j);
  check_bool "replace" true (Pstrmap.find h "alpha" = Some 11);
  check_int "replace keeps length" 3 (Pstrmap.length h);
  check_bool "remove" true (P.transaction (fun j -> Pstrmap.remove h "beta" j));
  check_bool "remove absent" false
    (P.transaction (fun j -> Pstrmap.remove h "beta" j));
  Alcotest.(check (list string)) "keys sorted" [ ""; "alpha" ] (Pstrmap.keys h);
  assert_ok h;
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:(Pstrmap.ptype Ptype.int)

let test_rehash_and_crash () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let h = Pbox.get (map_root (module P) ()) in
  P.transaction (fun j ->
      for k = 1 to 150 do
        Pstrmap.add h ~key:(Printf.sprintf "key-%04d" k) k j
      done);
  check_bool "grew" true (Pstrmap.buckets h > 4);
  assert_ok h;
  P.crash_and_reopen ();
  let h = Pbox.get (map_root (module P) ()) in
  check_int "all survived" 150 (Pstrmap.length h);
  for k = 1 to 150 do
    if Pstrmap.find h (Printf.sprintf "key-%04d" k) <> Some k then
      Alcotest.failf "key %d lost" k
  done;
  assert_ok h;
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:(Pstrmap.ptype Ptype.int)

let test_key_blocks_owned () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let h = Pbox.get (map_root (module P) ()) in
  let live () = (P.stats ()).Pool_impl.live_blocks in
  let baseline = live () in
  P.transaction (fun j -> Pstrmap.add h ~key:"somekey" 1 j);
  (* entry block + key string block *)
  check_int "entry and key blocks" (baseline + 2) (live ());
  P.transaction (fun j -> ignore (Pstrmap.remove h "somekey" j));
  check_int "both reclaimed" baseline (live ());
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:(Pstrmap.ptype Ptype.int)

let test_abort () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let h = Pbox.get (map_root (module P) ()) in
  P.transaction (fun j -> Pstrmap.add h ~key:"keep" 1 j);
  (try
     P.transaction (fun j ->
         for k = 1 to 60 do
           Pstrmap.add h ~key:(string_of_int k) k j
         done;
         ignore (Pstrmap.remove h "keep" j);
         failwith "abort")
   with Failure _ -> ());
  Alcotest.(check (list (pair string int)))
    "rolled back" [ ("keep", 1) ] (Pstrmap.to_list h);
  assert_ok h;
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:(Pstrmap.ptype Ptype.int)

let test_string_values () =
  (* string keys AND owned string values *)
  let module P = Pool.Make () in
  P.create ~config:small ();
  let vty = Pstring.ptype () in
  let root =
    P.root ~ty:(Pstrmap.ptype vty)
      ~init:(fun j -> Pstrmap.make ~vty ~nbuckets:4 j)
      ()
  in
  let h = Pbox.get root in
  P.transaction (fun j ->
      Pstrmap.add h ~key:"lang" (Pstring.make "ocaml" j) j;
      Pstrmap.add h ~key:"paper" (Pstring.make "corundum" j) j);
  check_bool "value" true
    (match Pstrmap.find h "lang" with
    | Some s -> Pstring.get s = "ocaml"
    | None -> false);
  P.transaction (fun j -> Pstrmap.clear h j);
  check_int "cleared" 0 (Pstrmap.length h);
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty:(Pstrmap.ptype vty)

(* Device stores, flushes and fences of one transaction clearing or
   dropping a 64-bucket map that holds one key. *)
let one_key_cost op =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let h =
    Pbox.get
      (P.root
         ~ty:(Pstrmap.ptype Ptype.int)
         ~init:(fun j -> Pstrmap.make ~vty:Ptype.int ~nbuckets:64 j)
         ())
  in
  P.transaction (fun j -> Pstrmap.add h ~key:"a" 50 j);
  let d = Pool_impl.device (P.impl ()) in
  let s0 = Pmem.Device.stats d in
  P.transaction (fun j ->
      match op with `Clear -> Pstrmap.clear h j | `Drop -> Pstrmap.drop h j);
  let s1 = Pmem.Device.stats d in
  Pmem.Device.
    (s1.stores - s0.stores, s1.flushes - s0.flushes, s1.fences - s0.fences)

let cost = Alcotest.(triple int int int)

(* [clear] logs and zeroes only the one non-empty chain head, and [drop]
   zeroes none of the heads of the directory it frees.  Logging all 64
   heads costs 402 stores, 110 flushes and 68 fences in [clear], and
   402, 108 and 67 in [drop]. *)
let test_clear_drop_cost () =
  Alcotest.check cost "clear" (24, 9, 5) (one_key_cost `Clear);
  Alcotest.check cost "drop" (18, 4, 3) (one_key_cost `Drop)

let qcheck_model =
  QCheck.Test.make ~name:"pstrmap matches Map under random ops" ~count:40
    QCheck.(
      list_of_size Gen.(int_bound 250)
        (pair (string_of_size Gen.(int_bound 12)) bool))
    (fun ops ->
      let module P = Pool.Make () in
      P.create ~config:small ();
      let h = Pbox.get (map_root (module P) ()) in
      let model = ref SM.empty in
      List.iteri
        (fun i (k, ins) ->
          if ins then begin
            P.transaction (fun j -> Pstrmap.add h ~key:k i j);
            model := SM.add k i !model
          end
          else begin
            ignore (P.transaction (fun j -> Pstrmap.remove h k j));
            model := SM.remove k !model
          end)
        ops;
      (match Pstrmap.check h with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_report e);
      Pstrmap.to_list h = SM.bindings !model)

let () =
  Alcotest.run "corundum_pstrmap"
    [
      ( "pstrmap",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "rehash + crash" `Quick test_rehash_and_crash;
          Alcotest.test_case "key blocks owned" `Quick test_key_blocks_owned;
          Alcotest.test_case "abort" `Quick test_abort;
          Alcotest.test_case "string values" `Quick test_string_values;
          Alcotest.test_case "clear and drop cost" `Quick test_clear_drop_cost;
          QCheck_alcotest.to_alcotest qcheck_model;
        ] );
    ]
