open Corundum

let small_config =
  { Pool_impl.size = 1024 * 1024; nslots = 2; slot_size = 32 * 1024 }

let heap_ok pool =
  match Palloc.Heap_walk.check (Pool_impl.buddy pool) with
  | Ok () -> ()
  | Error m -> failwith ("heap integrity violated: " ^ m)

let fail fmt = Printf.ksprintf failwith fmt

(* Common scaffolding: a fresh branded pool with a captured device. *)
module type FRESH = sig
  module P : Pool.S

  val device : unit -> Pmem.Device.t
  val created : unit -> unit
  val reopen : unit -> unit
end

module Fresh () : FRESH = struct
  module P = Pool.Make ()

  let dev = ref None
  let device () = Option.get !dev

  let created () =
    P.create ~config:small_config ();
    dev := Some (Pool_impl.device (P.impl ()))

  let reopen () = P.crash_and_reopen ()
end

(* --- Counter: n transactions, each +1 ------------------------------- *)

let counter ?(increments = 3) () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let root () = P.root ~ty:Ptype.int ~init:(fun _ -> 0) ()

    let setup () =
      created ();
      ignore (root ())

    let run () =
      for _ = 1 to increments do
        P.transaction (fun j -> Pbox.modify (root ()) j succ)
      done

    let verify ~outcome =
      let v = Pbox.get (root ()) in
      (match outcome with
      | `Completed ->
          if v <> increments then fail "counter: expected %d, got %d" increments v
      | `Crashed k ->
          if v < 0 || v > increments then
            fail "counter: crash@%d left torn value %d" k v);
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty:Ptype.int
  end)

(* --- Linked list: one transaction appending [nodes] nodes ------------ *)

let list_append ?(nodes = 3) () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    type node = {
      value : int;
      next : ((node, P.brand) Pbox.t option, P.brand) Prefcell.t;
    }

    let rec node_ty_l : (node, P.brand) Ptype.t Lazy.t =
      lazy
        (Ptype.record2 ~name:"crash-node"
           ~inj:(fun value next -> { value; next })
           ~proj:(fun n -> (n.value, n.next))
           Ptype.int
           (Prefcell.ptype (Ptype.option (Pbox.ptype_rec node_ty_l))))

    let node_ty = Lazy.force node_ty_l
    let link_ty = Ptype.option (Pbox.ptype_rec node_ty_l)

    let root () =
      P.root ~ty:node_ty
        ~init:(fun _ -> { value = 0; next = Prefcell.make ~ty:link_ty None })
        ()

    let setup () =
      created ();
      ignore (root ())

    let rec append n v j =
      match Prefcell.borrow n.next with
      | Some succ -> append (Pbox.get succ) v j
      | None ->
          let fresh =
            Pbox.make ~ty:node_ty
              { value = v; next = Prefcell.make ~ty:link_ty None }
              j
          in
          Prefcell.set n.next (Some fresh) j

    let run () =
      P.transaction (fun j ->
          for v = 1 to nodes do
            append (Pbox.get (root ())) v j
          done)

    let rec to_list n =
      n.value
      ::
      (match Prefcell.borrow n.next with
      | None -> []
      | Some b -> to_list (Pbox.get b))

    let verify ~outcome =
      let l = to_list (Pbox.get (root ())) in
      let full = List.init (nodes + 1) Fun.id in
      (match outcome with
      | `Completed -> if l <> full then fail "list: bad final contents"
      | `Crashed k ->
          if l <> [ 0 ] && l <> full then
            fail "list: crash@%d left a partial list of %d nodes" k
              (List.length l - 1));
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty:node_ty
  end)

(* --- Prc sharing: allocate, store, clone, store ----------------------- *)

let rc_sharing () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let slot_ty = Pcell.ptype (Ptype.option (Prc.ptype Ptype.int))
    let root_ty = Ptype.pair slot_ty slot_ty

    let root () =
      P.root ~ty:root_ty
        ~init:(fun _ ->
          ( Pcell.make ~ty:(Ptype.option (Prc.ptype Ptype.int)) None,
            Pcell.make ~ty:(Ptype.option (Prc.ptype Ptype.int)) None ))
        ()

    let setup () =
      created ();
      ignore (root ())

    let run () =
      P.transaction (fun j ->
          let c1, c2 = Pbox.get (root ()) in
          let rc = Prc.make ~ty:Ptype.int 42 j in
          Pcell.set c1 (Some rc) j;
          let rc2 = Prc.pclone rc j in
          Pcell.set c2 (Some rc2) j)

    let verify ~outcome =
      let c1, c2 = Pbox.get (root ()) in
      (match (Pcell.get c1, Pcell.get c2, outcome) with
      | Some a, Some b, _ ->
          if not (Prc.equal a b) then fail "rc: cells disagree";
          if Prc.strong_count a <> 2 then
            fail "rc: strong count %d, expected 2" (Prc.strong_count a);
          if Prc.get a <> 42 then fail "rc: payload corrupted"
      | None, None, `Crashed _ -> ()
      | None, None, `Completed -> fail "rc: completed run left cells empty"
      | _, _, `Crashed k -> fail "rc: crash@%d left cells torn" k
      | _, _, `Completed -> fail "rc: completed run left cells torn");
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty
  end)

(* --- Pvec pushes and pops -------------------------------------------- *)

let vec_ops ?(pushes = 5) () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let root_ty = Pvec.ptype Ptype.int

    let root () =
      P.root ~ty:root_ty
        ~init:(fun j -> Pvec.make ~ty:Ptype.int ~capacity:2 j)
        ()

    let setup () =
      created ();
      ignore (root ())

    let run () =
      P.transaction (fun j ->
          let v = Pbox.get (root ()) in
          for i = 1 to pushes do
            Pvec.push v (i * 10) j
          done);
      P.transaction (fun j ->
          let v = Pbox.get (root ()) in
          ignore (Pvec.pop v j);
          ignore (Pvec.pop v j))

    let verify ~outcome =
      let v = Pbox.get (root ()) in
      let len = Pvec.length v in
      let ok_lens =
        match outcome with
        | `Completed -> [ pushes - 2 ]
        | `Crashed _ -> [ 0; pushes; pushes - 2 ]
      in
      if not (List.mem len ok_lens) then fail "vec: torn length %d" len;
      for i = 0 to len - 1 do
        if Pvec.get v i <> (i + 1) * 10 then
          fail "vec: corrupted element %d" i
      done;
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty
  end)

(* --- Bank transfers: the sum is invariant ----------------------------- *)

let transfer ?(accounts = 4) ?(moves = 4) () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let initial = 100
    let root_ty = Ptype.array accounts Ptype.int

    let root () =
      P.root ~ty:root_ty ~init:(fun _ -> Array.make accounts initial) ()

    let setup () =
      created ();
      ignore (root ())

    let run () =
      let rng = Random.State.make [| 7 |] in
      for _ = 1 to moves do
        let src = Random.State.int rng accounts in
        let dst = Random.State.int rng accounts in
        let amt = 1 + Random.State.int rng 50 in
        P.transaction (fun j ->
            Pbox.modify (root ()) j (fun a ->
                let a = Array.copy a in
                a.(src) <- a.(src) - amt;
                a.(dst) <- a.(dst) + amt;
                a))
      done

    let verify ~outcome =
      ignore outcome;
      let a = Pbox.get (root ()) in
      let sum = Array.fold_left ( + ) 0 a in
      if sum <> accounts * initial then
        fail "transfer: money not conserved: sum=%d" sum;
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty
  end)

(* --- Pqueue pushes and pops ------------------------------------------- *)

let queue_ops ?(pushes = 6) () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let root_ty = Pqueue.ptype Ptype.int

    let root () =
      P.root ~ty:root_ty
        ~init:(fun j -> Pqueue.make ~ty:Ptype.int ~capacity:2 j)
        ()

    let setup () =
      created ();
      ignore (root ())

    let run () =
      P.transaction (fun j ->
          let q = Pbox.get (root ()) in
          for i = 1 to pushes do
            Pqueue.push q (i * 7) j
          done);
      P.transaction (fun j ->
          let q = Pbox.get (root ()) in
          ignore (Pqueue.pop q j);
          ignore (Pqueue.pop q j))

    let verify ~outcome =
      let q = Pbox.get (root ()) in
      let contents = Pqueue.to_list q in
      let full = List.init pushes (fun i -> (i + 1) * 7) in
      let drained = List.filteri (fun i _ -> i >= 2) full in
      let ok =
        match outcome with
        | `Completed -> contents = drained
        | `Crashed _ -> contents = [] || contents = full || contents = drained
      in
      if not ok then fail "queue: torn contents (%d elements)" (List.length contents);
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty
  end)

(* --- Log-free atomic counter (Punsafe) --------------------------------- *)

let logfree_counter ?(increments = 4) () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let root_ty = Pcell.ptype Ptype.int

    let root () =
      P.root ~ty:root_ty ~init:(fun _ -> Pcell.make ~ty:Ptype.int 0) ()

    let setup () =
      created ();
      ignore (root ());
      (* The Punsafe counter deliberately sits outside the logging
         protocol; declare it to the sanitizer so a [--psan] sweep can
         audit everything else without tripping on the escape hatch. *)
      Psan.exempt
        ~dev:(Pmem.Device.id (device ()))
        ~off:(Pool_impl.root_off (P.impl ()))
        ~len:8

    let run () =
      for _ = 1 to increments do
        P.transaction (fun j ->
            let c = Pbox.get (root ()) in
            Punsafe.atomic_set c (Pcell.get c + 1) j)
      done

    let verify ~outcome =
      let v = Pcell.get (Pbox.get (root ())) in
      (match outcome with
      | `Completed ->
          if v <> increments then fail "logfree: expected %d, got %d" increments v
      | `Crashed k ->
          (* 8-byte atomic stores: any prefix count is valid, nothing torn *)
          if v < 0 || v > increments then
            fail "logfree: crash@%d left torn value %d" k v);
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty
  end)

(* --- Pstack: checkpointed recoverable-CAS push/pop --------------------- *)

let pstack ?(pushes = 4) ?(pops = 2) () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let root_ty = Pstack.ptype Ptype.int
    let value i = i * 11

    let root () =
      P.root ~ty:root_ty ~init:(fun j -> Pstack.make ~ty:Ptype.int j) ()

    (* Every stack state a crash may legally expose: each operation is a
       single recoverable CAS, so recovery must land on some prefix of
       the operation sequence — nothing torn, nothing interleaved. *)
    let steps =
      List.init pushes (fun i -> `Push (value (i + 1)))
      @ List.init pops (fun _ -> `Pop)

    let valid_states =
      List.fold_left
        (fun acc op ->
          let cur = List.hd acc in
          (match (op, cur) with
          | `Push v, st -> v :: st
          | `Pop, _ :: rest -> rest
          | `Pop, [] -> [])
          :: acc)
        [ [] ] steps

    let final_state = List.hd valid_states

    let setup () =
      created ();
      ignore (root ())

    let run () =
      let s = Pbox.get (root ()) in
      List.iter
        (fun op ->
          P.transaction (fun j ->
              match op with
              | `Push v -> Pstack.push s v j
              | `Pop -> ignore (Pstack.pop s j)))
        steps

    (* The stack's own detectable recovery runs after the pool's, inside
       the same crash-injection window — a nested recovery crash can land
       between the two, or mid-way through the slot resolution. *)
    let outcomes = ref []

    let reopen () =
      reopen ();
      outcomes := Pstack.recover (Pbox.get (root ()))

    let show l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

    let verify ~outcome =
      let s = Pbox.get (root ()) in
      let l = Pstack.to_list s in
      (match outcome with
      | `Completed ->
          if l <> final_state then
            fail "pstack: expected %s, got %s" (show final_state) (show l)
      | `Crashed k ->
          if not (List.mem l valid_states) then
            fail "pstack: crash@%d left non-prefix state %s" k (show l);
          (* detectability: recovery reports at most one verdict per
             checkpoint slot, oldest first *)
          let seqs = List.map Pstack.seq_of_outcome !outcomes in
          if List.length seqs > 2 then
            fail "pstack: crash@%d resolved %d checkpoints" k (List.length seqs);
          if List.sort compare seqs <> seqs then
            fail "pstack: crash@%d verdicts out of order" k);
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty
  end)

(* --- Pmap: AVL insertions forcing rotations ---------------------------- *)

let map_rotations ?(keys = 7) () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let root_ty = Pmap.ptype Ptype.int

    let root () =
      P.root ~ty:root_ty ~init:(fun j -> Pmap.make ~vty:Ptype.int j) ()

    let setup () =
      created ();
      ignore (root ());
      (* a committed seed tree so the run's rotations rewrite old nodes *)
      P.transaction (fun j ->
          let m = Pbox.get (root ()) in
          List.iter (fun k -> Pmap.add m ~key:(k * 10) k j) [ 1; 2; 3 ])

    let run () =
      (* ascending inserts force left rotations at every level *)
      P.transaction (fun j ->
          let m = Pbox.get (root ()) in
          for k = 4 to 3 + keys do
            Pmap.add m ~key:(k * 10) k j
          done);
      P.transaction (fun j ->
          let m = Pbox.get (root ()) in
          ignore (Pmap.remove m 20 j))

    let verify ~outcome =
      let m = Pbox.get (root ()) in
      (match Pmap.check m with
      | Ok () -> ()
      | Error e -> fail "map: structure broken after crash: %s" e);
      let len = Pmap.length m in
      let ok =
        match outcome with
        | `Completed -> len = 3 + keys - 1
        | `Crashed _ -> len = 3 || len = 3 + keys || len = 3 + keys - 1
      in
      if not ok then fail "map: torn size %d" len;
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty
  end)

(* --- Pbtree: splits and merges under injection ------------------------- *)

let btree_ops ?(keys = 10) () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let root_ty = Pbtree.ptype Ptype.int

    let root () =
      P.root ~ty:root_ty ~init:(fun j -> Pbtree.make ~vty:Ptype.int j) ()

    let setup () =
      created ();
      ignore (root ());
      P.transaction (fun j ->
          let t = Pbox.get (root ()) in
          for k = 1 to 7 do
            Pbtree.add t ~key:k k j
          done)

    let run () =
      P.transaction (fun j ->
          let t = Pbox.get (root ()) in
          for k = 8 to 7 + keys do
            Pbtree.add t ~key:k k j
          done);
      P.transaction (fun j ->
          let t = Pbox.get (root ()) in
          for k = 1 to 5 do
            ignore (Pbtree.remove t k j)
          done)

    let verify ~outcome =
      let t = Pbox.get (root ()) in
      (match Pbtree.check t with
      | Ok () -> ()
      | Error e -> fail "btree: structure broken after crash: %s" e);
      let len = Pbtree.length t in
      let ok =
        match outcome with
        | `Completed -> len = 7 + keys - 5
        | `Crashed _ -> len = 7 || len = 7 + keys || len = 7 + keys - 5
      in
      if not ok then fail "btree: torn size %d" len;
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty
  end)

(* --- Kvstore: string-keyed hash map puts and deletes ------------------- *)

let kvstore ?(ops = 5) () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let root_ty = Pstrmap.ptype Ptype.int
    let seed_keys = [ "alpha"; "beta"; "gamma" ]

    let root () =
      P.root ~ty:root_ty ~init:(fun j -> Pstrmap.make ~vty:Ptype.int j) ()

    let setup () =
      created ();
      ignore (root ());
      (* a committed working set the run's rehash/deletes must not lose *)
      P.transaction (fun j ->
          let m = Pbox.get (root ()) in
          List.iteri (fun i k -> Pstrmap.add m ~key:k (i + 1) j) seed_keys)

    let run () =
      P.transaction (fun j ->
          let m = Pbox.get (root ()) in
          for k = 1 to ops do
            Pstrmap.add m ~key:(Printf.sprintf "key-%d" k) (k * 100) j
          done);
      P.transaction (fun j ->
          let m = Pbox.get (root ()) in
          if not (Pstrmap.remove m "beta" j) then fail "kvstore: beta missing")

    let verify ~outcome =
      let m = Pbox.get (root ()) in
      (match Pstrmap.check m with
      | Ok () -> ()
      | Error e -> fail "kvstore: structure broken after crash: %s" e);
      let nseed = List.length seed_keys in
      let len = Pstrmap.length m in
      let ok =
        match outcome with
        | `Completed -> len = nseed + ops - 1
        | `Crashed _ ->
            len = nseed || len = nseed + ops || len = nseed + ops - 1
      in
      if not ok then fail "kvstore: torn size %d" len;
      (* atomicity: either no run keys, or all of them with intact values *)
      if len > nseed then
        for k = 1 to ops do
          match Pstrmap.find m (Printf.sprintf "key-%d" k) with
          | Some v when v = k * 100 -> ()
          | Some v -> fail "kvstore: key-%d corrupted to %d" k v
          | None -> fail "kvstore: key-%d lost" k
        done;
      if Pstrmap.find m "alpha" <> Some 1 || Pstrmap.find m "gamma" <> Some 3
      then fail "kvstore: committed seed data lost";
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty
  end)

(* --- Allocator churn: every tx frees an old block and allocates a new
   one, driving the batched mark/clear protocol (drop-area persists,
   coalesced mark flush, deferred clear flush) through every crash
   window the injector can reach. ------------------------------------- *)

let alloc_churn ?(cells = 4) ?(rounds = 6) () : (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let box_ty = Pbox.ptype Ptype.int
    let cell_ty = Pcell.ptype (Ptype.option box_ty)
    let root_ty = Ptype.array cells cell_ty

    let root () =
      P.root ~ty:root_ty
        ~init:(fun _ ->
          Array.init cells (fun _ ->
              Pcell.make ~ty:(Ptype.option box_ty) None))
        ()

    let setup () =
      created ();
      ignore (root ())

    let run () =
      for i = 1 to rounds do
        P.transaction (fun j ->
            let c = (Pbox.get (root ())).(i mod cells) in
            (* overwriting the cell transfers ownership: the displaced
               box is dropped (deferred free) in the same transaction
               that allocates its replacement, so the commit carries
               both a drop and a fresh mark — the crash-richest
               allocator path *)
            Pcell.set c (Some (Pbox.make ~ty:Ptype.int (i * 1000) j)) j)
      done

    let verify ~outcome =
      ignore outcome;
      (* Per-transaction atomicity: each cell holds either its old box or
         its replacement, never a dangling or half-written one. *)
      Array.iter
        (fun c ->
          match Pcell.get c with
          | None -> ()
          | Some b ->
              let v = Pbox.get b in
              if v < 1000 || v > rounds * 1000 || v mod 1000 <> 0 then
                fail "alloc_churn: torn box value %d" v)
        (Pbox.get (root ()));
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty
  end)

(* --- Shared-pool group commit: two domains committing through one
   epoch combiner.  The crash countdown is global, so the sweep lands a
   crash at every persist point of the interleaved run — including the
   epoch leader dying between its merged flush and the group fence,
   with other members' transactions riding on that fence.  Recovery
   must roll each unfenced slot back independently.  The interleaving
   (and hence the persist-point count) is nondeterministic; the
   injector tolerates schedules that outlive a replay. ---------------- *)

let group_commit ?(workers = 2) ?(increments = 3) () :
    (module Injector.INSTANCE) =
  (module struct
    include Fresh ()

    let cell_ty = Pcell.ptype Ptype.int
    let root_ty = Ptype.array workers cell_ty

    let root () =
      P.root ~ty:root_ty
        ~init:(fun _ ->
          Array.init workers (fun _ -> Pcell.make ~ty:Ptype.int 0))
        ()

    let setup () =
      created ();
      ignore (root ())

    let run () =
      P.set_group_commit true;
      let worker w () =
        match
          ignore (P.register_domain ());
          let c = (Pbox.get (root ())).(w) in
          for _ = 1 to increments do
            P.transaction (fun j -> Pcell.set c (Pcell.get c + 1) j)
          done;
          P.unregister_domain ()
        with
        | () -> false
        | exception Pmem.Device.Crashed -> true
        | exception Pool_impl.Pool_closed ->
            (* a crash in a sibling domain invalidates the shared handle
               — even after this worker's last commit, at unregister;
               observing the closed handle IS observing the crash *)
            true
      in
      let doms = List.init workers (fun w -> Domain.spawn (worker w)) in
      let crashed = List.map Domain.join doms in
      (* A crash in ANY domain is the run's crash: the injector then
         power-cycles and recovery rolls every unfenced slot back. *)
      if List.exists Fun.id crashed then raise Pmem.Device.Crashed

    let verify ~outcome =
      Array.iteri
        (fun w c ->
          let v = Pcell.get c in
          match outcome with
          | `Completed ->
              if v <> increments then
                fail "group_commit: worker %d expected %d, got %d" w
                  increments v
          | `Crashed k ->
              (* per-transaction atomicity, member by member: any prefix
                 of each worker's increments is valid, independent of
                 what happened to the other epoch members *)
              if v < 0 || v > increments then
                fail "group_commit: crash@%d left worker %d torn at %d" k w v)
        (Pbox.get (root ()));
      heap_ok (P.impl ());
      Leak_check.assert_clean (P.impl ()) ~root_ty
  end)

let all =
  [
    ("counter", fun () -> counter ());
    ("list_append", fun () -> list_append ());
    ("rc_sharing", fun () -> rc_sharing ());
    ("vec_ops", fun () -> vec_ops ());
    ("transfer", fun () -> transfer ());
    ("queue_ops", fun () -> queue_ops ());
    ("logfree_counter", fun () -> logfree_counter ());
    ("pstack", fun () -> pstack ());
    ("map_rotations", fun () -> map_rotations ());
    ("btree_ops", fun () -> btree_ops ());
    ("kvstore", fun () -> kvstore ());
    ("alloc_churn", fun () -> alloc_churn ());
    ("group_commit", fun () -> group_commit ());
  ]
