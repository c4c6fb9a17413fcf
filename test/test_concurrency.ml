(* Multi-domain and multi-pool behaviour: journal slot contention,
   isolation under concurrent transactions, independent pools in nested
   transactions, and the dynamic backstops for cross-pool discipline. *)

open Corundum

let small =
  { Pool_impl.size = 4 * 1024 * 1024; nslots = 2; slot_size = 64 * 1024 }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* More domains than journal slots: transactions must queue on the slot
   pool (Condition-based) rather than fail. *)
let test_slot_contention () =
  let module P = Pool.Make () in
  P.create ~config:small () (* 2 slots *);
  let root =
    P.root ~ty:(Pmutex.ptype Ptype.int)
      ~init:(fun _ -> Pmutex.make ~ty:Ptype.int 0)
      ()
  in
  let m = Pbox.get root in
  let n = 25 in
  let worker () =
    for _ = 1 to n do
      P.transaction (fun j -> Pmutex.with_lock m j succ)
    done
  in
  let domains = List.init 5 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  check_int "all increments with 5 domains on 2 slots" (5 * n)
    (P.transaction (fun j -> Pmutex.deref (Pmutex.lock m j)))

(* Isolation: while one domain holds the mutex mid-transaction, another
   domain's read of the guarded cell must not see the uncommitted value. *)
let test_isolation_under_lock () =
  let module P = Pool.Make () in
  P.create ~config:{ small with nslots = 4 } ();
  let root =
    P.root ~ty:(Pmutex.ptype Ptype.int)
      ~init:(fun _ -> Pmutex.make ~ty:Ptype.int 1)
      ()
  in
  let m = Pbox.get root in
  let in_critical = Atomic.make false in
  let observed = Atomic.make (-1) in
  let observer_done = Atomic.make false in
  let writer () =
    P.transaction (fun j ->
        let g = Pmutex.lock m j in
        Pmutex.deref_set g 999;
        Atomic.set in_critical true;
        (* hold the lock until the observer finished its attempt *)
        while not (Atomic.get observer_done) do
          Domain.cpu_relax ()
        done;
        Pmutex.deref_set g 2)
  in
  let observer () =
    while not (Atomic.get in_critical) do
      Domain.cpu_relax ()
    done;
    (* This blocks until the writer commits (lock held to commit), so the
       uncommitted 999 is never visible. *)
    Atomic.set observer_done true;
    let v = P.transaction (fun j -> Pmutex.deref (Pmutex.lock m j)) in
    Atomic.set observed v
  in
  let w = Domain.spawn writer in
  let o = Domain.spawn observer in
  Domain.join w;
  Domain.join o;
  check_int "observer sees only the committed value" 2 (Atomic.get observed)

(* Two pools open at once: nested transactions across pools work, data
   flows between them only by value, and each pool's statistics are
   independent. *)
let test_two_pools () =
  let module P1 = Pool.Make () in
  let module P2 = Pool.Make () in
  P1.create ~config:small ();
  P2.create ~config:small ();
  let r1 = P1.root ~ty:Ptype.int ~init:(fun _ -> 100) () in
  let r2 = P2.root ~ty:Ptype.int ~init:(fun _ -> 200) () in
  (* nested transactions on distinct pools (paper Listing 4's legal part) *)
  P1.transaction (fun j1 ->
      P2.transaction (fun j2 ->
          (* copy BY VALUE from P1 to P2 — the only legal data flow *)
          Pbox.set r2 (Pbox.get r1 + 1) j2);
      Pbox.set r1 7 j1);
  check_int "p1 committed" 7 (Pbox.get r1);
  check_int "p2 committed" 101 (Pbox.get r2);
  (* aborting P1's transaction does not disturb committed P2 state *)
  (try
     P1.transaction (fun j1 ->
         Pbox.set r1 0 j1;
         P2.transaction (fun j2 -> Pbox.set r2 0 j2);
         failwith "abort p1")
   with Failure _ -> ());
  check_int "p1 rolled back" 7 (Pbox.get r1);
  (* P2's nested tx flattened into... its own pool's tx, which committed
     independently when its own outermost level (inside the P1 body)
     returned. *)
  check_int "p2 keeps its own committed write" 0 (Pbox.get r2);
  check_int "pools count their own transactions" 2
    (P1.stats ()).Pool_impl.transactions;
  P1.close ();
  (* closing P1 leaves P2 usable *)
  P2.transaction (fun j2 -> Pbox.set r2 5 j2);
  check_int "p2 alive after p1 close" 5 (Pbox.get r2);
  P2.close ()

(* Independent pools written from independent domains concurrently. *)
let test_parallel_pools () =
  let mk () =
    let module P = Pool.Make () in
    P.create ~config:small ();
    ignore (P.root ~ty:Ptype.int ~init:(fun _ -> 0) ());
    (module P : Pool.S)
  in
  let pools = List.init 3 (fun _ -> mk ()) in
  let work (module P : Pool.S) () =
    let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
    for _ = 1 to 100 do
      P.transaction (fun j -> Pbox.modify root j succ)
    done;
    Pbox.get root
  in
  let domains = List.map (fun p -> Domain.spawn (work p)) pools in
  let totals = List.map Domain.join domains in
  Alcotest.(check (list int)) "each pool counted alone" [ 100; 100; 100 ] totals

(* The dynamic backstop for the paper's pool-closure hazard: handles into
   a closed pool fail cleanly rather than reading unmapped memory. *)
let test_closed_pool_handles () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let root =
    P.root ~ty:(Pvec.ptype Ptype.int)
      ~init:(fun j -> Pvec.make ~ty:Ptype.int j)
      ()
  in
  let v = Pbox.get root in
  P.transaction (fun j -> Pvec.push v 3 j);
  let tbl =
    P.transaction (fun j ->
        let h = Phashtbl.make ~vty:Ptype.int j in
        Phashtbl.add h ~key:7 70 j;
        h)
  in
  let smap =
    P.transaction (fun j ->
        let h = Pstrmap.make ~vty:Ptype.int j in
        Pstrmap.add h ~key:"a" 1 j;
        h)
  in
  P.close ();
  (* present and absent keys alike: a miss must not read the closed pool *)
  List.iter
    (fun (what, f) -> Alcotest.check_raises what Pool_impl.Pool_closed f)
    [
      ("phashtbl mem present", fun () -> ignore (Phashtbl.mem tbl 7));
      ("phashtbl mem absent", fun () -> ignore (Phashtbl.mem tbl 8));
      ("phashtbl find present", fun () -> ignore (Phashtbl.find tbl 7));
      ("phashtbl find absent", fun () -> ignore (Phashtbl.find tbl 8));
      ("pstrmap mem present", fun () -> ignore (Pstrmap.mem smap "a"));
      ("pstrmap mem absent", fun () -> ignore (Pstrmap.mem smap "zz"));
      ("pstrmap find present", fun () -> ignore (Pstrmap.find smap "a"));
      ("pstrmap find absent", fun () -> ignore (Pstrmap.find smap "zz"));
    ];
  Alcotest.check_raises "vector handle dead" Pool_impl.Pool_closed (fun () ->
      ignore (Pvec.length v));
  Alcotest.check_raises "box handle dead" Pool_impl.Pool_closed (fun () ->
      ignore (Pbox.get root))

(* {1 Shared-pool domain binding and group commit} *)

(* Registration binds a dedicated journal slot: idempotent, bounded by
   nslots (refused, never blocked), refused mid-transaction, and the
   slot returns to the pool at unregister. *)
let test_domain_binding () =
  let module P = Pool.Make () in
  P.create ~config:{ small with nslots = 2 } ();
  let s1 = P.register_domain () in
  check_int "registration is idempotent" s1 (P.register_domain ());
  check_bool "slot_of_domain agrees" true
    (Pool_impl.slot_of_domain (P.impl ()) = Some s1);
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
  P.transaction (fun j -> Pbox.set root 1 j);
  check_int "bound transactions commit" 1 (Pbox.get root);
  (* a second domain binds the other slot *)
  let s2 = Domain.join (Domain.spawn (fun () -> P.register_domain ())) in
  check_bool "distinct slots" true (s1 <> s2);
  (* every slot is now bound: a third domain is refused, not blocked *)
  let refused =
    Domain.join
      (Domain.spawn (fun () ->
           match P.register_domain () with
           | _ -> false
           | exception Invalid_argument _ -> true))
  in
  check_bool "registration refused when slots exhausted" true refused;
  (* releasing the slot mid-transaction is refused *)
  let refused_in_tx =
    P.transaction (fun _ ->
        match P.unregister_domain () with
        | () -> false
        | exception Invalid_argument _ -> true)
  in
  check_bool "unregister refused inside a transaction" true refused_in_tx;
  P.unregister_domain ();
  check_bool "unbound after unregister" true
    (Pool_impl.slot_of_domain (P.impl ()) = None);
  (* the freed slot is available to a newcomer *)
  let s3 = Domain.join (Domain.spawn (fun () -> P.register_domain ())) in
  check_int "released slot rebound" s1 s3

(* The pool's volatile statistics counters are atomics: under heavy
   multi-domain commit traffic the totals must be exact, not merely
   approximate (a plain mutable int would lose increments). *)
let test_shared_counters_exact () =
  let module P = Pool.Make () in
  P.create ~config:{ small with nslots = 8 } ();
  let n_dom = 4 and n_tx = 50 in
  let root =
    P.root
      ~ty:(Ptype.array n_dom (Pcell.ptype Ptype.int))
      ~init:(fun _ -> Array.init n_dom (fun _ -> Pcell.make ~ty:Ptype.int 0))
      ()
  in
  let before = (P.stats ()).Pool_impl.transactions in
  let worker w () =
    ignore (P.register_domain () : int);
    let c = (Pbox.get root).(w) in
    for _ = 1 to n_tx do
      P.transaction (fun j -> Pcell.set c (Pcell.get c + 1) j)
    done;
    P.unregister_domain ()
  in
  let ds = List.init n_dom (fun w -> Domain.spawn (worker w)) in
  List.iter Domain.join ds;
  let s = P.stats () in
  check_int "commit counter exact under domains" (before + (n_dom * n_tx))
    s.Pool_impl.transactions;
  check_int "no aborts" 0 s.Pool_impl.aborts;
  Array.iteri
    (fun w c -> check_int (Printf.sprintf "worker %d committed all" w) n_tx
        (Pcell.get c))
    (Pbox.get root)

(* Concurrent transactions committing through the epoch combiner: every
   commit is accounted to exactly one epoch, occupancy is bounded by the
   number of domains, and no update is lost. *)
let test_group_commit_shared_pool () =
  let module G = Pjournal.Group_commit in
  let module P = Pool.Make () in
  P.create ~config:{ small with nslots = 8 } ();
  let n_dom = 4 and n_tx = 40 in
  let root =
    P.root
      ~ty:(Ptype.array n_dom (Pcell.ptype Ptype.int))
      ~init:(fun _ -> Array.init n_dom (fun _ -> Pcell.make ~ty:Ptype.int 0))
      ()
  in
  P.set_group_commit true;
  let worker w () =
    ignore (P.register_domain () : int);
    let c = (Pbox.get root).(w) in
    for _ = 1 to n_tx do
      P.transaction (fun j -> Pcell.set c (Pcell.get c + 1) j)
    done;
    P.unregister_domain ()
  in
  let ds = List.init n_dom (fun w -> Domain.spawn (worker w)) in
  List.iter Domain.join ds;
  let s = Option.get (Pool_impl.group_commit_stats (P.impl ())) in
  check_int "every commit passed through the combiner" (n_dom * n_tx)
    s.G.commits;
  check_bool "at least one epoch fenced" true (s.G.epochs > 0);
  check_bool "epochs never exceed commits" true (s.G.epochs <= s.G.commits);
  check_bool "occupancy bounded by the domain count" true
    (s.G.max_occupancy >= 1 && s.G.max_occupancy <= n_dom);
  Array.iteri
    (fun w c -> check_int (Printf.sprintf "worker %d committed all" w) n_tx
        (Pcell.get c))
    (Pbox.get root)

(* Leader failure must never manufacture a commit: if the device dies
   under the epoch leader's merged flush or fence, every member of that
   epoch (and every later arrival) observes Crashed.  Regression for the
   combiner completing a FAILED epoch — members then reported success
   for data that was never fenced. *)
let test_group_leader_failure () =
  let module D = Pmem.Device in
  let module G = Pjournal.Group_commit in
  let dev = D.create ~size:(1024 * 1024) () in
  (* the assertion holds for any interleaving *)
  let gc = G.create dev in
  D.set_crash_countdown dev 1;
  let commit_one l () =
    let lines = Pjournal.Line_buf.create () in
    Pjournal.Line_buf.add lines l;
    match G.commit gc ~lines with
    | () -> false (* a false commit: the fence never happened *)
    | exception D.Crashed -> true
  in
  let ds = List.init 2 (fun i -> Domain.spawn (commit_one (i + 1))) in
  let crashed = List.map Domain.join ds in
  check_bool "no member of the failed epoch reports success" true
    (List.for_all Fun.id crashed);
  check_bool "poisoned combiner refuses later commits" true (commit_one 9 ())

(* {2 The epoch closure rule}

   Deterministic: the domains are sequenced with Atomics so every
   interleaving the OS picks gives the same epochs, and each test joins
   its domains under a watchdog so a closure deadlock fails the test
   instead of hanging the suite. *)

let join_within name workers =
  let secs = 20.0 and finished = Atomic.make 0 in
  let ds =
    List.map
      (fun f ->
        Domain.spawn (fun () ->
            let r = match f () with () -> None | exception e -> Some e in
            Atomic.incr finished;
            r))
      workers
  in
  let n = List.length workers and deadline = Unix.gettimeofday () +. secs in
  while Atomic.get finished < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if Atomic.get finished < n then
    Alcotest.failf "%s: domains still blocked after %.0f s (deadlock)" name
      secs;
  List.iter (fun d -> Option.iter raise (Domain.join d)) ds

let await flag =
  while not (Atomic.get flag) do
    Domain.cpu_relax ()
  done

(* A pool with a lock, two cells, and a fresh combiner installed after
   the root's setup transaction. *)
module Closure_pool () = struct
  module P = Pool.Make ()

  let () = P.create ~config:{ small with nslots = 4 } ()
  let cell () = Pcell.make ~ty:Ptype.int 0

  let m, cells =
    Pbox.get
      (P.root
         ~ty:
           (Ptype.pair (Pmutex.ptype Ptype.int)
              (Ptype.array 2 (Pcell.ptype Ptype.int)))
         ~init:(fun _ -> (Pmutex.make ~ty:Ptype.int 0, [| cell (); cell () |]))
         ())

  let () = P.set_group_commit true
  let stats () = Option.get (Pool_impl.group_commit_stats (P.impl ()))
end

(* Both transactions are dirty before either publishes: whichever
   publishes first leads and waits for the other. *)
let test_closure_waits_for_dirty_peer () =
  let module G = Pjournal.Group_commit in
  let module C = Closure_pool () in
  let module P = C.P in
  let cells = C.cells in
  let dirty = Array.init 2 (fun _ -> Atomic.make false) in
  let worker w () =
    ignore (P.register_domain () : int);
    P.transaction (fun j ->
        Pcell.set cells.(w) 1 j;
        Atomic.set dirty.(w) true;
        await dirty.(1 - w));
    P.unregister_domain ()
  in
  join_within "dirty peer" [ worker 0; worker 1 ];
  let s = C.stats () in
  check_int "one epoch" 1 s.G.epochs;
  check_int "two members" 2 s.G.max_occupancy;
  Array.iter (fun c -> check_int "committed" 1 (Pcell.get c)) cells

(* The peer is dirty, then blocks on the lock the leader holds across
   its commit: the epoch must close without it (solo), and the peer
   commits in the next one. *)
let test_closure_skips_blocked_peer () =
  let module G = Pjournal.Group_commit in
  let module C = Closure_pool () in
  let module P = C.P in
  let m = C.m and cells = C.cells in
  let locked = Atomic.make false and peer_dirty = Atomic.make false in
  let leader () =
    P.transaction (fun j ->
        Pmutex.deref_set (Pmutex.lock m j) 1;
        Atomic.set locked true;
        await peer_dirty)
  and peer () =
    await locked;
    P.transaction (fun j ->
        Pcell.set cells.(0) 1 j;
        Atomic.set peer_dirty true;
        Pmutex.deref_update (Pmutex.lock m j) (fun v -> v + 10))
  in
  join_within "blocked peer" [ leader; peer ];
  let s = C.stats () in
  check_int "two epochs" 2 s.G.epochs;
  check_int "both solo" 2 s.G.solo_epochs;
  check_int "leader's and peer's updates landed" 11
    (P.transaction (fun j -> Pmutex.deref (Pmutex.lock m j)));
  check_int "peer's cell landed" 1 (Pcell.get cells.(0))

(* A peer looping read-only transactions is never waited for. *)
let test_closure_ignores_readers () =
  let module G = Pjournal.Group_commit in
  let module C = Closure_pool () in
  let module P = C.P in
  let cells = C.cells in
  let reads = Atomic.make 0 and stop = Atomic.make false in
  let n = 20 in
  let reader () =
    while not (Atomic.get stop) do
      P.transaction (fun _ -> ignore (Pcell.get cells.(1) : int));
      Atomic.incr reads
    done
  and writer () =
    while Atomic.get reads = 0 do
      Domain.cpu_relax ()
    done;
    for _ = 1 to n do
      P.transaction (fun j -> Pcell.set cells.(0) (Pcell.get cells.(0) + 1) j)
    done;
    Atomic.set stop true
  in
  join_within "read-only peer" [ reader; writer ];
  let s = C.stats () in
  check_int "one epoch per write" n s.G.epochs;
  check_int "all solo" n s.G.solo_epochs;
  check_int "writes landed" n (Pcell.get cells.(0))

(* A marked peer that aborts, or dies on a crashed device, must wake the
   leader waiting for it. *)
let test_closure_wakes_on_abort_or_crash () =
  let module G = Pjournal.Group_commit in
  let run ~crash =
    let module C = Closure_pool () in
    let module P = C.P in
    let cells = C.cells in
    let dev = Pool_impl.device (P.impl ()) in
    let peer_dirty = Atomic.make false and publishing = Atomic.make false in
    let leader_crashed = Atomic.make false in
    let leader () =
      await peer_dirty;
      match
        P.transaction (fun j ->
            Pcell.set cells.(0) 1 j;
            Atomic.set publishing true)
      with
      | () -> ()
      | exception Pmem.Device.Crashed -> Atomic.set leader_crashed true
    and peer () =
      match
        P.transaction (fun j ->
            Pcell.set cells.(1) 1 j;
            Atomic.set peer_dirty true;
            await publishing;
            (* give the leader time to start waiting for us *)
            Unix.sleepf 0.01;
            if crash then begin
              Pmem.Device.set_crash_countdown dev 1;
              Pmem.Device.fence dev
            end
            else raise Exit)
      with
      | () -> Alcotest.fail "peer committed"
      | exception (Exit | Pmem.Device.Crashed) -> ()
    in
    let what = if crash then "crashing peer" else "aborting peer" in
    join_within what [ leader; peer ];
    if crash then
      check_bool "leader sees the crash, not a commit" true
        (Atomic.get leader_crashed)
    else begin
      let s = C.stats () in
      check_int "one solo epoch" 1 s.G.solo_epochs;
      check_int "leader committed" 1 (Pcell.get cells.(0));
      check_int "peer rolled back" 0 (Pcell.get cells.(1))
    end
  in
  run ~crash:false;
  run ~crash:true

(* A crash raised by the commit itself (its fence, solo or as an epoch
   leader) ends the transaction like a crash in its body: the pool
   closes, the next transaction refuses it, and a second domain blocked
   on a lock the transaction held is released. *)
let test_commit_crash_releases () =
  let run ~group =
    let pool = Pool_impl.create ~config:small () in
    let dev = Pool_impl.device pool in
    let off = Pool_impl.transaction pool (fun tx -> Pool_impl.tx_alloc tx 64) in
    Pool_impl.set_group_commit pool group;
    let locked = Atomic.make false and waiting = Atomic.make false in
    let crashed = Atomic.make false in
    let holder () =
      match
        Pool_impl.transaction pool (fun tx ->
            Pool_impl.tx_lock tx off;
            Pool_impl.tx_set_int tx off 1;
            Atomic.set locked true;
            await waiting;
            (* give the peer time to block on the lock *)
            Unix.sleepf 0.05;
            (* persist points left: the commit's target flush, then its fence *)
            Pmem.Device.set_crash_countdown dev 2)
      with
      | () -> ()
      | exception Pmem.Device.Crashed -> Atomic.set crashed true
    and peer () =
      await locked;
      match
        Pool_impl.transaction pool (fun tx ->
            Atomic.set waiting true;
            Pool_impl.tx_lock tx off)
      with
      | () | (exception (Pmem.Device.Crashed | Pool_impl.Pool_closed)) -> ()
    in
    let what = if group then "commit crash (group)" else "commit crash" in
    join_within what [ holder; peer ];
    check_bool (what ^ ": the commit crashed") true (Atomic.get crashed);
    check_bool (what ^ ": pool closed") false (Pool_impl.is_open pool);
    Alcotest.check_raises (what ^ ": next transaction") Pool_impl.Pool_closed
      (fun () -> Pool_impl.transaction pool ignore)
  in
  run ~group:false;
  run ~group:true

(* A domain blocked on an offset another domain's transaction holds
   wakes once that transaction ends, however it ends, and then holds
   the offset itself. *)
let test_lock_waiter_wakes () =
  let run ending =
    let pool = Pool_impl.create ~config:small () in
    let dev = Pool_impl.device pool in
    let off = Pool_impl.transaction pool (fun tx -> Pool_impl.tx_alloc tx 64) in
    let locked = Atomic.make false and waiting = Atomic.make false in
    let early = Atomic.make false and got = Atomic.make false in
    let holder () =
      match
        Pool_impl.transaction pool (fun tx ->
            Pool_impl.tx_lock tx off;
            Pool_impl.tx_set_int tx off 1;
            Atomic.set locked true;
            await waiting;
            (* give the peer time to block on the offset *)
            Unix.sleepf 0.05;
            Atomic.set early (Atomic.get got);
            match ending with
            | `Commit -> ()
            | `Abort -> raise Exit
            | `Crash ->
                Pmem.Device.set_crash_countdown dev 1;
                Pmem.Device.fence dev)
      with
      | () | (exception (Exit | Pmem.Device.Crashed)) -> ()
    and peer () =
      await locked;
      match
        Pool_impl.transaction pool (fun tx ->
            Atomic.set waiting true;
            Pool_impl.tx_lock tx off;
            Atomic.set got true)
      with
      | () | (exception (Pmem.Device.Crashed | Pool_impl.Pool_closed)) -> ()
    in
    let what =
      match ending with `Commit -> "commit" | `Abort -> "abort" | `Crash -> "crash"
    in
    join_within what [ holder; peer ];
    check_bool (what ^ ": peer blocked while held") false (Atomic.get early);
    check_bool (what ^ ": peer took the offset") true (Atomic.get got)
  in
  run `Commit;
  run `Abort;
  run `Crash

(* Locking an offset the running transaction already holds returns at
   once, from a nested transaction too, and the end of the transaction
   releases it for another domain. *)
let test_relock_does_not_block () =
  let pool = Pool_impl.create ~config:small () in
  let off = Pool_impl.transaction pool (fun tx -> Pool_impl.tx_alloc tx 64) in
  let relock () =
    Pool_impl.transaction pool (fun tx ->
        Pool_impl.tx_lock tx off;
        Pool_impl.tx_lock tx off;
        Pool_impl.transaction pool (fun tx' -> Pool_impl.tx_lock tx' off))
  in
  join_within "re-lock" [ relock ];
  join_within "lock after release" [ relock ]

(* The held-locks table allocates nothing per lock: transactions that
   each lock a fresh offset allocate no more minor words than as many
   that lock nothing. *)
let test_lock_allocs () =
  let pool = Pool_impl.create ~config:small () in
  let n = 100_000 in
  let words f =
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      Pool_impl.transaction pool (fun tx -> f tx (64 * i))
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let bare = words (fun _ _ -> ()) in
  let locked = words Pool_impl.tx_lock in
  if locked -. bare > 0.5 then
    Alcotest.failf "a lock costs %.2f minor words (%.2f vs %.2f per transaction)"
      (locked -. bare) locked bare

let test_pool_inspect_roundtrip () =
  let module P = Pool.Make () in
  P.create ~config:small ();
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 5) () in
  P.transaction (fun j -> Pbox.set root 6 j);
  let dev = Pool_impl.device (P.impl ()) in
  let info = Pool_inspect.inspect_device dev in
  check_bool "magic" true info.Pool_inspect.magic_ok;
  check_int "generation" (Pool_impl.generation (P.impl ()))
    info.Pool_inspect.generation;
  check_int "root offset agrees" (Pool_impl.root_off (P.impl ()))
    info.Pool_inspect.root_off;
  check_int "live blocks agree" (P.stats ()).Pool_impl.live_blocks
    info.Pool_inspect.live_blocks;
  check_bool "all slots idle outside tx" true
    (List.for_all (fun s -> s = Pool_inspect.Idle) info.Pool_inspect.slots);
  (* a crash image shows the active slot *)
  Pmem.Device.set_crash_countdown dev 5;
  (try P.transaction (fun j -> Pbox.set root 9 j)
   with Pmem.Device.Crashed -> ());
  Pmem.Device.power_cycle dev;
  let info = Pool_inspect.inspect_device dev in
  check_bool "active slot visible in crash image" true
    (List.exists
       (function Pool_inspect.Active _ -> true | _ -> false)
       info.Pool_inspect.slots)

let () =
  Alcotest.run "corundum_concurrency"
    [
      ( "domains",
        [
          Alcotest.test_case "journal slot contention" `Slow
            test_slot_contention;
          Alcotest.test_case "isolation under lock" `Slow
            test_isolation_under_lock;
          Alcotest.test_case "parallel independent pools" `Slow
            test_parallel_pools;
        ] );
      ( "multi-pool",
        [
          Alcotest.test_case "two pools, nested txs" `Quick test_two_pools;
          Alcotest.test_case "closed pool handles" `Quick
            test_closed_pool_handles;
        ] );
      ( "shared pool",
        [
          Alcotest.test_case "domain-slot binding" `Quick test_domain_binding;
          Alcotest.test_case "atomic stats counters exact" `Slow
            test_shared_counters_exact;
          Alcotest.test_case "group commit epochs" `Slow
            test_group_commit_shared_pool;
          Alcotest.test_case "group leader failure" `Quick
            test_group_leader_failure;
          Alcotest.test_case "closure waits for a dirty peer" `Quick
            test_closure_waits_for_dirty_peer;
          Alcotest.test_case "closure skips a peer blocked on a lock" `Quick
            test_closure_skips_blocked_peer;
          Alcotest.test_case "closure ignores read-only peers" `Quick
            test_closure_ignores_readers;
          Alcotest.test_case "closure woken by abort or crash" `Quick
            test_closure_wakes_on_abort_or_crash;
          Alcotest.test_case "commit crash releases locks" `Quick
            test_commit_crash_releases;
          Alcotest.test_case "lock waiter wakes on any end" `Quick
            test_lock_waiter_wakes;
          Alcotest.test_case "re-lock does not block" `Quick
            test_relock_does_not_block;
          Alcotest.test_case "lock allocates nothing" `Quick test_lock_allocs;
        ] );
      ( "inspect",
        [
          Alcotest.test_case "pool_inspect roundtrip" `Quick
            test_pool_inspect_roundtrip;
        ] );
    ]
