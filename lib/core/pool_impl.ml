exception Pool_closed
exception Tx_escape
exception Borrow_error of string
exception Recovery_needed of string
exception Read_only_pool

module D = Pmem.Device
module B = Palloc.Buddy
module T = Palloc.Alloc_table
module J = Pjournal.Journal_impl
module GC = Pjournal.Group_commit
module R = Pjournal.Recovery
module Pr = Ptelemetry.Probe
module H = Pool_header
module IP = Palloc.Int_pairs
module IM = Map.Make (Int)

type open_mode = Read_write | Read_only

type config = { size : int; nslots : int; slot_size : int }

let default_config = { size = 64 * 1024 * 1024; nslots = 8; slot_size = 256 * 1024 }

type t = {
  dev : D.t;
  buddy : B.t;
  uid : int;
  mutable open_ : bool;
  read_only : bool;
  nslots : int;
  slot_size : int;
  journal_base : int;
  table_base : int;
  heap_base : int;
  heap_len : int;
  slots : slot array;
  (* Only a transaction that finds every slot busy takes [slot_lock],
     to wait on [slot_cond]; [waiters] tells a releaser to signal. *)
  slot_lock : Mutex.t;
  slot_cond : Condition.t;
  waiters : int Atomic.t;
  (* Cross-transaction group-commit combiner: when set, every commit on
     this pool publishes its line set to the epoch combiner instead of
     flushing and fencing privately.  Volatile — rebuilt fresh on every
     open, never reused across a power cycle. *)
  mutable combiner : GC.t option;
  locks : IP.t; (* held offset -> owner domain, under [locks_lock] *)
  locks_lock : Mutex.t;
  locks_cond : Condition.t;
  mutable lock_waiters : int; (* blocked on [locks_cond] for a release *)
  borrows : (int, unit) Hashtbl.t;
  borrows_lock : Mutex.t;
  births : int Atomic.t IM.t Atomic.t; (* counters of offsets [birth] saw *)
  recovery : R.stats;
  (* Volatile statistics counters.  Atomic because transactions on a
     shared pool bump them from several domains concurrently; plain
     mutable ints would lose increments under contention. *)
  n_tx : int Atomic.t;
  n_abort : int Atomic.t;
  n_logs : int Atomic.t;
  n_allocs : int Atomic.t;
  n_frees : int Atomic.t;
  n_logged_bytes : int Atomic.t;
  (* Lifetime totals read from the header at open; the volatile [n_tx] /
     [n_abort] deltas are folded back into the header only at {!save} and
     {!close}, so steady-state commits add no persist points. *)
  lifetime_tx0 : int;
  lifetime_abort0 : int;
}

(* One journal slot's volatile state.  A domain finds its running
   transaction, or its registered slot, by scanning the [nslots]
   entries: only that domain writes an entry naming it, so the scan
   needs no lock. *)
and slot = {
  journal : J.t;
  joinable : GC.joinable option; (* boxed once *)
  busy : bool Atomic.t; (* held by a transaction or a registered domain *)
  (* Shared-pool domain binding: a registered domain owns one dedicated
     journal slot (and with it that slot's allocator stripe) for its
     whole registration, so its transactions never contend on slot
     acquisition. *)
  mutable bound_to : int; (* registered domain id, or -1 *)
  mutable active : tx option; (* the transaction running on this slot *)
  mutable held : int array; (* offsets its transaction locked, [nheld] of them *)
  mutable nheld : int;
}

and tx = {
  pool : t;
  jrnl : J.t;
  slot_idx : int;
  bound : bool; (* slot owned by a registered domain: not released at end *)
  domain : int;
  group : GC.t option; (* the combiner this transaction commits through *)
  mutable depth : int;
  valid : bool ref;
  mutable borrowed : int list;
}

let next_uid = Atomic.make 1

let check_open t = if not t.open_ then raise Pool_closed
let is_open t = t.open_
let is_read_only t = t.read_only
let check_writable t = if t.read_only then raise Read_only_pool
let uid t = t.uid
let device t = t.dev
let buddy t = t.buddy
let recovery_stats t = t.recovery
let generation t = D.read_int t.dev H.hdr_generation
let root_off t = D.read_int t.dev H.hdr_root
let root_ty_hash t = D.read_int t.dev H.hdr_root_hash

(* Compute the media layout for a device of [size] bytes. *)
let layout ~size ~nslots ~slot_size =
  let table_base = H.header_size + (nslots * slot_size) in
  if table_base >= size then invalid_arg "Pool_impl: pool too small for journals";
  (* heap + table share the rest; the table is 1/64 of the heap *)
  let budget = size - table_base in
  let heap_len = ref (budget * 64 / 65 / 64 * 64) in
  let heap_base_of len = (table_base + T.table_bytes ~heap_len:len + 63) / 64 * 64 in
  while !heap_len > 0 && heap_base_of !heap_len + !heap_len > size do
    heap_len := !heap_len - 64
  done;
  if !heap_len <= 0 then invalid_arg "Pool_impl: pool too small for a heap";
  (table_base, heap_base_of !heap_len, !heap_len)

let build ?(read_only = false) dev ~buddy ~nslots ~slot_size ~table_base
    ~heap_base ~heap_len ~recovery =
  let slots =
    Array.init nslots (fun i ->
        {
          (* each slot prefers its own allocator stripe *)
          journal =
            J.attach ~alloc_hint:i dev buddy
              ~base:(H.header_size + (i * slot_size))
              ~size:slot_size;
          joinable = Some (GC.joinable ());
          busy = Atomic.make false;
          bound_to = -1;
          active = None;
          held = Array.make 8 0;
          nheld = 0;
        })
  in
  if Pr.on () then begin
    Pr.emit
      (Pr.Pool_layout
         {
           dev = D.id dev;
           journal_base = H.header_size;
           slot_size;
           nslots;
           table_base;
           heap_base;
           heap_len;
           cow_base = Cow_root.base;
           cow_len = Cow_root.region_len;
         })
  end;
  {
    dev;
    buddy;
    uid = Atomic.fetch_and_add next_uid 1;
    open_ = true;
    read_only;
    nslots;
    slot_size;
    journal_base = H.header_size;
    table_base;
    heap_base;
    heap_len;
    slots;
    slot_lock = Mutex.create ();
    slot_cond = Condition.create ();
    waiters = Atomic.make 0;
    combiner = None;
    locks = IP.create ();
    locks_lock = Mutex.create ();
    locks_cond = Condition.create ();
    lock_waiters = 0;
    borrows = Hashtbl.create 64;
    borrows_lock = Mutex.create ();
    births = Atomic.make IM.empty;
    recovery;
    n_tx = Atomic.make 0;
    n_abort = Atomic.make 0;
    n_logs = Atomic.make 0;
    n_allocs = Atomic.make 0;
    n_frees = Atomic.make 0;
    n_logged_bytes = Atomic.make 0;
    lifetime_tx0 = D.read_int dev H.hdr_tx_total;
    lifetime_abort0 = D.read_int dev H.hdr_abort_total;
  }

let bump_generation dev =
  D.write_int dev H.hdr_generation (D.read_int dev H.hdr_generation + 1);
  D.persist dev H.hdr_generation 8

let create ?(config = default_config) ?latency ?path () =
  let { size; nslots; slot_size } = config in
  let dev = D.create ?latency ?path ~size () in
  let table_base, heap_base, heap_len = layout ~size ~nslots ~slot_size in
  (* Format: header, journal slots, allocation table. *)
  D.write_string dev 0 H.magic;
  D.write_int dev H.hdr_version H.version;
  D.write_int dev H.hdr_generation 1;
  D.write_int dev H.hdr_root 0;
  D.write_int dev H.hdr_root_hash 0;
  D.write_int dev H.hdr_nslots nslots;
  D.write_int dev H.hdr_slot_size slot_size;
  D.write_int dev H.hdr_heap_len heap_len;
  D.write_int dev H.hdr_table_base table_base;
  D.write_int dev H.hdr_heap_base heap_base;
  D.write_int dev H.hdr_csum (H.header_crc dev);
  D.persist dev 0 H.header_size;
  for i = 0 to nslots - 1 do
    J.format dev ~base:(H.header_size + (i * slot_size)) ~size:slot_size
  done;
  let buddy = B.create ~stripes:nslots dev ~table_base ~heap_base ~heap_len in
  build dev ~buddy ~nslots ~slot_size ~table_base ~heap_base ~heap_len
    ~recovery:R.empty_stats

(* Attach to formatted media: verify the header, run recovery, rebuild.
   In [Read_only] mode nothing is written — recovery and the generation
   bump are skipped — so a damaged-but-readable pool can still be
   salvaged; reads may then observe uncommitted in-flight data. *)
let attach ?(mode = Read_write) dev =
  if not (H.has_magic dev) then
    raise (Recovery_needed "bad magic: not a Corundum pool");
  let v = D.read_int dev H.hdr_version in
  if v <> H.version then
    raise (Recovery_needed (Printf.sprintf "unsupported pool version %d" v));
  if mode = Read_write && not (H.header_crc_ok dev) then
    raise
      (Recovery_needed
         "pool header checksum mismatch (run fsck, or open read-only)");
  let nslots = D.read_int dev H.hdr_nslots in
  let slot_size = D.read_int dev H.hdr_slot_size in
  let heap_len = D.read_int dev H.hdr_heap_len in
  let table_base = D.read_int dev H.hdr_table_base in
  let heap_base = D.read_int dev H.hdr_heap_base in
  (* The buddy attach reads no table byte: each stripe builds its free
     lists from its own slice of the table at its first use. *)
  let buddy = B.attach ~stripes:nslots dev ~table_base ~heap_base ~heap_len in
  let recovery =
    match mode with
    | Read_only -> R.empty_stats
    | Read_write ->
        let t0 = D.simulated_ns dev in
        (* Recovery restores logged heap state outside any transaction —
           that is the protocol, not a violation, so the audit window is
           bracketed as exempt. *)
        if Pr.on () then Pr.emit (Pr.Exempt_push { dev = D.id dev });
        let r =
          Fun.protect
            ~finally:(fun () ->
              if Pr.on () then Pr.emit (Pr.Exempt_pop { dev = D.id dev }))
            (fun () ->
              R.recover dev (B.table buddy) ~journal_base:H.header_size ~slot_size
                ~nslots)
        in
        let cs0 = D.simulated_ns dev in
        (* The open-time recovery summary: journal recovery (walk,
           rollback, drops, remark, truncate across all slots). *)
        if Pr.on () then
          Pr.emit
            (Pr.Recovery
               {
                 dev = D.id dev;
                 ns = cs0;
                 dur_ns = cs0 -. t0;
                 slots = r.R.slots_scanned;
                 rolled_back = r.R.rolled_back;
                 completed = r.R.completed;
                 entries_skipped = r.R.entries_skipped;
               });
        (* CoW root cells: resolve any pending intent (roll the
           interrupted mod-engine transaction forward or back).  A
           rollback edits allocation-table bytes, so any stripe lists
           built from them are dropped. *)
        let cst = Cow_root.recover dev (B.table buddy) in
        if cst.Cow_root.table_edited then B.rebuild buddy;
        let cs1 = D.simulated_ns dev in
        if Pr.on () && (cst.Cow_root.rolled_forward > 0 || cst.Cow_root.rolled_back > 0)
        then
          Pr.emit
            (Pr.Recovery_phase
               { dev = D.id dev; phase = "cow"; ns = cs1; dur_ns = cs1 -. cs0 });
        if cs1 > cs0 then
          { r with R.phase_ns = R.add_phase "cow" (cs1 -. cs0) r.R.phase_ns }
        else r
  in
  if mode = Read_write then bump_generation dev;
  build ~read_only:(mode = Read_only) dev ~buddy ~nslots ~slot_size ~table_base
    ~heap_base ~heap_len ~recovery

let open_file ?(mode = Read_write) ?latency path =
  attach ~mode (D.load ?latency path)

let reopen t =
  t.open_ <- false;
  D.power_cycle t.dev;
  attach t.dev

(* Fold the volatile transaction totals into the header.  Called only at
   save/close so ordinary commits stay free of extra persist points; a
   crash loses at most the counts since the last save (the counters are
   statistics, not correctness state). *)
let persist_lifetime_totals t =
  if not (D.is_crashed t.dev) then begin
    D.write_int t.dev H.hdr_tx_total (t.lifetime_tx0 + Atomic.get t.n_tx);
    D.write_int t.dev H.hdr_abort_total (t.lifetime_abort0 + Atomic.get t.n_abort);
    D.persist t.dev H.hdr_tx_total 16
  end

let save t =
  check_open t;
  check_writable t;
  persist_lifetime_totals t;
  D.save t.dev

let close t =
  check_open t;
  if Array.exists (fun s -> s.active <> None) t.slots then
    invalid_arg "Pool_impl.close: transactions in progress";
  if not t.read_only then begin
    persist_lifetime_totals t;
    if D.path t.dev <> None then D.save t.dev
  end;
  t.open_ <- false

(* {1 Transaction engine} *)

let tx_pool tx = tx.pool
let tx_valid tx = !(tx.valid)
let tx_validity tx = tx.valid
let tx_journal tx = if !(tx.valid) then tx.jrnl else raise Tx_escape

(* The first free slot, claimed; -1 when every slot is busy. *)
let try_acquire t =
  let rec go i =
    if i >= t.nslots then -1
    else if Atomic.compare_and_set t.slots.(i).busy false true then i
    else go (i + 1)
  in
  go 0

(* A waiter counts itself before its last scan, and a releaser frees
   its slot before reading the count: either the scan sees the free
   slot or the releaser sees the waiter and signals it. *)
let acquire_slot t =
  match try_acquire t with
  | -1 ->
      Mutex.lock t.slot_lock;
      Atomic.incr t.waiters;
      let rec wait () =
        match try_acquire t with
        | -1 ->
            Condition.wait t.slot_cond t.slot_lock;
            wait ()
        | i -> i
      in
      let i = wait () in
      Atomic.decr t.waiters;
      Mutex.unlock t.slot_lock;
      i
  | i -> i

let release_slot t i =
  Atomic.set t.slots.(i).busy false;
  if Atomic.get t.waiters > 0 then begin
    Mutex.lock t.slot_lock;
    Condition.signal t.slot_cond;
    Mutex.unlock t.slot_lock
  end

(* The slot registered to domain [did], or -1. *)
let bound_slot t did =
  let rec go i =
    if i >= t.nslots then -1 else if t.slots.(i).bound_to = did then i else go (i + 1)
  in
  go 0

(* The transaction domain [did] is running, if any. *)
let running_tx t did =
  let rec go i =
    if i >= t.nslots then None
    else
      match t.slots.(i).active with
      | Some tx as r when tx.domain = did -> r
      | _ -> go (i + 1)
  in
  go 0

(* {1 Shared-pool domain binding and group commit}

   A worker domain on a shared pool registers once up front and owns a
   dedicated journal slot — and, through the slot's [alloc_hint], its own
   allocator stripe — until it unregisters.  Its transactions then skip
   slot acquisition entirely: no contention on [slot_lock] waiting, no
   slot migration between transactions, and the slot index doubles as a
   stable per-domain identity for inspection. *)

let register_domain t =
  check_open t;
  let did = (Domain.self () :> int) in
  match bound_slot t did with
  | -1 -> (
      match try_acquire t with
      | -1 ->
          invalid_arg
            "Pool_impl.register_domain: no free journal slot (raise nslots)"
      | i ->
          t.slots.(i).bound_to <- did;
          i)
  | i -> i (* idempotent: already bound *)

let unregister_domain t =
  let did = (Domain.self () :> int) in
  if running_tx t did <> None then
    invalid_arg "Pool_impl.unregister_domain: transaction in progress";
  match bound_slot t did with
  | -1 -> ()
  | i ->
      t.slots.(i).bound_to <- -1;
      release_slot t i

let slot_of_domain t =
  match bound_slot t (Domain.self () :> int) with -1 -> None | i -> Some i

let set_group_commit t enabled =
  check_open t;
  t.combiner <- (if enabled then Some (GC.create t.dev) else None)

let group_commit_stats t = Option.map GC.stats t.combiner

(* The closure rule's mark: set on a transaction's first dirtying call. *)
let mark tx =
  match (tx.group, tx.pool.slots.(tx.slot_idx).joinable) with
  | Some gc, Some j -> GC.mark gc j
  | _ -> ()

let unmark tx =
  match (tx.group, tx.pool.slots.(tx.slot_idx).joinable) with
  | Some gc, Some j -> GC.unmark gc j
  | _ -> false

let release_locks tx =
  let t = tx.pool and s = tx.pool.slots.(tx.slot_idx) in
  if s.nheld > 0 then begin
    Mutex.lock t.locks_lock;
    for i = 0 to s.nheld - 1 do
      IP.remove t.locks s.held.(i)
    done;
    if t.lock_waiters > 0 then Condition.broadcast t.locks_cond;
    Mutex.unlock t.locks_lock;
    s.nheld <- 0
  end

let clear_borrows tx =
  if tx.borrowed <> [] then begin
    let t = tx.pool in
    Mutex.lock t.borrows_lock;
    List.iter (fun off -> Hashtbl.remove t.borrows off) tx.borrowed;
    Mutex.unlock t.borrows_lock;
    tx.borrowed <- []
  end

let unregister tx =
  let t = tx.pool in
  tx.valid := false;
  ignore (unmark tx : bool);
  t.slots.(tx.slot_idx).active <- None;
  if not tx.bound then release_slot t tx.slot_idx

let finish_commit tx =
  let joinable = tx.pool.slots.(tx.slot_idx).joinable in
  (match J.commit ?group:tx.group ?joinable tx.jrnl with
  | () -> ()
  | exception e ->
      ignore (unmark tx : bool);
      raise e);
  release_locks tx;
  clear_borrows tx;
  unregister tx;
  Atomic.incr tx.pool.n_tx;
  ignore
    (Atomic.fetch_and_add tx.pool.n_logged_bytes (J.tx_logged_bytes tx.jrnl))

let finish_abort tx =
  J.abort tx.jrnl;
  release_locks tx;
  clear_borrows tx;
  unregister tx;
  Atomic.incr tx.pool.n_abort;
  ignore
    (Atomic.fetch_and_add tx.pool.n_logged_bytes (J.tx_logged_bytes tx.jrnl))

(* The probe outcome event after each finisher carries the transaction's
   logging attribution; [simulated_ns] is a pure counter fold, safe even
   on a crashed device. *)
let probe_end tx outcome ~undo_depth =
  if Pr.on () then begin
    let dev = tx.pool.dev in
    Pr.emit
      (Pr.Tx_end
         {
           dev = D.id dev;
           outcome;
           ns = D.simulated_ns dev;
           logged_bytes = J.tx_logged_bytes tx.jrnl;
           undo_depth;
         })
  end

(* A simulated power failure, raised by the body, the commit or the
   abort: the media is frozen, so neither commit nor abort may run;
   drop the volatile transaction state and propagate. *)
let finish_crashed tx ~undo_depth =
  release_locks tx;
  clear_borrows tx;
  unregister tx;
  tx.pool.open_ <- false;
  probe_end tx Pr.Crash ~undo_depth;
  raise D.Crashed

let transaction t f =
  check_open t;
  check_writable t;
  let did = (Domain.self () :> int) in
  match running_tx t did with
  | Some tx ->
      (* Nested transaction: flatten onto the enclosing one. *)
      tx.depth <- tx.depth + 1;
      Fun.protect ~finally:(fun () -> tx.depth <- tx.depth - 1) (fun () -> f tx)
  | None ->
      (* a registered domain runs on its dedicated slot *)
      let slot_idx = bound_slot t did in
      let bound = slot_idx >= 0 in
      let slot_idx = if bound then slot_idx else acquire_slot t in
      let slot = t.slots.(slot_idx) in
      let jrnl = slot.journal in
      (match J.begin_tx jrnl with
      | () -> ()
      | exception e ->
          if not bound then release_slot t slot_idx;
          raise e);
      let tx =
        {
          pool = t;
          jrnl;
          slot_idx;
          bound;
          domain = did;
          group = t.combiner;
          depth = 0;
          valid = ref true;
          borrowed = [];
        }
      in
      slot.active <- Some tx;
      if Pr.on () then
        Pr.emit
          (Pr.Tx_begin { dev = D.id t.dev; ns = D.simulated_ns t.dev; slot = slot_idx });
      (match f tx with
      | result -> (
          let undo_depth = J.entry_count jrnl in
          match finish_commit tx with
          | () ->
              probe_end tx Pr.Commit ~undo_depth;
              result
          | exception D.Crashed -> finish_crashed tx ~undo_depth)
      | exception D.Crashed -> finish_crashed tx ~undo_depth:(J.entry_count jrnl)
      | exception e ->
          let undo_depth = J.entry_count jrnl in
          (match finish_abort tx with
          | () -> ()
          | exception D.Crashed -> finish_crashed tx ~undo_depth);
          probe_end tx Pr.Abort ~undo_depth;
          raise e)

(* {1 Logged heap operations} *)

let live_tx tx = if not !(tx.valid) then raise Tx_escape

let bump_birth t off =
  Option.iter Atomic.incr (IM.find_opt off (Atomic.get t.births))

let tx_alloc tx size =
  live_tx tx;
  mark tx;
  let off = J.alloc tx.jrnl size in
  Atomic.incr tx.pool.n_allocs;
  bump_birth tx.pool off;
  off

let tx_free tx off =
  live_tx tx;
  mark tx;
  Atomic.incr tx.pool.n_frees;
  J.free tx.jrnl off

let tx_log tx ~off ~len =
  live_tx tx;
  mark tx;
  Atomic.incr tx.pool.n_logs;
  J.data_log tx.jrnl ~off ~len

let tx_set_int tx off v =
  tx_log tx ~off ~len:8;
  D.write_int tx.pool.dev off v

let tx_log_nodedup tx ~off ~len =
  live_tx tx;
  mark tx;
  Atomic.incr tx.pool.n_logs;
  J.data_log_nodedup tx.jrnl ~off ~len

let tx_add_target tx ~off ~len =
  live_tx tx;
  mark tx;
  J.add_target tx.jrnl ~off ~len

let tx_set_root tx ~off ~ty_hash =
  live_tx tx;
  mark tx;
  J.data_log tx.jrnl ~off:H.hdr_root ~len:16;
  D.write_int tx.pool.dev H.hdr_root off;
  D.write_int tx.pool.dev H.hdr_root_hash ty_hash

(* {1 Volatile side tables} *)

let tx_lock tx off =
  live_tx tx;
  let t = tx.pool in
  Mutex.lock t.locks_lock;
  let owner = IP.find t.locks off in
  if owner <> tx.domain then begin
    if owner <> -1 then begin
      (* Contended: the holder may be an epoch leader or member that
         keeps the offset across commit, so stop holding an epoch open
         while blocked, and take the mark back once the offset is ours. *)
      let was_marked = unmark tx in
      t.lock_waiters <- t.lock_waiters + 1;
      while IP.find t.locks off <> -1 do
        Condition.wait t.locks_cond t.locks_lock
      done;
      t.lock_waiters <- t.lock_waiters - 1;
      if was_marked then mark tx
    end;
    let s = t.slots.(tx.slot_idx) in
    IP.add t.locks off tx.domain;
    if s.nheld = Array.length s.held then s.held <- Array.append s.held s.held;
    s.held.(s.nheld) <- off;
    s.nheld <- s.nheld + 1
  end;
  Mutex.unlock t.locks_lock

let borrow_mut_flag tx off =
  live_tx tx;
  let t = tx.pool in
  Mutex.lock t.borrows_lock;
  let dup = Hashtbl.mem t.borrows off in
  if not dup then Hashtbl.add t.borrows off ();
  Mutex.unlock t.borrows_lock;
  if dup then
    raise
      (Borrow_error
         (Printf.sprintf "cell at %d is already mutably borrowed" off));
  tx.borrowed <- off :: tx.borrowed

let release_borrow_flag t off =
  Mutex.lock t.borrows_lock;
  Hashtbl.remove t.borrows off;
  Mutex.unlock t.borrows_lock

let is_borrowed t off =
  Mutex.lock t.borrows_lock;
  let r = Hashtbl.mem t.borrows off in
  Mutex.unlock t.borrows_lock;
  r

let rec birth t off =
  let m = Atomic.get t.births in
  match IM.find_opt off m with
  | Some n -> Atomic.get n
  | None ->
      if Atomic.compare_and_set t.births m (IM.add off (Atomic.make 0) m) then 0
      else birth t off

(* {1 Accounting} *)

type pool_stats = {
  heap_capacity : int;
  heap_used : int;
  live_blocks : int;
  transactions : int;
  aborts : int;
  log_requests : int;
  allocations : int;
  frees : int;
  logged_bytes : int;
  lifetime_transactions : int;
  lifetime_aborts : int;
}

let stats t =
  {
    heap_capacity = B.capacity t.buddy;
    heap_used = B.used_bytes t.buddy;
    live_blocks = Palloc.Heap_walk.live_count t.buddy;
    transactions = Atomic.get t.n_tx;
    aborts = Atomic.get t.n_abort;
    log_requests = Atomic.get t.n_logs;
    allocations = Atomic.get t.n_allocs;
    frees = Atomic.get t.n_frees;
    logged_bytes = Atomic.get t.n_logged_bytes;
    lifetime_transactions = t.lifetime_tx0 + Atomic.get t.n_tx;
    lifetime_aborts = t.lifetime_abort0 + Atomic.get t.n_abort;
  }
