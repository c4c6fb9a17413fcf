(** The minimally-ordered CoW strategy (the "mod" engine): no undo log
    on the hot path.

    Every store is classified once, volatilely:

    - into a block this transaction reserved → a {e shadow} store,
      written in place immediately (the block is unreachable until
      commit, so it needs no coverage beyond its allocation);
    - anywhere else → a {e publish}: the 8-byte word is recorded
      (address, old, new) in a volatile write-set and applied to its
      home location only {e after} the commit fence, redo-covered by
      the sealed intent record.

    Commit interprets {!Pjournal.Protocol.cow_commit_plan}: the intent
    record (allocated/retired blocks, publish words, the new root
    pointer) is sealed under its own fence {e first} — so a durable
    allocation mark implies a durable intent.  The seal alternates
    between the cell's two record slots (generation parity), so the
    predecessor's intent survives until a fence has drained its
    unfenced commit tail — overwriting a single slot could destroy the
    only record able to roll that tail forward.  Then shadow lines and
    table marks are flushed as coalesced runs under the single commit
    fence, then the publish words and the packed root word land
    unfenced (buffered durability: the next fence from any transaction,
    or recovery's roll-forward, completes them).  Retired blocks add a
    trailing fence ordering the swap before their table clears.

    Per-op persist cost at the fence floor: an in-place update is
    3 flushes / 1 fence (intent, publish word, root word — the commit
    fence doubles as the seal); alloc+write is 4 flushes / 2 fences;
    free is 3 flushes / 2 fences.  There is no per-store logging, no
    log truncation, and no undo restore on any path.

    Recovery ({!Corundum.Cow_root.recover}, run at pool attach)
    compares the intent generation against the root word's and rolls
    the transaction forward (commit word or first publish word landed)
    or back (orphaned marks cleared) with idempotent durable stores.

    The root word holds the root block's {e actual} offset — the root
    is never relocated, so its address may be captured freely inside
    the structure (a B+-tree demoting its root to an interior node is
    sound).  Writers serialize on one engine-level mutex; {!lock} is
    therefore a no-op.  The generation wraps at 2^24: a crash landing
    exactly on a wrapping transaction rolls it back silently — noted,
    not defended. *)

module P = Corundum.Pool_impl
module R = Corundum.Cow_root
module B = Palloc.Buddy
module D = Pmem.Device
module Pr = Ptelemetry.Probe
module Proto = Pjournal.Protocol
module LB = Pjournal.Line_buf

let name = "mod"
let cell = 0

(* The volatile write-set of one open transaction. *)
type pending = {
  mutable resvs : (B.reservation * int * int) list;  (* res, off, size *)
  mutable frees : (int * int * int) list;  (* off, order, size *)
  mutable pub_order : int list;  (* publish addresses, newest first *)
  pub_old : (int, int64) Hashtbl.t;
  pub_new : (int, int64) Hashtbl.t;  (* read-own-writes view *)
  shadow_lines : LB.t;  (* device line numbers to flush *)
  mutable pending_root : int option;
  mutable marked : bool;  (* reservations committed to the table *)
  mutable spill : B.reservation option;  (* this commit's spill block *)
}

type t = {
  pool : P.t;
  mutable ptr : int;  (* root block offset, 0 = unset *)
  mutable gen : int;
  prev_spill : B.reservation option array;
      (* per intent slot: the last sealed record's spill block, held
         un-reusable until the next seal overwrites that slot —
         recovery may still need to read it *)
  mu : Mutex.t;
  open_txs : (int, pending) Hashtbl.t;  (* domain id -> open tx *)
}

type tx = { eng : t; px : pending }

let of_pool pool =
  let ptr, gen = R.read cell (P.device pool) in
  {
    pool;
    ptr;
    gen;
    prev_spill = Array.make R.slots None;
    mu = Mutex.create ();
    open_txs = Hashtbl.create 4;
  }

let create ?latency ?size () =
  of_pool (Engine_common.create_pool ?latency ?size ())

let pool t = t.pool

let fresh_pending () =
  {
    resvs = [];
    frees = [];
    pub_order = [];
    pub_old = Hashtbl.create 8;
    pub_new = Hashtbl.create 8;
    shadow_lines = LB.create ();
    pending_root = None;
    marked = false;
    spill = None;
  }

(* {1 The write-set} *)

let read tx off =
  match Hashtbl.find_opt tx.px.pub_new off with
  | Some v -> v
  | None -> D.read_u64 (P.device tx.eng.pool) off

let in_resv px off =
  List.exists (fun (_, o, s) -> off >= o && off < o + s) px.resvs

let write tx off v =
  let px = tx.px in
  let dev = P.device tx.eng.pool in
  if in_resv px off then begin
    D.write_u64 dev off v;
    LB.add px.shadow_lines (off lsr 6)
  end
  else begin
    if not (Hashtbl.mem px.pub_old off) then begin
      px.pub_order <- off :: px.pub_order;
      Hashtbl.replace px.pub_old off (D.read_u64 dev off)
    end;
    Hashtbl.replace px.pub_new off v
  end

let alloc tx n =
  let b = P.buddy tx.eng.pool in
  let r = B.reserve b n in
  let off = B.offset_of_reservation b r in
  let size = B.size_of_order r.B.r_order in
  tx.px.resvs <- (r, off, size) :: tx.px.resvs;
  if Pr.on () then begin
    let dev = P.device tx.eng.pool in
    Pr.emit (Pr.Alloc { dev = D.id dev; off; len = size; entry = 0; ns = D.simulated_ns dev })
  end;
  off

let free tx off =
  let px = tx.px in
  let b = P.buddy tx.eng.pool in
  match List.partition (fun (_, o, _) -> o = off) px.resvs with
  | (r, o, s) :: _, rest ->
      (* own-transaction allocation: unwind it volatilely *)
      px.resvs <- rest;
      LB.remove_lines px.shadow_lines ~first:(o lsr 6) ~last:((o + s - 1) lsr 6);
      B.cancel b r
  | [], _ -> (
      match B.block_size b off with
      | None -> raise (B.Invalid_free off)
      | Some s -> px.frees <- (off, B.order_of_size s, s) :: px.frees)

let root tx =
  match tx.px.pending_root with Some o -> o | None -> tx.eng.ptr

let set_root tx off = tx.px.pending_root <- Some off

let lock _tx _off = ()  (* writers serialize on the engine mutex *)

(* {1 Commit: the cow_commit_plan, interpreted} *)

let commit t px =
  let dev = P.device t.pool and b = P.buddy t.pool in
  let devid = D.id dev in
  let new_ptr = match px.pending_root with Some o -> o | None -> t.ptr in
  (* Coalesced publish set, oldest-first.  No-op publishes are dropped —
     the first publish word doubles as the commit indicator, so it must
     actually change — and so are publishes into blocks this transaction
     retires (their home stores would land in freed memory). *)
  let pubs =
    List.fold_left
      (fun acc addr ->
        let oldv = Hashtbl.find px.pub_old addr
        and newv = Hashtbl.find px.pub_new addr in
        if oldv = newv then acc
        else if List.exists (fun (o, _, s) -> addr >= o && addr < o + s) px.frees
        then acc
        else (addr, oldv, newv) :: acc)
      [] px.pub_order
  in
  let has_allocs = px.resvs <> [] and has_frees = px.frees <> [] in
  let has_shadow = (not (LB.is_empty px.shadow_lines)) || pubs <> [] in
  if has_allocs || has_frees || has_shadow || px.pending_root <> None then begin
    let igen = (t.gen + 1) land R.gen_mask in
    let kind =
      match pubs with
      | [] -> if new_ptr = 0 then R.Gen_only else R.Swap new_ptr
      | ps -> R.Publish (new_ptr, ps)
    in
    let it =
      {
        R.igen;
        kind;
        allocs = List.map (fun (r, o, _) -> (o, r.B.r_order)) px.resvs;
        frees = List.map (fun (o, ord, _) -> (o, ord)) px.frees;
      }
    in
    let need_intent = has_allocs || has_frees || pubs <> [] in
    let slot = R.slot_of_igen igen in
    let sealed = ref false in
    let seal () =
      (* Redo coverage for the publish home stores, declared before the
         commit point (they land after it, replayable from the intent). *)
      if Pr.on () then
        List.iter
          (fun (addr, _, _) ->
            Pr.emit
              (Pr.Log { dev = devid; off = addr; len = 8; entry = 0; ns = D.simulated_ns dev }))
          pubs;
      (if R.inline_ok it then R.write_intent cell dev it
       else begin
         let sr = B.reserve b (R.spill_bytes it) in
         px.spill <- Some sr;
         let soff = B.offset_of_reservation b sr in
         (* unreachable until the intent cell points at it: shadow state *)
         if Pr.on () then
           Pr.emit (Pr.Cow_shadow { dev = devid; off = soff; len = R.spill_bytes it });
         let crc = R.write_spill cell dev ~off:soff it in
         D.flush dev soff (R.spill_bytes it);
         R.write_intent_spilled cell dev ~spill_off:soff
           ~spill_order:sr.B.r_order ~content_crc:crc it
       end);
      R.flush_intent cell slot dev;
      (* this slot no longer references its previous spill block *)
      (match t.prev_spill.(slot) with Some r -> B.cancel b r | None -> ());
      t.prev_spill.(slot) <- None;
      sealed := true
    in
    let fenced = ref false and committed = ref false in
    let commit_point () =
      committed := true;
      if Pr.on () then
        Pr.emit (Pr.Commit_point { dev = devid; ns = D.simulated_ns dev })
    in
    let plan =
      Proto.cow_commit_plan ~allocs:has_allocs ~frees:has_frees
        ~shadow:has_shadow
    in
    List.iter
      (function
        | Proto.Seal_intent ->
            seal ();
            D.fence dev;
            fenced := true
        | Proto.Shadow_flush ->
            (* a publish-only transaction seals here: its intent rides
               the one flush batch under the commit fence *)
            if need_intent && not !sealed then seal ();
            List.iter
              (fun (r, _, _) ->
                B.commit b r;
                LB.add px.shadow_lines (B.mark_line b r))
              px.resvs;
            px.marked <- true;
            LB.flush dev px.shadow_lines
        | Proto.Commit_fence ->
            D.fence dev;
            fenced := true;
            commit_point ()
        | Proto.Root_swap ->
            (* An intent-less bare swap (plan = [Root_swap] alone) still
               fences first: its w0 store is its own commit word, and
               without the fence that word shares the write-pending
               queue with the predecessor's unfenced tail — a crash
               could land this commit while dropping the predecessor's,
               breaking the monotone prefix order every other plan gets
               from its seal or commit fence. *)
            if not !fenced then begin
              D.fence dev;
              fenced := true
            end;
            if not !committed then commit_point ();
            if pubs <> [] then begin
              let publines = LB.create () in
              List.iter
                (fun (addr, _, v) ->
                  D.write_u64 dev addr v;
                  LB.add publines (addr lsr 6))
                pubs;
              LB.flush dev publines
            end;
            R.store_swap cell dev ~ptr:new_ptr ~gen:igen;
            R.flush_swap cell dev
        | Proto.Retire_old ->
            D.fence dev;
            let clears = LB.create () in
            List.iter
              (fun (o, _, s) ->
                if Pr.on () then
                  Pr.emit (Pr.Cow_retire { dev = devid; off = o; len = s });
                B.dealloc ~durable:false b o;
                LB.add clears (B.line_of_offset b o))
              px.frees;
            LB.flush dev clears
        | _ -> assert false)
      plan;
    t.prev_spill.(slot) <- px.spill;
    px.spill <- None;
    t.ptr <- new_ptr;
    t.gen <- igen
  end

(* Abort is purely volatile: nothing of an uncommitted transaction is
   reachable or durable, so unwinding the reservations is the whole
   job.  (If the failure struck after the marks were committed, the
   table bytes are deallocated instead — the sealed intent makes either
   state recoverable.) *)
let abort t px =
  let b = P.buddy t.pool in
  List.iter
    (fun (r, o, _) ->
      if px.marked then B.dealloc b o else B.cancel b r)
    px.resvs;
  match px.spill with Some r -> B.cancel b r | None -> ()

let transaction t f =
  P.check_open t.pool;
  let dom = (Domain.self () :> int) in
  match Hashtbl.find_opt t.open_txs dom with
  | Some px -> f { eng = t; px }  (* nesting flattens onto the outer tx *)
  | None ->
      Mutex.lock t.mu;
      let px = fresh_pending () in
      Hashtbl.replace t.open_txs dom px;
      let dev = P.device t.pool in
      let devid = D.id dev in
      if Pr.on () then
        Pr.emit (Pr.Tx_begin { dev = devid; ns = D.simulated_ns dev; slot = 0 });
      let finish outcome =
        Hashtbl.remove t.open_txs dom;
        if Pr.on () then
          Pr.emit
            (Pr.Tx_end
               { dev = devid; outcome; ns = D.simulated_ns dev; logged_bytes = 0; undo_depth = 0 });
        Mutex.unlock t.mu
      in
      (match
         let v = f { eng = t; px } in
         commit t px;
         v
       with
      | v ->
          finish Pr.Commit;
          v
      | exception D.Crashed ->
          (* the media is gone; no volatile unwind matters *)
          finish Pr.Crash;
          raise D.Crashed
      | exception e ->
          (match abort t px with
          | () -> ()
          | exception D.Crashed ->
              finish Pr.Crash;
              raise D.Crashed);
          finish Pr.Abort;
          raise e)
