(* Detectably-recoverable Treiber stack (checkpointed recoverable-CAS).

   Every operation is a single CAS on the header's head word, made
   crash-recoverable by sealing a checkpoint record *before* the CAS is
   issued.  The checkpoint describes the operation precisely enough for
   recovery to decide, from the durable head alone, whether the CAS
   landed — the Memento-style "detectable" property: after a crash the
   caller learns not just a consistent stack but *which* operation
   completed or rolled back, exactly once.

   Persist schedule (one fence per operation — the fence floor):

     push:  reserve node (volatile) ; write [value|next] ; seal ckpt
            ; flush node line + ckpt line ; FENCE
            ; CAS head := node ; commit mark
            ; flush mark line + head line   (unfenced tail)

     pop:   seal ckpt (node = head, exp = node.next, val = node.value)
            ; flush ckpt line ; FENCE
            ; CAS head := exp ; clear mark (dirty-only)
            ; flush mark line + head line   (unfenced tail)

   The unfenced tail is the whole point: the CAS's durability rides on
   whatever fence comes next (the successor's seal, the enclosing
   transaction's commit, or recovery).  A crash can therefore land any
   subset of {head swing, table mark} — the checkpoint is what lets
   recovery finish or undo the pair atomically.

   Two checkpoint slots, selected by sequence parity, for the same
   reason {!Cow_root} double-buffers its intent records: operation N+1's
   seal overwrites a slot while operation N's tail words may still sit
   unfenced in the WPQ.  With one slot a crash could tear the record
   covering the very operation whose tail is in flight.  With two, the
   slot being overwritten belongs to operation N-1, whose tail was
   drained by operation N's own seal fence.  Each record carries a mixed
   checksum so a torn overwrite reads as "no record", never as garbage.

   Recovery resolves both valid slots in ascending sequence order.  The
   older record is normally fully drained and resolves as a no-op, but a
   crash can land the younger checkpoint from the WPQ while dropping the
   older operation's head swing — ascending order re-derives the older
   tail first.  Mark edits are guarded twice: a clear only fires when
   the block's content still matches the checkpoint (a reused block
   fails the match and is left alone) and the block is unreachable from
   the durable head chain.

   Concurrency: the CAS is linearizable by construction; this simulation
   serialises it under a global mutex.  Crash detectability assumes a
   single mutator per stack, as in Memento's per-thread checkpoints.

   Operations take a journal brand only to prove a transaction is open
   (pool lifetime); like {!Punsafe} they bypass the undo log entirely,
   so an enclosing abort does NOT roll them back. *)

module D = Pmem.Device
module B = Palloc.Buddy
module T = Palloc.Alloc_table
module Pr = Ptelemetry.Probe

(* Every operation runs inside a sanitizer-visible privileged window:
   the checkpointed-CAS protocol stores raw words by design, exactly
   like the recovery code paths psan brackets with [Exempt_push].  The
   bracket is per-operation, so everything outside it is still audited. *)
let privileged d f =
  let dev = D.id d in
  if Pr.on () then Pr.emit (Pr.Exempt_push { dev });
  Fun.protect
    ~finally:(fun () -> if Pr.on () then Pr.emit (Pr.Exempt_pop { dev }))
    f

type ('a, 'p) t = { hdr : int; pool : Pool_impl.t; ty : ('a, 'p) Ptype.t }

(* Header block: two lines.
   Line 0: [head u64 | pad u64 | slot0: seq,kind,node,exp,val,sum]
   Line 1: [slot1: seq,kind,node,exp,val,sum | pad 16B]            *)
let hdr_size = 128
let node_size = 16 (* [value u64 | next u64] *)
let slots = 2
let slot_off t s = t.hdr + 16 + (s * 48)
let slot_of_seq seq = seq land 1

let k_none = 0
let k_push = 1
let k_pop = 2

type ckpt = { seq : int; kind : int; node : int; exp : int; v64 : int64 }

(* Multiplicative mixing over the record words: any torn old/new word
   mix fails the check w.h.p. (a plain XOR fold would let two
   compensating words cancel). *)
let mix acc v = (acc lxor v) * 0x9E3779B97F4A7C1 land max_int

let sum_of c =
  List.fold_left mix 0x5DEECE66D
    [ c.seq; c.kind; c.node; c.exp; Int64.to_int c.v64 land max_int ]

let dev t = Pool_impl.device t.pool
let read_head t = D.read_int (dev t) t.hdr

let write_ckpt t c =
  let o = slot_off t (slot_of_seq c.seq) in
  D.write_int (dev t) o c.seq;
  D.write_int (dev t) (o + 8) c.kind;
  D.write_int (dev t) (o + 16) c.node;
  D.write_int (dev t) (o + 24) c.exp;
  D.write_u64 (dev t) (o + 32) c.v64;
  D.write_int (dev t) (o + 40) (sum_of c)

let read_ckpt t s =
  let o = slot_off t s in
  let w i = D.read_int (dev t) (o + (i * 8)) in
  let c =
    { seq = w 0; kind = w 1; node = w 2; exp = w 3; v64 = D.read_u64 (dev t) (o + 32) }
  in
  if
    (c.kind = k_push || c.kind = k_pop)
    && c.seq > 0
    && w 5 = sum_of c
  then Some c
  else None

(* Next sequence number: successor of the newest valid record, so the
   seal lands in the slot NOT covering the previous operation. *)
let next_seq t =
  let newest =
    List.fold_left
      (fun acc s -> match read_ckpt t s with Some c -> max acc c.seq | None -> acc)
      0
      (List.init slots Fun.id)
  in
  newest + 1

let flush_slot t seq = D.flush (dev t) (slot_off t (slot_of_seq seq)) 48
let flush_head t = D.flush (dev t) t.hdr 8

(* The simulation's stand-in for an atomic CAS on a device word. *)
let cas_mutex = Mutex.create ()

let cas d off ~expect ~nv =
  Mutex.lock cas_mutex;
  (* crash injection raises from device accesses: never leak the lock *)
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cas_mutex)
    (fun () ->
      let ok = D.read_int d off = expect in
      if ok then D.write_int d off nv;
      ok)

let make ~ty j =
  if Ptype.size ty > 8 then
    invalid_arg "Pstack.make: element type must fit one word";
  let tx = Journal.tx j in
  let pool = Pool_impl.tx_pool tx in
  let hdr = Pool_impl.tx_alloc tx hdr_size in
  let d = Pool_impl.device pool in
  D.fill d hdr hdr_size '\000';
  D.persist d hdr hdr_size;
  { hdr; pool; ty }

let rec push_loop t x j =
  let d = dev t and b = Pool_impl.buddy t.pool in
  let r = B.reserve b node_size in
  let node = B.offset_of_reservation b r in
  Ptype.write t.ty t.pool node x;
  let v64 = D.read_u64 d node in
  let cur = read_head t in
  D.write_int d (node + 8) cur;
  let c = { seq = next_seq t; kind = k_push; node; exp = cur; v64 } in
  write_ckpt t c;
  D.flush d node node_size;
  flush_slot t c.seq;
  D.fence d;
  if cas d t.hdr ~expect:cur ~nv:node then begin
    B.commit b r;
    D.flush d (B.mark_line b r * D.line_size) D.line_size;
    flush_head t
  end
  else begin
    (* lost the race: return the block and retry with a fresh snapshot *)
    B.cancel b r;
    push_loop t x j
  end

let push t x j =
  let _tx = Journal.tx j in
  Pool_impl.check_open t.pool;
  privileged (dev t) (fun () -> push_loop t x j)

let rec pop_loop t j =
  let d = dev t and b = Pool_impl.buddy t.pool in
  let cur = read_head t in
  if cur = 0 then None
  else begin
    let v64 = D.read_u64 d cur in
    let nxt = D.read_int d (cur + 8) in
    let x = Ptype.read t.ty t.pool cur in
    let c = { seq = next_seq t; kind = k_pop; node = cur; exp = nxt; v64 } in
    write_ckpt t c;
    flush_slot t c.seq;
    D.fence d;
    if cas d t.hdr ~expect:cur ~nv:nxt then begin
      B.dealloc ~durable:false b cur;
      D.flush d (B.line_of_offset b cur * D.line_size) D.line_size;
      flush_head t;
      Some x
    end
    else pop_loop t j
  end

let pop t j =
  let _tx = Journal.tx j in
  Pool_impl.check_open t.pool;
  privileged (dev t) (fun () -> pop_loop t j)

(* --- Recovery --------------------------------------------------------- *)

type outcome =
  | Push_completed of int
  | Push_rolled_back of int
  | Pop_completed of int * int64
  | Pop_rolled_back of int

let seq_of_outcome = function
  | Push_completed s | Push_rolled_back s | Pop_completed (s, _) | Pop_rolled_back s
    -> s

(* Durable head chain, cycle-guarded (a crash cannot create a cycle —
   next words are written once before their node is linked — but fsck
   after a hostile torn write should not hang the walk). *)
let chain t =
  let limit = D.size (dev t) / T.min_block in
  let rec go acc n off =
    if off = 0 || n > limit then acc
    else go (off :: acc) (n + 1) (D.read_int (dev t) (off + 8))
  in
  go [] 0 (read_head t)

let content_matches t c =
  D.read_u64 (dev t) c.node = c.v64
  && D.read_int (dev t) (c.node + 8) = c.exp

(* Clear the node's table mark iff it is provably dead: still holding
   the checkpointed image (not reused) and unreachable from the durable
   head.  Marking is unconditional — the node IS the head (or in the
   chain), so it is live by construction. *)
let resolve t reachable c =
  let b = Pool_impl.buddy t.pool in
  let tbl = B.table b in
  let idx = T.index_of_offset tbl c.node in
  let marked = T.order_at tbl ~idx <> None in
  let edited = ref false in
  let ensure_marked () =
    if not marked then begin
      T.mark_durable tbl ~idx ~order:(B.order_of_size node_size);
      edited := true
    end
  in
  let ensure_cleared () =
    if marked && content_matches t c && not (List.mem c.node reachable) then begin
      T.clear_durable tbl ~idx;
      edited := true
    end
  in
  let outcome =
    if c.kind = k_push then
      if read_head t = c.node then begin
        (* swing landed; the mark may not have *)
        ensure_marked ();
        Push_completed c.seq
      end
      else begin
        ensure_cleared ();
        Push_rolled_back c.seq
      end
    else if read_head t = c.node then begin
      (* swing lost: the node is still the live head; the dirty-only
         clear must not survive it *)
      ensure_marked ();
      Pop_rolled_back c.seq
    end
    else begin
      ensure_cleared ();
      Pop_completed (c.seq, c.v64)
    end
  in
  (outcome, !edited)

let invalidate_slot t s =
  let o = slot_off t s in
  D.write_int (dev t) (o + 8) k_none;
  D.write_int (dev t) (o + 40) 0;
  D.persist (dev t) o 48

let recover t =
  Pool_impl.check_open t.pool;
  privileged (dev t) @@ fun () ->
  let recs =
    List.filter_map (fun s -> read_ckpt t s) (List.init slots Fun.id)
    |> List.sort (fun a b -> compare a.seq b.seq)
  in
  let reachable = chain t in
  let edited = ref false in
  let outcomes =
    List.map
      (fun c ->
        let o, e = resolve t reachable c in
        if e then edited := true;
        invalidate_slot t (slot_of_seq c.seq);
        o)
      recs
  in
  if !edited then B.rebuild (Pool_impl.buddy t.pool);
  D.fence (dev t);
  outcomes

(* --- Read-side -------------------------------------------------------- *)

let iter t f =
  Pool_impl.check_open t.pool;
  let rec go off =
    if off <> 0 then begin
      f (Ptype.read t.ty t.pool off);
      go (D.read_int (dev t) (off + 8))
    end
  in
  go (read_head t)

let to_list t =
  let acc = ref [] in
  iter t (fun x -> acc := x :: !acc);
  List.rev !acc

let length t =
  let n = ref 0 in
  iter t (fun _ -> incr n);
  !n

let is_empty t = read_head t = 0

let peek t =
  Pool_impl.check_open t.pool;
  let h = read_head t in
  if h = 0 then None else Some (Ptype.read t.ty t.pool h)

let drop t j =
  let tx = Journal.tx j in
  let rec go off =
    if off <> 0 then begin
      let nxt = D.read_int (dev t) (off + 8) in
      Ptype.drop t.ty tx off;
      Pool_impl.tx_free tx off;
      go nxt
    end
  in
  go (read_head t);
  Pool_impl.tx_free tx t.hdr

(* --- Ptype ------------------------------------------------------------ *)

let handle elt =
  Ptype.handle ~name:"pstack" ~hdr:(fun t -> t.hdr) ~drop
    ~wrap:(fun pool hdr ty -> { hdr; pool; ty })
    ~edges:(fun t ->
      let rec links off =
        if off = 0 then []
        else
          [
            {
              Ptype.block = off;
              follow =
                (fun p ->
                  Ptype.reach t.ty p off
                  @ links (D.read_int (Pool_impl.device p) (off + 8)));
            };
          ]
      in
      links (read_head t))
    elt

let ptype inner = handle (Ptype.Of inner)
let ptype_rec inner = handle (Ptype.Of_rec inner)
