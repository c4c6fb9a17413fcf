exception Out_of_pmem
exception Invalid_free of int

module Pr = Ptelemetry.Probe

type reservation = { r_idx : int; r_order : int }

(* A stripe is an independently locked region of the heap with its own
   volatile free lists — the paper's per-thread allocator.  Stripe
   boundaries sit on power-of-two block indices, so buddy pairs never
   cross a stripe and merging stays local.

   Free space is tracked in structures sized by the free heads, not by
   the stripe, making every list operation O(1):

   - [stacks.(o)] / [tops.(o)]: a LIFO of free block indices per order;
     push and pop are O(1), and popping the most-recently-freed block
     keeps the working set cache-warm.
   - [heads]: an {!Int_pairs} table from each free head's block index
     to [(pos lsl 6) lor order], its order and its position inside
     [stacks.(order)] — the buddy-membership test, and the slot a buddy
     is unlinked from in O(1) by swapping the stack's last element into
     its place.  A table entry is 16 B at a load between 1/4 and 1/2,
     so 32–64 B per free head at the stripe's peak head count (the
     table shrinks only at a rebuild); on a heap fragmented down to
     alternating blocks that is 16–32 B per block, against the fixed
     9 B per block of a per-block order byte and position word.
   - [nonempty]: a bitmask over orders with a non-empty stack; the
     smallest adequate order is found with mask arithmetic instead of a
     per-order scan. *)
type stripe = {
  lock : Mutex.t;
  mutable stacks : int array array; (* index: order; LIFO of block indices *)
  tops : int array; (* live depth of stacks.(order) *)
  mutable nonempty : int; (* bitmask: order o set iff tops.(o) > 0 *)
  heads : Int_pairs.t; (* free head idx -> (pos lsl 6) lor order *)
  mutable free_bytes : int;
  mutable built : bool; (* lists derived from the table since attach/rebuild *)
  steals : int Atomic.t; (* reserves served here for another stripe's hint *)
  contended : int Atomic.t; (* lock acquisitions that found it held *)
  lo : int; (* first block index (inclusive) *)
  hi : int; (* last block index (exclusive) *)
}

type t = {
  table : Alloc_table.t;
  stripes : stripe array;
  span : int; (* blocks per stripe (power of two); last stripe may be larger *)
  max_order : int; (* largest order any stripe can hand out *)
}

type stripe_stats = {
  ss_lo : int; (* heap byte offset of the stripe's first block *)
  ss_hi : int; (* heap byte offset one past the stripe's last block *)
  ss_free_bytes : int;
  ss_depths : int array; (* free-list depth per order *)
  ss_steals : int;
  ss_contended : int;
}

let min_block = Alloc_table.min_block

let log2_floor n =
  let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
  go 0 n

let order_of_size size =
  if size <= 0 then invalid_arg "Buddy.order_of_size: non-positive size";
  let rec go order blocksz =
    if blocksz >= size then order else go (order + 1) (blocksz * 2)
  in
  go 0 min_block

let size_of_order order = min_block lsl order
let table t = t.table
let max_order t = t.max_order
let stripes t = Array.length t.stripes
let capacity t = Alloc_table.heap_len t.table

let locked s f =
  if not (Mutex.try_lock s.lock) then begin
    Atomic.incr s.contended;
    Mutex.lock s.lock
  end;
  match f () with
  | v -> Mutex.unlock s.lock; v
  | exception e -> Mutex.unlock s.lock; raise e

let dev t = Alloc_table.device t.table

let stripe_of t idx =
  min (idx / t.span) (Array.length t.stripes - 1)

(* {2 O(1) free-list primitives (stripe lock held)} *)

let add_free s order idx =
  let top = s.tops.(order) in
  let st = s.stacks.(order) in
  let st =
    if top = Array.length st then begin
      let st' = Array.make (max 16 (2 * top)) 0 in
      Array.blit st 0 st' 0 top;
      s.stacks.(order) <- st';
      st'
    end
    else st
  in
  st.(top) <- idx;
  s.tops.(order) <- top + 1;
  Int_pairs.add s.heads idx ((top lsl 6) lor order);
  s.nonempty <- s.nonempty lor (1 lsl order);
  s.free_bytes <- s.free_bytes + size_of_order order

(* Pop the most recently freed block of [order]; caller ensures nonempty. *)
let pop_free s order =
  let top = s.tops.(order) - 1 in
  let idx = s.stacks.(order).(top) in
  s.tops.(order) <- top;
  if top = 0 then s.nonempty <- s.nonempty land lnot (1 lsl order);
  Int_pairs.remove s.heads idx;
  s.free_bytes <- s.free_bytes - size_of_order order;
  idx

(* Unlink a specific free block (the buddy during a merge): swap the
   stack's last element into its slot and shrink. *)
let remove_free s order idx =
  let top = s.tops.(order) - 1 in
  let st = s.stacks.(order) in
  let p = Int_pairs.find s.heads idx lsr 6 in
  if p <> top then begin
    let moved = st.(top) in
    st.(p) <- moved;
    Int_pairs.replace s.heads moved ((p lsl 6) lor order)
  end;
  s.tops.(order) <- top;
  if top = 0 then s.nonempty <- s.nonempty land lnot (1 lsl order);
  Int_pairs.remove s.heads idx;
  s.free_bytes <- s.free_bytes - size_of_order order

let is_free_at s idx order =
  let v = Int_pairs.find s.heads idx in
  v >= 0 && v land 63 = order

(* Smallest order >= [k] with a non-empty list, or -1. *)
let find_order s k =
  let mask = s.nonempty land ((-1) lsl k) in
  if mask = 0 then -1 else log2_floor (mask land -mask)

(* Carve the free index range [lo, hi) into maximal aligned blocks no
   larger than the global max order. *)
let carve t s lo hi =
  let rec go lo =
    if lo < hi then begin
      let by_align = if lo = 0 then t.max_order else log2_floor (lo land -lo) in
      let by_len = log2_floor (hi - lo) in
      let order = min t.max_order (min by_align by_len) in
      add_free s order lo;
      go (lo + (1 lsl order))
    end
  in
  go lo

(* Insert a block into its stripe's free lists, merging with its buddy
   while the buddy is wholly free at the same order and inside the
   stripe. *)
let rec insert_merged t s idx order =
  let buddy = idx lxor (1 lsl order) in
  if
    order < t.max_order
    && buddy >= s.lo
    && buddy + (1 lsl order) <= s.hi
    && is_free_at s buddy order
  then begin
    remove_free s order buddy;
    Pmem.Device.charge_alloc_steps (dev t) 1;
    insert_merged t s (min idx buddy) (order + 1)
  end
  else add_free s order idx

(* Carve a stripe's free lists from its own table slice, exactly as one
   walk of the whole table would.  A block from a coarser striping may
   cover [s.lo]: its head is [s.lo] rounded down to an order above
   [max_order], so those candidate heads are probed first, lowest first,
   skipping any already probed or inside a block seen. *)
let build t s =
  s.stacks <- Array.make (t.max_order + 1) [||];
  Array.fill s.tops 0 (t.max_order + 1) 0;
  s.nonempty <- 0;
  Int_pairs.clear s.heads;
  s.free_bytes <- 0;
  let rec probe o reach =
    let c = s.lo land lnot ((1 lsl o) - 1) in
    if o <= t.max_order then reach
    else if c < reach || c >= s.lo then probe (o - 1) reach
    else
      match Alloc_table.order_at t.table ~idx:c with
      | Some k when c + (1 lsl k) > c -> probe (o - 1) (c + (1 lsl k))
      | _ -> probe (o - 1) (c + 1)
  in
  let cursor = ref (max s.lo (probe (log2_floor (Alloc_table.nblocks t.table)) 0)) in
  Alloc_table.iter_allocated ~lo:!cursor ~hi:s.hi t.table (fun ~idx ~order ->
      if !cursor < idx then carve t s !cursor idx;
      cursor := idx + (1 lsl order));
  if !cursor < s.hi then carve t s !cursor s.hi;
  s.built <- true

(* Every use of a stripe's lists starts here, under its lock. *)
let ensure_built t s = if not s.built then build t s

let make dev ~table_base ~heap_base ~heap_len ~stripes ~fresh =
  if stripes <= 0 then invalid_arg "Buddy: stripe count must be positive";
  let table =
    if fresh then Alloc_table.create dev ~table_base ~heap_base ~heap_len
    else Alloc_table.attach dev ~table_base ~heap_base ~heap_len
  in
  let nblocks = Alloc_table.nblocks table in
  let span =
    if stripes = 1 then nblocks
    else begin
      let s = 1 lsl log2_floor (nblocks / stripes) in
      if s = 0 then invalid_arg "Buddy: heap too small for that many stripes";
      s
    end
  in
  let max_order = log2_floor span in
  let mk i =
    let lo = i * span in
    let hi = if i = stripes - 1 then nblocks else (i + 1) * span in
    {
      lock = Mutex.create ();
      stacks = Array.make (max_order + 1) [||];
      tops = Array.make (max_order + 1) 0;
      nonempty = 0;
      heads = Int_pairs.create ();
      free_bytes = 0;
      built = false;
      steals = Atomic.make 0;
      contended = Atomic.make 0;
      lo;
      hi;
    }
  in
  let t = { table; stripes = Array.init stripes mk; span; max_order } in
  (* A fresh table is all zero: each stripe is one free gap. *)
  if fresh then Array.iter (fun s -> carve t s s.lo s.hi; s.built <- true) t.stripes;
  t

let create ?(stripes = 1) dev ~table_base ~heap_base ~heap_len =
  make dev ~table_base ~heap_base ~heap_len ~stripes ~fresh:true

let attach ?(stripes = 1) dev ~table_base ~heap_base ~heap_len =
  make dev ~table_base ~heap_base ~heap_len ~stripes ~fresh:false

let rebuild t = Array.iter (fun s -> locked s (fun () -> s.built <- false)) t.stripes

let free_bytes t =
  let stripe_free s = locked s (fun () -> ensure_built t s; s.free_bytes) in
  Array.fold_left (fun acc s -> acc + stripe_free s) 0 t.stripes

let used_bytes t = capacity t - free_bytes t

(* Reserve within one stripe; returns None when it cannot satisfy. *)
let reserve_in t s order =
  locked s (fun () ->
      ensure_built t s;
      match find_order s order with
      | -1 -> None
      | j ->
          let idx = pop_free s j in
          (* Split down to the requested order, releasing upper halves. *)
          let rec split k =
            if k > order then begin
              let k = k - 1 in
              add_free s k (idx + (1 lsl k));
              Pmem.Device.charge_alloc_steps (dev t) 1;
              split k
            end
          in
          split j;
          (* Metadata traffic grows with block size (headers, class lists
             in a real buddy); charged per order so large allocations cost
             more, matching the paper's Alloc(4 kB) > Alloc(8 B) shape. *)
          Pmem.Device.charge_alloc_steps (dev t) (order + 1);
          Some { r_idx = idx; r_order = order })

let reserve ?(hint = 0) t size =
  let order = order_of_size size in
  if order > t.max_order then raise Out_of_pmem;
  let n = Array.length t.stripes in
  (* In [0, n) for any hint, so [first + i] cannot overflow. *)
  let first = ((hint mod n) + n) mod n in
  let rec try_stripe i =
    if i >= n then raise Out_of_pmem
    else begin
      let s = t.stripes.((first + i) mod n) in
      match reserve_in t s order with
      | Some r ->
          if i > 0 then Atomic.incr s.steals;
          r
      | None -> try_stripe (i + 1)
    end
  in
  try_stripe 0

let cancel t r =
  let s = t.stripes.(stripe_of t r.r_idx) in
  locked s (fun () -> ensure_built t s; insert_merged t s r.r_idx r.r_order)

(* One probe event per committed allocation / completed free, sized by
   the rounded block the heap actually loses or regains. *)
let probe_block t ~free ~off ~len =
  let d = dev t in
  let dev = Pmem.Device.id d and ns = Pmem.Device.simulated_ns d in
  Pr.emit
    (if free then Pr.Block_free { dev; off; len; ns } else Pr.Block_alloc { dev; off; len; ns })

let probe_alloc t r =
  probe_block t ~free:false
    ~off:(Alloc_table.offset_of_index t.table r.r_idx)
    ~len:(size_of_order r.r_order)

let commit t r =
  Alloc_table.mark t.table ~idx:r.r_idx ~order:r.r_order;
  if Pr.on () then probe_alloc t r

let commit_durable t r =
  Alloc_table.mark_durable t.table ~idx:r.r_idx ~order:r.r_order;
  if Pr.on () then probe_alloc t r

let offset_of_reservation t r = Alloc_table.offset_of_index t.table r.r_idx
let mark_line t r = Alloc_table.entry_line t.table r.r_idx

let line_of_offset t off =
  Alloc_table.entry_line t.table (Alloc_table.index_of_offset t.table off)

let alloc ?hint t size =
  let r = reserve ?hint t size in
  commit_durable t r;
  offset_of_reservation t r

(* The shared body of every free path.  [missing_ok] distinguishes the
   strict one-shot free (wild/double frees raise) from the idempotent
   recovery form; [durable] selects a one-shot persisted table clear or a
   dirty-only clear whose line the caller batches (the journal's deferred
   drops). *)
let release t off ~missing_ok ~durable =
  let idx = Alloc_table.index_of_offset t.table off in
  match Alloc_table.order_at t.table ~idx with
  | None -> if not missing_ok then raise (Invalid_free off)
  | Some order ->
      (* The clear is stored under the locks of the stripes the block
         covers (several only for a block wider than a stripe): one built
         before gets the block inserted, one built after finds it free. *)
      let stop = idx + (1 lsl order) in
      let last = stripe_of t (max idx (stop - 1)) in
      let rec under i =
        if i > last then
          if durable then Alloc_table.clear_durable t.table ~idx
          else Alloc_table.clear t.table ~idx
        else
          let s = t.stripes.(i) in
          locked s (fun () ->
              under (i + 1);
              if s.built then
                if order <= t.max_order then insert_merged t s idx order
                else carve t s (max idx s.lo) (min stop s.hi))
      in
      under (stripe_of t idx);
      if Pr.on () then probe_block t ~free:true ~off ~len:(size_of_order order)

let dealloc ?(durable = true) t off = release t off ~missing_ok:false ~durable

let dealloc_if_live ?(durable = true) t off =
  release t off ~missing_ok:true ~durable

let block_size t off =
  let idx = Alloc_table.index_of_offset t.table off in
  Option.map size_of_order (Alloc_table.order_at t.table ~idx)

let fold_free t ~init ~f =
  Array.fold_left
    (fun acc s ->
      locked s (fun () ->
          ensure_built t s;
          let acc = ref acc in
          Array.iteri
            (fun order st ->
              for p = 0 to s.tops.(order) - 1 do
                acc := f !acc ~idx:st.(p) ~order
              done)
            s.stacks;
          !acc))
    init t.stripes

let stripe_stats t =
  Array.map
    (fun s ->
      locked s (fun () ->
          ensure_built t s;
          {
            ss_lo = Alloc_table.offset_of_index t.table s.lo;
            ss_hi =
              Alloc_table.heap_base t.table
              + (s.hi lsl Alloc_table.min_block_shift);
            ss_free_bytes = s.free_bytes;
            ss_depths = Array.copy s.tops;
            ss_steals = Atomic.get s.steals;
            ss_contended = Atomic.get s.contended;
          }))
    t.stripes
