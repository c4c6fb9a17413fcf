(* CoW root cells: the persistent commit word of the minimally-ordered
   (mod) engine.

   Each cell lives in the reserved space of the pool header page and is
   five 64-byte lines:

   - line 0, word 0 ([w0]): the packed (block-index | generation) root
     word — the ONE 8-byte store whose landing is the commit point of a
     CoW transaction.  Words 1 and 2 of the same line hold the logical
     root-pair base and half-length; they are written once when a root
     is promoted and never change, so the swap store stays a single
     media-atomic word.
   - lines 1..2 (slot 0) and lines 3..4 (slot 1): two intent record
     slots, used alternately (slot = igen land 1).  Each record holds
     the generation, commit-word kind, the new root pointer, publish
     words (address, old, new), the transaction's allocated and retired
     blocks, all under an igen-and-slot-salted CRC.  A transaction too
     large for the inline record spills the lists to a transient heap
     block ([Spill] tag) whose content is covered by its own CRC in the
     intent.

   Why two slots: a commit's tail (publish words, the w0 swap, retire
   clears) is deliberately left unfenced — the next fence from any
   transaction completes it.  With a single slot the successor's seal
   would overwrite the only record that can re-derive that in-flight
   tail; a crash landing the predecessor's swap word while tearing the
   slot would leave a committed generation whose effects never landed
   and no intent to roll forward (found by the {!Pmodel.Mcow} crash
   checker).  Alternating slots keeps the predecessor's record intact
   until at least one fence — the successor's own seal or commit fence
   — has drained its tail, at zero extra ordering cost.

   The intent is sealed (flushed + fenced) BEFORE any mark or shadow
   line of the transaction is even flushed, so a durable mark implies a
   durable intent; recovery reads both slots and compares each intent
   generation against the w0 generation: a consumed record (igen = gen)
   is rolled forward first, then a pending one (igen = gen + 1) is
   rolled forward or back depending on whether its commit word landed,
   and stale records are retired.  Every recovery action is an
   idempotent durable store, so recovery may itself crash at any
   persist point and re-run.  See DESIGN.md §14. *)

module D = Pmem.Device
module T = Palloc.Alloc_table
module Pr = Ptelemetry.Probe

let cells = 4
let slots = 2
let slot_bytes = 128
let cell_bytes = 64 + (slots * slot_bytes)
let base = 1024
let region_len = cells * cell_bytes

(* {1 The packed root word} *)

(* Generation in the low 24 bits (wrapping), block index (offset / 64)
   above it: 64 MiB pools need 20 index bits, so the word never
   overflows 62 bits. *)
let gen_bits = 24
let gen_mask = (1 lsl gen_bits) - 1

let pack ~ptr ~gen =
  Int64.of_int (((ptr lsr 6) lsl gen_bits) lor (gen land gen_mask))

let unpack w =
  let v = Int64.to_int w in
  ((v lsr gen_bits) lsl 6, v land gen_mask)

let cell_off c = base + (c * cell_bytes)
let intent_off c s = cell_off c + 64 + (s * slot_bytes)
let slot_of_igen igen = igen land 1

let read c dev =
  let ptr, gen = unpack (D.read_u64 dev (cell_off c)) in
  (ptr, gen)

let pair c dev =
  let b = D.read_int dev (cell_off c + 8) in
  let half = D.read_int dev (cell_off c + 16) in
  if b = 0 then None else Some (b, half)

(* Write the swap word (dirty-only).  The caller owns flush order: this
   is the Root_swap phase's store. *)
let store_swap c dev ~ptr ~gen = D.write_u64 dev (cell_off c) (pack ~ptr ~gen)

let flush_swap c dev = D.flush dev (cell_off c) 8

(* {1 Intent records} *)

type kind =
  | Gen_only  (** commit word is the w0 generation bump alone *)
  | Swap of int  (** w0 repointed at [ptr] (packed with igen) *)
  | Publish of int * (int * int64 * int64) list
      (** in-place 8-byte publishes (address, old value, new value) plus
          the new active pointer the w0 store carries.  The FIRST
          publish word is the commit point; recovery redoes or undoes
          the whole set from the intent, so the words need not land
          atomically together. *)

type intent = {
  igen : int;
  kind : kind;
  allocs : (int * int) list;  (** (heap offset, buddy order) *)
  frees : (int * int) list;
}

let max_blocks = 3
let max_publish = 2

(* Inline intent layout (byte offsets relative to [intent_off]):
   +0 igen, +8 kind tag (1 Gen_only / 2 Swap / 3 Publish / 4 Spill),
   +16 npub, +24 nallocs, +32 nfrees, +40 new root pointer,
   +48..+95 two publish slots (addr, old, new),
   +96..+119 three packed block records ((off/64) lsl 8 | order),
   +120 salted CRC of bytes 0..119.

   A [Spill] record replaces the publish/block area with the spill
   block's geometry and content CRC:
   +48 spill offset, +56 spill order, +64 content CRC.
   The spill block holds npub publish triples followed by the packed
   block records.  The block is transient and never marked: recovery
   only reads it, and only before any user transaction could recycle
   it. *)
let intent_bytes = 120

let kind_tag = function Gen_only -> 1 | Swap _ -> 2 | Publish _ -> 3

let ptr_of_kind = function Gen_only -> 0 | Swap p -> p | Publish (p, _) -> p

let nblocks it = List.length it.allocs + List.length it.frees

let inline_ok it =
  nblocks it <= max_blocks
  && match it.kind with
     | Gen_only | Swap _ -> true
     | Publish (_, pubs) -> List.length pubs <= max_publish

let intent_crc ~cell ~slot ~igen buf =
  let crc = Pmem.Crc32.bytes buf in
  crc
  lxor (igen land 0xFFFF_FFFF)
  lxor (((cell * slots) + slot) * 0x9E37_79B9)
  land 0x7FFF_FFFF_FFFF

(* The spill content uses a distinct salt so a stale intent record can
   never validate against an unrelated block's bytes. *)
let spill_salt = 0x5BD1_E995

let spill_crc ~cell ~slot ~igen buf =
  intent_crc ~cell ~slot ~igen buf lxor spill_salt

let pack_block (off, order) = Int64.of_int (((off lsr 6) lsl 8) lor order)

let unpack_block v =
  let v = Int64.to_int v in
  ((v lsr 8) lsl 6, v land 0xFF)

let pubs_of = function Publish (_, pubs) -> pubs | Gen_only | Swap _ -> []

let write_intent c dev it =
  let s = slot_of_igen it.igen in
  let buf = Bytes.make intent_bytes '\000' in
  let set i v = Bytes.set_int64_le buf i v in
  let pubs = pubs_of it.kind in
  set 0 (Int64.of_int it.igen);
  set 8 (Int64.of_int (kind_tag it.kind));
  set 16 (Int64.of_int (List.length pubs));
  set 24 (Int64.of_int (List.length it.allocs));
  set 32 (Int64.of_int (List.length it.frees));
  set 40 (Int64.of_int (ptr_of_kind it.kind));
  List.iteri
    (fun i (addr, oldv, newv) ->
      let b = 48 + (i * 24) in
      set b (Int64.of_int addr);
      set (b + 8) oldv;
      set (b + 16) newv)
    pubs;
  List.iteri
    (fun i b -> set (96 + (i * 8)) (pack_block b))
    (it.allocs @ it.frees);
  D.write_bytes dev (intent_off c s) buf;
  D.write_int dev
    (intent_off c s + intent_bytes)
    (intent_crc ~cell:c ~slot:s ~igen:it.igen buf)

let spill_bytes it = (List.length (pubs_of it.kind) * 24) + (nblocks it * 8)

(* Serialize the oversized intent's lists into the (reserved, unmarked)
   spill block at [off].  Dirty-only; the caller flushes the range and
   orders it before the intent seal fence. *)
let write_spill c dev ~off it =
  let pubs = pubs_of it.kind in
  let n = spill_bytes it in
  let buf = Bytes.make n '\000' in
  let set i v = Bytes.set_int64_le buf i v in
  List.iteri
    (fun i (addr, oldv, newv) ->
      let b = i * 24 in
      set b (Int64.of_int addr);
      set (b + 8) oldv;
      set (b + 16) newv)
    pubs;
  let blocks0 = List.length pubs * 24 in
  List.iteri
    (fun i b -> set (blocks0 + (i * 8)) (pack_block b))
    (it.allocs @ it.frees);
  D.write_bytes dev off buf;
  spill_crc ~cell:c ~slot:(slot_of_igen it.igen) ~igen:it.igen buf

let write_intent_spilled c dev ~spill_off ~spill_order ~content_crc it =
  let s = slot_of_igen it.igen in
  let buf = Bytes.make intent_bytes '\000' in
  let set i v = Bytes.set_int64_le buf i v in
  set 0 (Int64.of_int it.igen);
  set 8 4L;
  set 16 (Int64.of_int (List.length (pubs_of it.kind)));
  set 24 (Int64.of_int (List.length it.allocs));
  set 32 (Int64.of_int (List.length it.frees));
  set 40 (Int64.of_int (ptr_of_kind it.kind));
  set 48 (Int64.of_int spill_off);
  set 56 (Int64.of_int spill_order);
  set 64 (Int64.of_int content_crc);
  D.write_bytes dev (intent_off c s) buf;
  D.write_int dev
    (intent_off c s + intent_bytes)
    (intent_crc ~cell:c ~slot:s ~igen:it.igen buf)

let flush_intent c s dev = D.flush dev (intent_off c s) (intent_bytes + 8)

let read_intent c s dev =
  let buf = D.read_bytes dev (intent_off c s) intent_bytes in
  let get i = Bytes.get_int64_le buf i in
  let igen = Int64.to_int (get 0) in
  let stored = D.read_int dev (intent_off c s + intent_bytes) in
  if stored <> intent_crc ~cell:c ~slot:s ~igen buf then None
  else
    let npub = Int64.to_int (get 16) in
    let nallocs = Int64.to_int (get 24) and nfrees = Int64.to_int (get 32) in
    let ptr = Int64.to_int (get 40) in
    if nallocs < 0 || nfrees < 0 || npub < 0 || igen = 0 then None
    else
      let finish kind allocs frees = Some { igen; kind; allocs; frees } in
      let kind_of ~pubs =
        match Int64.to_int (get 8) with
        | 1 when pubs = [] -> Some Gen_only
        | 2 when pubs = [] -> Some (Swap ptr)
        | 3 | 4 when pubs <> [] -> Some (Publish (ptr, pubs))
        | 4 -> Some (if ptr = 0 then Gen_only else Swap ptr)
        | _ -> None
      in
      match Int64.to_int (get 8) with
      | (1 | 2 | 3) as tag ->
          if nallocs + nfrees > max_blocks || npub > max_publish then None
          else if tag <> 3 && npub > 0 then None
          else
            let pubs =
              List.init npub (fun i ->
                  let b = 48 + (i * 24) in
                  (Int64.to_int (get b), get (b + 8), get (b + 16)))
            in
            let blocks n from =
              List.init n (fun i -> unpack_block (get (from + (i * 8))))
            in
            let allocs = blocks nallocs 96
            and frees = blocks nfrees (96 + (nallocs * 8)) in
            Option.bind (kind_of ~pubs) (fun k -> finish k allocs frees)
      | 4 ->
          (* Spilled: the lists live in a transient heap block.  A torn
             spill means the seal fence never completed, so nothing of
             the transaction (marks, publishes, commit word) can have
             landed and ignoring the intent is safe. *)
          let spill_off = Int64.to_int (get 48) in
          let n = (npub * 24) + ((nallocs + nfrees) * 8) in
          if spill_off <= 0 || n <= 0 || n > 1 lsl 20 then None
          else begin
            match D.read_bytes dev spill_off n with
            | exception _ -> None
            | content ->
                if Int64.to_int (get 64) <> spill_crc ~cell:c ~slot:s ~igen content
                then None
                else
                  let sget i = Bytes.get_int64_le content i in
                  let pubs =
                    List.init npub (fun i ->
                        let b = i * 24 in
                        (Int64.to_int (sget b), sget (b + 8), sget (b + 16)))
                  in
                  let blocks0 = npub * 24 in
                  let allocs =
                    List.init nallocs (fun i ->
                        unpack_block (sget (blocks0 + (i * 8))))
                  and frees =
                    List.init nfrees (fun i ->
                        unpack_block (sget (blocks0 + ((nallocs + i) * 8))))
                  in
                  Option.bind (kind_of ~pubs) (fun k -> finish k allocs frees)
          end
      | _ -> None

(* Retire a consumed or rolled-back intent: breaking the CRC word alone
   is enough (single durable store, idempotent). *)
let invalidate_intent c s dev =
  D.write_u64 dev (intent_off c s + intent_bytes) 0L;
  D.persist dev (intent_off c s + intent_bytes) 8

(* {1 Recovery} *)

type stats = {
  mutable rolled_forward : int;
  mutable rolled_back : int;
  mutable table_edited : bool;
}

(* Idempotent durable table edits keyed off the intent's block list.
   The table bytes are below the heap, so no undo coverage applies. *)
let ensure_marked table (off, order) =
  let idx = T.index_of_offset table off in
  if T.order_at table ~idx <> Some order then begin
    T.mark_durable table ~idx ~order;
    true
  end
  else false

let ensure_cleared table (off, _order) =
  let idx = T.index_of_offset table off in
  if T.order_at table ~idx <> None then begin
    T.clear_durable table ~idx;
    true
  end
  else false

let ensure_word dev addr v =
  if D.read_u64 dev addr <> v then begin
    D.write_u64 dev addr v;
    D.persist dev addr 8
  end

(* Roll the committed transaction's post-swap effects forward: redo the
   publish words, re-assert the marks (they were durable before the
   commit word could land, but recovery may re-crash mid-forward), and
   apply the retire clears the crash may have dropped. *)
let roll_forward dev table st it =
  List.iter
    (fun (addr, _old, newv) -> ensure_word dev addr newv)
    (pubs_of it.kind);
  List.iter (fun b -> if ensure_marked table b then st.table_edited <- true) it.allocs;
  List.iter (fun b -> if ensure_cleared table b then st.table_edited <- true) it.frees;
  st.rolled_forward <- st.rolled_forward + 1

(* Roll back: the commit word never landed, so the allocation marks are
   the only effect that may have — clear them and retire the intent.
   Publish words cannot have landed as a set (they are stored strictly
   after the commit fence), but a lone straggler can: re-assert their
   old values, free when they already match. *)
let roll_back c s dev table st it =
  List.iter
    (fun (addr, oldv, _new) -> ensure_word dev addr oldv)
    (pubs_of it.kind);
  List.iter (fun b -> if ensure_cleared table b then st.table_edited <- true) it.allocs;
  invalidate_intent c s dev;
  st.rolled_back <- st.rolled_back + 1

let recover_cell c dev table st =
  let _ptr, gen = read c dev in
  let recs =
    List.filter_map
      (fun s -> Option.map (fun it -> (s, it)) (read_intent c s dev))
      (List.init slots Fun.id)
  in
  let pending it = (it.igen - gen) land gen_mask = 1 in
  let consumed it = it.igen = gen && gen <> 0 in
  (* Stale first: a record whose generation is neither pending (gen+1)
     nor consumed (gen) belongs to a transaction the durable generation
     already jumped past — or fell short of by more than one — because
     an unfenced root swap was lost to the crash while this seal
     survived.  Its transaction is gone either way; retire the record
     so a later generation re-alignment (intent-less swaps advance w0
     without touching the slots) can never resurrect it. *)
  List.iter
    (fun (s, it) ->
      if not (pending it || consumed it) then invalidate_intent c s dev)
    recs;
  (* Consumed next: its commit word landed, so its transaction is
     logically EARLIER than any pending record's (generations are
     consecutive across the two slots) and its unfenced post-swap
     stores (publish words, retire clears) must be re-derived before
     the pending transaction is judged.  Then retire the record: a
     spilled intent must not be readable once its transient block can
     be recycled. *)
  List.iter
    (fun (s, it) ->
      if consumed it then begin
        roll_forward dev table st it;
        invalidate_intent c s dev
      end)
    recs;
  (* Pending last: did its commit word land?  The w0 generation is
     still [gen], so for [Gen_only]/[Swap] the answer is no.  For
     [Publish] the first publish word is its own commit point — and if
     the consumed pass above re-asserted that word (the two
     transactions touched the same address), the pending one reads as
     uncommitted and is rolled back: it sits in the
     committed-unacknowledged window where either outcome is legal,
     and the earlier transaction's effects win. *)
  List.iter
    (fun (s, it) ->
      if pending it then begin
        let committed =
          match it.kind with
          | Gen_only | Swap _ -> false
          | Publish (_, (addr, _old, newv) :: _) -> D.read_u64 dev addr = newv
          | Publish (_, []) -> false
        in
        if committed then begin
          roll_forward dev table st it;
          (* finish the root swap and generation bump the crash dropped;
             the intent records the pointer the w0 store carried *)
          let ptr =
            match it.kind with
            | Publish (p, _) -> p
            | Gen_only | Swap _ -> fst (read c dev)
          in
          D.write_u64 dev (cell_off c) (pack ~ptr ~gen:it.igen);
          D.persist dev (cell_off c) 8;
          invalidate_intent c s dev
        end
        else roll_back c s dev table st it
      end)
    recs

let recover dev table =
  let st = { rolled_forward = 0; rolled_back = 0; table_edited = false } in
  if Pr.on () then Pr.emit (Pr.Exempt_push { dev = D.id dev });
  Fun.protect
    ~finally:(fun () ->
      if Pr.on () then Pr.emit (Pr.Exempt_pop { dev = D.id dev }))
    (fun () ->
      for c = 0 to cells - 1 do
        recover_cell c dev table st
      done);
  st

(* {1 Inspection (pool_info / fsck)} *)

type cell_info = {
  ci_cell : int;
  ci_ptr : int;
  ci_gen : int;
  ci_pair : (int * int) option;
  ci_intents : (int * intent) list;  (** valid records, (slot, record) *)
  ci_pending : bool;  (** some intent generation is one ahead of w0 *)
}

let inspect dev =
  List.init cells (fun c ->
      let ptr, gen = read c dev in
      let its =
        List.filter_map
          (fun s -> Option.map (fun it -> (s, it)) (read_intent c s dev))
          (List.init slots Fun.id)
      in
      {
        ci_cell = c;
        ci_ptr = ptr;
        ci_gen = gen;
        ci_pair = pair c dev;
        ci_intents = its;
        ci_pending =
          List.exists (fun (_, it) -> (it.igen - gen) land gen_mask = 1) its;
      })
