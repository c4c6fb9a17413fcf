module D = Pmem.Device
module H = Pool_header
module LE = Pjournal.Log_entry

type slot_state = Idle | Active of int | Committing of int

type info = {
  magic_ok : bool;
  version : int;
  generation : int;
  root_off : int;
  root_ty_hash : int;
  nslots : int;
  slot_size : int;
  journal_base : int;
  table_base : int;
  heap_base : int;
  heap_len : int;
  device_size : int;
  slots : slot_state list;
  slot_epochs : int list;
  live_blocks : int;
  live_bytes : int;
  largest_block : int;
  lifetime_tx : int;
  lifetime_aborts : int;
  cow_cells : Cow_root.cell_info list;
      (** every root cell the mod engine's CoW commits use; all-zero
          cells on pools that never ran it *)
}

(* A slot is classified the way recovery sees it: walk the checksummed
   entry stream to its tail.  The advisory header count is never trusted
   (and since commits stopped persisting it for drop-free transactions,
   an in-flight crash image usually has count=0 beside a walkable log);
   phase [Committing] only appears on legacy images. *)
let read_slot dev ~base ~size =
  let field off = D.read_int dev (base + off) in
  let phase = D.read_u64 dev (base + LE.hdr_phase) in
  let count = field LE.hdr_count in
  let epoch = field LE.hdr_epoch in
  if phase = LE.phase_committing then (Committing count, epoch)
  else begin
    let salt = LE.salt ~slot_base:base ~epoch in
    let visited, _, _ =
      LE.walk_to_tail dev ~slot_base:base ~slot_size:size ~salt (fun _ -> ())
    in
    ((if visited > 0 then Active visited else Idle), epoch)
  end

let inspect_device dev =
  let magic_ok = D.size dev >= H.header_size && H.has_magic dev in
  let field off = if magic_ok then D.read_int dev off else 0 in
  let nslots = field H.hdr_nslots in
  let slot_size = field H.hdr_slot_size in
  let heap_len = field H.hdr_heap_len in
  let table_base = field H.hdr_table_base in
  let heap_base = field H.hdr_heap_base in
  let slots, slot_epochs =
    List.split
      (List.init nslots (fun i ->
           read_slot dev ~base:(H.header_size + (i * slot_size)) ~size:slot_size))
  in
  let live_blocks = ref 0 and live_bytes = ref 0 and largest = ref 0 in
  if magic_ok && heap_len > 0 then begin
    let table =
      Palloc.Alloc_table.attach dev ~table_base ~heap_base ~heap_len
    in
    Palloc.Alloc_table.iter_allocated table (fun ~idx:_ ~order ->
        incr live_blocks;
        let size = Palloc.Buddy.size_of_order order in
        live_bytes := !live_bytes + size;
        if size > !largest then largest := size)
  end;
  {
    magic_ok;
    version = field H.hdr_version;
    generation = field H.hdr_generation;
    root_off = field H.hdr_root;
    root_ty_hash = field H.hdr_root_hash;
    nslots;
    slot_size;
    journal_base = H.header_size;
    table_base;
    heap_base;
    heap_len;
    device_size = D.size dev;
    slots;
    slot_epochs;
    live_blocks = !live_blocks;
    live_bytes = !live_bytes;
    largest_block = !largest;
    lifetime_tx = field H.hdr_tx_total;
    lifetime_aborts = field H.hdr_abort_total;
    cow_cells = (if magic_ok then Cow_root.inspect dev else []);
  }

let pp ppf i =
  let open Format in
  if not i.magic_ok then fprintf ppf "not a Corundum pool image@."
  else begin
    fprintf ppf "Corundum pool (version %d)@." i.version;
    fprintf ppf "  device size   : %d bytes@." i.device_size;
    fprintf ppf "  generation    : %d (times opened)@." i.generation;
    fprintf ppf "  root          : %s@."
      (if i.root_off = 0 then "(uninitialized)"
       else Printf.sprintf "offset %d, type hash %#x" i.root_off i.root_ty_hash);
    fprintf ppf "  layout        : journals @%d (%d x %d B), table @%d, heap @%d (+%d B)@."
      i.journal_base i.nslots i.slot_size i.table_base i.heap_base i.heap_len;
    fprintf ppf "  heap          : %d live blocks, %d bytes used (largest %d), %d free@."
      i.live_blocks i.live_bytes i.largest_block (i.heap_len - i.live_bytes);
    fprintf ppf "  transactions  : %d committed, %d aborted (lifetime, as of last save)@."
      i.lifetime_tx i.lifetime_aborts;
    (* Per-slot epoch/phase: on a shared pool each registered domain
       owns one slot, so the epochs show how commits were distributed
       across domains; an idle slot's epoch counts the logs it has
       retired. *)
    List.iteri
      (fun n (s, e) ->
        match s with
        | Idle ->
            if e > 0 then
              fprintf ppf "  journal %d     : idle, epoch %d (logs retired)@."
                n e
        | Active c ->
            fprintf ppf
              "  journal %d     : ACTIVE, %d undo entries, epoch %d (will \
               roll back on open)@."
              n c e
        | Committing c ->
            fprintf ppf
              "  journal %d     : COMMITTING, %d entries, epoch %d (will \
               complete on open)@."
              n c e)
      (List.combine i.slots i.slot_epochs);
    if List.for_all (fun s -> s = Idle) i.slots then
      fprintf ppf "  journals      : all %d slots idle (clean shutdown)@." i.nslots;
    (* CoW root cells: only pools that ran the mod engine have non-zero
       cells; a valid intent on an image is a commit whose unfenced tail
       recovery will roll forward or back at the next open. *)
    List.iter
      (fun (ci : Cow_root.cell_info) ->
        if ci.ci_ptr <> 0 || ci.ci_gen <> 0 || ci.ci_intents <> [] then begin
          fprintf ppf "  cow cell %d    : gen %d, active %s%s@." ci.ci_cell
            ci.ci_gen
            (if ci.ci_ptr = 0 then "(none)"
             else Printf.sprintf "@%d" ci.ci_ptr)
            (match ci.ci_pair with
            | None -> ""
            | Some (base, half) ->
                Printf.sprintf ", pair @%d halves %d B" base half);
          List.iter
            (fun (s, (it : Cow_root.intent)) ->
              let state =
                if it.igen = (ci.ci_gen + 1) land Cow_root.gen_mask then
                  "PENDING, resolves on open"
                else if it.igen = ci.ci_gen then "consumed"
                else "stale"
              in
              fprintf ppf
                "    intent s%d   : gen %d %s, %d allocs, %d retires (%s)@." s
                it.igen
                (match it.kind with
                | Cow_root.Gen_only -> "gen-only"
                | Cow_root.Swap p -> Printf.sprintf "swap -> %d" p
                | Cow_root.Publish (p, pubs) ->
                    Printf.sprintf "publish x%d -> %d" (List.length pubs) p)
                (List.length it.allocs) (List.length it.frees) state)
            ci.ci_intents
        end)
      i.cow_cells
  end
