module D = Pmem.Device
module H = Pool_header
module LE = Pjournal.Log_entry
module T = Palloc.Alloc_table

type finding = { where : string; problem : string }

type report = {
  findings : finding list;
  slots_checked : int;
  entries_checked : int;
  blocks_checked : int;
}

let ok r = r.findings = []

type repair_action = { where : string; action : string }

type repair_report = {
  actions : repair_action list;
  entries_truncated : int;
  drops_truncated : int;
  blocks_quarantined : int;
  unrepairable : finding list;
  post : report;
}

let repaired r = r.unrepairable = [] && ok r.post

(* fsck is one traversal of the image, run in one of two modes.  Checking
   records every problem it meets.  Repairing runs each problem's fix as
   the walk reaches it — so later stages read the repaired bytes: a slot
   after its reset, the table after quarantine — and lists a problem with
   no fix as unrepairable.  Every fix is a persisted, idempotent write, so
   a crash mid-repair just means running repair again. *)
type walk = {
  fix : bool;
  mutable found : finding list; (* checking: all; repairing: unrepairable *)
  mutable actions : repair_action list;
  mutable entries_truncated : int;
  mutable drops_truncated : int;
  mutable quarantined : int;
  mutable slots : int; (* checked, for the report *)
  mutable entries : int;
  mutable blocks : int;
}

let act w where fix = w.actions <- { where; action = fix () } :: w.actions

(* A problem at [where].  Repairing runs [fix] when there is one;
   otherwise the problem stands, with [advice] appended when repair lists
   it as unrepairable. *)
let problem w ?fix ?(advice = "") where fmt =
  Printf.ksprintf
    (fun problem ->
      match fix with
      | Some fix when w.fix -> act w where fix
      | _ ->
          let problem = if w.fix then problem ^ advice else problem in
          w.found <- { where; problem } :: w.found)
    fmt

let in_heap (l : H.layout) off = off >= l.heap_base && off < l.heap_base + l.heap_len
let block_aligned (l : H.layout) off = (off - l.heap_base) mod T.min_block = 0

(* The fix that resets a slot like a runtime truncate, in one batched
   header persist: terminator back at the head of the entry area and the
   epoch bumped, so whatever sealed bytes remain can never verify again. *)
let reset_slot w dev base ?(truncated = 0) why () =
  let epoch = D.read_int dev (base + LE.hdr_epoch) in
  D.write_u64 dev (base + LE.hdr_phase) LE.phase_normal;
  LE.retire_header dev ~slot_base:base ~epoch:(epoch + 1);
  D.persist dev base (LE.hdr_size + LE.terminator_size);
  w.entries_truncated <- w.entries_truncated + truncated;
  "reset slot: " ^ why

let slot_salt dev base =
  LE.salt ~slot_base:base ~epoch:(D.read_int dev (base + LE.hdr_epoch))

(* A slot's undo log: a walkable spill chain and entries, a tail sealed
   by a terminator, and an advisory count that agrees with the walk. *)
let walk_log w dev (l : H.layout) ~base ~where ~advisory =
  let problem ?fix fmt = problem w ?fix where fmt in
  let slot_size = l.slot_size in
  let corrupt_chain = reset_slot w dev base ~truncated:(max 0 advisory) "corrupt spill chain" in
  let spills =
    match LE.spill_chain dev ~slot_base:base with
    | exception Invalid_argument m ->
        problem ~fix:corrupt_chain "corrupt spill chain: %s" m;
        []
    | spills ->
        List.find_opt (fun o -> not (in_heap l o && block_aligned l o)) spills
        |> Option.iter (fun o ->
               problem ~fix:corrupt_chain "spill region %s"
                 (if in_heap l o then "misaligned" else "outside the heap"));
        spills
  in
  let check_entry e =
    w.entries <- w.entries + 1;
    match e with
    | LE.Data { off; len; _ } ->
        if len <= 0 || off < 0 || off + len > D.size dev then
          failwith "data entry targets outside the pool"
    | LE.Alloc { off; order } ->
        if not (in_heap l off) then failwith "alloc entry outside the heap";
        if order < 0 || order > 40 then failwith "alloc order bogus"
    | LE.Drop { off; order = _ } ->
        if not (in_heap l off) then failwith "drop entry outside the heap"
  in
  let salt = slot_salt dev base in
  match LE.walk_to_tail dev ~slot_base:base ~slot_size ~salt check_entry with
  | exception Failure m -> problem "%s" m
  | visited, cursor, reason ->
      (* Seal the verified prefix: the torn tail becomes the terminator,
         the same "never written" rule recovery applies.  Only
         hand-damaged images leave no room for the terminator word (the
         writer always reserves it), and there is no prefix worth
         keeping: the slot is reset. *)
      let seal m () =
        let fits r =
          cursor >= LE.region_start ~slot_base:base r
          && cursor + LE.terminator_size
             <= min (LE.region_limit dev ~slot_base:base ~slot_size r) (D.size dev)
        in
        if List.exists fits (base :: spills) then begin
          D.write_u64 dev cursor 0L;
          D.persist dev cursor LE.terminator_size;
          w.entries_truncated <- w.entries_truncated + 1;
          Printf.sprintf "sealed torn log tail at %d (%s)" cursor m
        end
        else
          reset_slot w dev base ~truncated:(max visited (max 0 advisory))
            "log tail cannot be sealed in place" ()
      in
      (match reason with
      | LE.Terminator -> ()
      | LE.Bad_entry m -> problem ~fix:(seal m) "torn log tail: %s" m
      | LE.Chain_end m ->
          problem ~fix:(seal m) "log chain ends without a terminator (%s)" m);
      (* advisory = 0 with a walked tail is a normal in-flight transaction
         (the count persists only at commit); a non-zero advisory must
         agree with the walk.  Re-read: a reset above zeroed it. *)
      let advisory = D.read_int dev (base + LE.hdr_count) in
      if advisory <> 0 && advisory <> visited then
        problem
          ~fix:(fun () ->
            D.write_int dev (base + LE.hdr_count) visited;
            D.persist dev (base + LE.hdr_count) 8;
            (* a torn tail is one of the entries the count claimed *)
            let torn = if reason = LE.Terminator then 0 else 1 in
            w.entries_truncated <-
              w.entries_truncated + max 0 (advisory - visited - torn);
            Printf.sprintf "reconciled advisory entry count %d -> %d walked entries"
              advisory visited)
          "advisory entry count %d disagrees with walked tail (%d sealed entries)"
          advisory visited

(* A slot's drop area: a count within its capacity, and a verifying drop
   record naming a heap block in every counted place. *)
let walk_drops w dev (l : H.layout) ~base ~where =
  let problem ?fix fmt = problem w ?fix where fmt in
  let count () = D.read_int dev (base + LE.hdr_drops) in
  let drops = count () in
  let set_count v =
    D.write_int dev (base + LE.hdr_drops) v;
    D.persist dev (base + LE.hdr_drops) 8;
    w.drops_truncated <- w.drops_truncated + max 0 (drops - v)
  in
  if drops < 0 || drops > LE.drop_capacity ~slot_size:l.slot_size then
    problem "implausible drop count %d" drops ~fix:(fun () ->
        set_count 0;
        Printf.sprintf "cleared implausible drop count %d" drops)
  else begin
    let salt = slot_salt dev base in
    let truncate d () =
      set_count (d - 1);
      Printf.sprintf "truncated %d corrupt drop entries" (drops - d + 1)
    in
    (* the count is re-read each step: truncating it ends the scan *)
    let d = ref 1 in
    while !d <= count () do
      (match LE.read dev ~salt ~at:(LE.drop_at ~slot_base:base ~slot_size:l.slot_size !d) with
      | LE.Drop { off; order = _ }, _ when in_heap l off -> ()
      | LE.Drop _, _ -> problem ~fix:(truncate !d) "drop area entry outside the heap"
      | _ -> problem ~fix:(truncate !d) "non-drop entry in drop area"
      | exception Invalid_argument _ -> problem ~fix:(truncate !d) "torn drop entry");
      incr d
    done
  end

let walk_slot w dev (l : H.layout) i =
  w.slots <- w.slots + 1;
  let base = H.header_size + (i * l.slot_size) in
  let where = Printf.sprintf "journal slot %d" i in
  let implausible what v =
    let why = Printf.sprintf "%s %d" what v in
    problem w ~fix:(reset_slot w dev base why) where "%s" why
  in
  let phase = D.read_u64 dev (base + LE.hdr_phase) in
  if phase <> LE.phase_normal && phase <> LE.phase_committing then
    implausible "bad phase" (Int64.to_int phase);
  (* fields are read where they are checked: a reset rewrites them *)
  let advisory = D.read_int dev (base + LE.hdr_count) in
  if advisory < 0 || advisory * 16 > 64 * l.slot_size then
    implausible "implausible entry count" advisory
  else walk_log w dev l ~base ~where ~advisory;
  walk_drops w dev l ~base ~where

(* Every head byte must name an aligned block inside the heap, and the
   interior bytes of an allocated extent must stay zero, or a phantom
   head surfaces when the covering block is freed.  The scan steps over
   a bad head byte by byte, as if it were quarantined. *)
let walk_table w tbl =
  let nblocks = T.nblocks tbl in
  let problem j why fmt =
    problem w "alloc table" fmt ~fix:(fun () ->
        T.clear_durable tbl ~idx:j;
        w.quarantined <- w.quarantined + 1;
        Printf.sprintf "quarantined block %d: %s" j why)
  in
  let rec go idx =
    if idx < nblocks then
      match T.order_at tbl ~idx with
      | None -> go (idx + 1)
      | Some order ->
          w.blocks <- w.blocks + 1;
          let len = 1 lsl order in
          if order > 40 || idx + len > nblocks then begin
            problem idx (Printf.sprintf "order %d overflows the heap" order)
              "block %d (order %d) overflows the heap" idx order;
            go (idx + 1)
          end
          else if idx land (len - 1) <> 0 then begin
            problem idx (Printf.sprintf "misaligned for order %d" order)
              "block %d misaligned for order %d" idx order;
            go (idx + 1)
          end
          else begin
            for j = idx + 1 to idx + len - 1 do
              if T.order_at tbl ~idx:j <> None then
                problem j
                  (Printf.sprintf "phantom head inside block %d (order %d)" idx order)
                  "phantom head at index %d inside block %d" j idx
            done;
            go (idx + len)
          end
  in
  go 0

(* A wild root is detectable, not repairable: the data it named is gone. *)
let walk_root w (l : H.layout) tbl =
  let r = l.root_off and advice = " (open read-only)" in
  if r <> 0 then
    if not (in_heap l r) then problem w ~advice "root" "root offset %d outside the heap" r
    else if not (block_aligned l r) then problem w ~advice "root" "root offset %d misaligned" r
    else if T.order_at tbl ~idx:(T.index_of_offset tbl r) = None then
      problem w ~advice "root" "root points at a free block"

let walk_cells w dev (l : H.layout) tbl =
  (* Surviving intent records (pending, consumed or stale) are what pool
     recovery resolves at attach; repair applies the same idempotent
     resolution first, then checks the cells as they stand.  It runs
     after table quarantine — resolution trusts table bytes. *)
  if w.fix && List.exists (fun (ci : Cow_root.cell_info) -> ci.ci_intents <> []) (Cow_root.inspect dev)
  then
    act w "cow cells" (fun () ->
        let st = Cow_root.recover dev tbl in
        Printf.sprintf "resolved commit intents: %d rolled forward, %d rolled back"
          st.Cow_root.rolled_forward st.Cow_root.rolled_back);
  (* Is [off] inside some live allocated extent?  Scan back from its
     index: interior bytes of an extent are zero, so the first non-zero
     byte at or before it is the only candidate head. *)
  let covered off =
    match T.index_of_offset tbl off with
    | exception Invalid_argument _ -> `Outside
    | target ->
        let rec back j =
          if j < 0 then `Free
          else
            match T.order_at tbl ~idx:j with
            | None -> back (j - 1)
            | Some order -> if j + (1 lsl order) > target then `Live else `Free
        in
        back target
  in
  List.iter
    (fun (ci : Cow_root.cell_info) ->
      let problem fmt = problem w (Printf.sprintf "cow cell %d" ci.ci_cell) fmt in
      (match ci.ci_pair with
      | Some (pb, half) ->
          if covered pb <> `Live then problem "root pair base %d is not a live block" pb;
          if half <= 0 || half mod T.min_block <> 0 then
            problem "root pair half size %d implausible" half
          else if ci.ci_ptr <> 0 && ci.ci_ptr <> pb && ci.ci_ptr <> pb + half then
            problem "active pointer %d names neither pair half (torn root-swap image)"
              ci.ci_ptr
      | None -> (
          if ci.ci_ptr <> 0 then
            match covered ci.ci_ptr with
            | `Live -> ()
            | `Outside -> problem "active pointer %d outside the heap" ci.ci_ptr
            | `Free -> problem "active pointer %d dangles into free space" ci.ci_ptr));
      List.iter
        (fun (s, (it : Cow_root.intent)) ->
          let bad_block what (boff, order) =
            if not (in_heap l boff && block_aligned l boff) || order < 0 || order > 40 then
              problem "intent slot %d: %s block record (%d, order %d) implausible" s what
                boff order
          in
          List.iter (bad_block "alloc") it.allocs;
          List.iter (bad_block "retire") it.frees;
          match it.kind with
          | Cow_root.Publish (_, pubs) ->
              List.iter
                (fun (a, _, _) ->
                  if a < H.header_size || a + 8 > D.size dev then
                    problem "intent slot %d: publish word at %d outside the pool" s a)
                pubs
          | Cow_root.Gen_only | Cow_root.Swap _ -> ())
        ci.ci_intents;
      (* pending = a sealed commit whose tail never resolved: normal on a
         raw crash image (recovery resolves it at open), a bug on anything
         claiming to be recovered *)
      if ci.ci_pending then
        problem
          "pending commit intent (gen %d -> %d): image predates recovery or \
           resolution failed"
          ci.ci_gen
          ((ci.ci_gen + 1) land Cow_root.gen_mask))
    (Cow_root.inspect dev)

let walk ~fix dev =
  let w =
    { fix; found = []; actions = []; entries_truncated = 0; drops_truncated = 0;
      quarantined = 0; slots = 0; entries = 0; blocks = 0 }
  in
  (if D.size dev < H.header_size then problem w "header" "device smaller than a pool header"
   else if not (H.has_magic dev) then problem w "header" "bad magic: not a Corundum pool"
   else
     let version = D.read_int dev H.hdr_version in
     let l = H.read_layout dev in
     if version <> H.version then problem w "header" "unsupported version %d" version
     else if not (H.layout_sane dev l) then
       problem w ~advice:"; nothing can be trusted" "header" "layout fields are inconsistent"
     else begin
       if not (H.header_crc_ok dev) then
         problem w "header" "layout checksum mismatch (stored %#x, computed %#x)"
           (H.stored_header_crc dev) (H.header_crc dev) ~fix:(fun () ->
             H.write_header_crc dev;
             "re-sealed layout checksum");
       for i = 0 to l.nslots - 1 do
         walk_slot w dev l i
       done;
       let tbl =
         T.attach dev ~table_base:l.table_base ~heap_base:l.heap_base ~heap_len:l.heap_len
       in
       walk_table w tbl;
       (* tiling via the buddy's own integrity check, once no damage
          stands in the way *)
       (if w.found = [] then
          let buddy =
            Palloc.Buddy.attach dev ~table_base:l.table_base ~heap_base:l.heap_base
              ~heap_len:l.heap_len
          in
          match Palloc.Heap_walk.check buddy with
          | Ok () -> ()
          | Error m -> problem w "heap" "%s" m);
       walk_root w l tbl;
       walk_cells w dev l tbl
     end);
  w

let check_device dev =
  let w = walk ~fix:false dev in
  { findings = List.rev w.found; slots_checked = w.slots; entries_checked = w.entries;
    blocks_checked = w.blocks }

let check_file path = check_device (D.load path)

let repair dev =
  let w = walk ~fix:true dev in
  { actions = List.rev w.actions; entries_truncated = w.entries_truncated;
    drops_truncated = w.drops_truncated; blocks_quarantined = w.quarantined;
    unrepairable = List.rev w.found; post = check_device dev }

let pp ppf r =
  if ok r then
    Format.fprintf ppf
      "pool is consistent (%d journal slots, %d log entries, %d live blocks checked)@."
      r.slots_checked r.entries_checked r.blocks_checked
  else begin
    Format.fprintf ppf "pool has %d problem(s):@." (List.length r.findings);
    List.iter
      (fun (f : finding) -> Format.fprintf ppf "  [%s] %s@." f.where f.problem)
      r.findings
  end

let pp_repair ppf (r : repair_report) =
  List.iter
    (fun (a : repair_action) -> Format.fprintf ppf "repair [%s] %s@." a.where a.action)
    r.actions;
  List.iter
    (fun (f : finding) -> Format.fprintf ppf "UNREPAIRABLE [%s] %s@." f.where f.problem)
    r.unrepairable;
  Format.fprintf ppf
    "repair: %d actions, %d undo entries truncated, %d drops truncated, %d blocks quarantined@."
    (List.length r.actions) r.entries_truncated r.drops_truncated r.blocks_quarantined;
  pp ppf r.post
