(* The journal family's modeled recovery: a step-for-step mirror of
   {!Pjournal.Recovery} over the {!Mstate} machine, ticking the machine's
   crash clock before every flush and every fence so the explorer can
   also crash recovery at each of ITS persist points (depth-1 nesting)
   and re-run it.

   Checksum verification is structural: an entry header is valid iff its
   recorded epoch equals the slot's durable epoch word and every recorded
   body word reads back identically (what an epoch-salted CRC
   certifies). *)

module Ms = Mstate
module Mj = Mjournal

(* {1 Reading the image} *)

let as_int = function Mj.Int n -> n | _ -> -1

type entry =
  | R_data of { blk : int; old_gen : int }
  | R_alloc of { blk : int; order : int }

(* Walk the sealed entries to the tail terminator; returns the visited
   prefix (oldest first) and whether the stop was torn (anything but a
   clean terminator). *)
let walk m cfg s ~epoch =
  let limit = Mj.entry_limit cfg s in
  let rec go c acc =
    if c >= limit then (List.rev acc, true)
    else
      match Ms.read m c with
      | Mj.Int 0 -> (List.rev acc, false)
      | Mj.Ehdr { kind = (Mj.K_data | Mj.K_alloc) as kind; epoch = e; body }
        when e = epoch && List.for_all (fun (w, v) -> Ms.read m w = v) body -> (
          let entry =
            match (kind, body) with
            | Mj.K_data, (_, Mj.Eword { pay = Mj.Undo { blk; old_gen }; _ }) :: _
              ->
                Some (R_data { blk; old_gen })
            | Mj.K_alloc, [ (_, Mj.Eword { pay = Mj.Alloc_of { blk; order }; _ }) ]
              ->
                Some (R_alloc { blk; order })
            | _ -> None
          in
          match entry with
          | Some en -> go (c + 1 + List.length body) (en :: acc)
          | None -> (List.rev acc, true))
      | _ -> (List.rev acc, true)
  in
  go (Mj.entry_base cfg s) []

let read_drop m cfg s ~epoch d =
  match Ms.read m (Mj.drop_hdr_w cfg s d) with
  | Mj.Ehdr { kind = Mj.K_drop; epoch = e; body = [ (bw, bv) ] }
    when e = epoch && Ms.read m bw = bv -> (
      match bv with
      | Mj.Eword { pay = Mj.Drop_of { blk; order }; _ } -> Some (blk, order)
      | _ -> None)
  | _ -> None

(* Drop slots consed downward; the scan stops at the first slot that is
   not a verifying drop.  The advisory count is never consulted. *)
let scan_drops m cfg s ~epoch =
  let rec go d acc =
    if d > Mj.drop_capacity then List.rev acc
    else
      match read_drop m cfg s ~epoch d with
      | Some p -> go (d + 1) (p :: acc)
      | None -> List.rev acc
  in
  go 1 []

(* {1 One-shot table persists} *)

let table_code m cfg blk =
  Mj.tab_get (Ms.read m (Mj.table_w cfg blk)) (Mj.table_sub cfg blk)

let set_table clock m cfg blk code =
  let w = Mj.table_w cfg blk in
  Ms.store m w (Mj.tab_set (Ms.read m w) (Mj.table_sub cfg blk) code);
  Ms.persist clock m [ w ]

let clear_if_live clock m cfg blk =
  if table_code m cfg blk > 0 then begin
    set_table clock m cfg blk 0;
    true
  end
  else false

(* Mirror of {!Pjournal.Recovery.remark_drops}: re-mark cleared drop
   targets when rolling back, or when the clears only partially landed
   (mixed live/cleared evidence of an interrupted clear flush);
   all-cleared with no walkable entries keeps the committed outcome. *)
let remark_drops clock m cfg ~slots ~rollback =
  let cleared = List.filter (fun (blk, _) -> table_code m cfg blk = 0) slots in
  let any_live = List.length cleared < List.length slots in
  if cleared = [] || not (rollback || any_live) then 0
  else begin
    List.iter
      (fun (blk, order) -> set_table clock m cfg blk (order + 1))
      cleared;
    List.length cleared
  end

(* {1 Truncate} *)

(* Mirror of {!Pjournal.Recovery.truncate}: zero the bookkeeping fields,
   bump the epoch, rewrite the terminator; one batched flush+fence.
   From phase [Committing] ([ordered]) the log invalidation is persisted
   strictly before the phase word returns to 0. *)
let truncate ?(ordered = false) clock m cfg s =
  let epoch = as_int (Ms.read m (Mj.epoch_w cfg s)) in
  Ms.store m (Mj.count_w cfg s) (Mj.Int 0);
  Ms.store m (Mj.drops_w cfg s) (Mj.Int 0);
  Ms.store m (Mj.spill_w cfg s) (Mj.Int 0);
  Ms.store m (Mj.epoch_w cfg s) (Mj.Int (epoch + 1));
  Ms.store m (Mj.entry_base cfg s) (Mj.Int 0);
  if ordered then begin
    Ms.persist clock m [ Mj.count_w cfg s; Mj.entry_base cfg s ];
    Ms.store m (Mj.phase_w cfg s) (Mj.Int 0);
    Ms.persist clock m [ Mj.phase_w cfg s ]
  end
  else begin
    Ms.store m (Mj.phase_w cfg s) (Mj.Int 0);
    Ms.persist clock m [ Mj.phase_w cfg s; Mj.entry_base cfg s ]
  end

(* {1 Slot recovery} *)

let rec firstn n = function
  | x :: tl when n > 0 -> x :: firstn (n - 1) tl
  | _ -> []

let recover_slot cfg variant clock m s =
  let phase = as_int (Ms.read m (Mj.phase_w cfg s)) in
  let advisory = as_int (Ms.read m (Mj.count_w cfg s)) in
  let ndrops_f = as_int (Ms.read m (Mj.drops_w cfg s)) in
  let epoch = as_int (Ms.read m (Mj.epoch_w cfg s)) in
  if phase = 1 then begin
    (* durably committed: finish the deferred frees, then retire *)
    for d = 1 to ndrops_f do
      match read_drop m cfg s ~epoch d with
      | Some (blk, _) -> ignore (clear_if_live clock m cfg blk)
      | None -> ()
    done;
    truncate ~ordered:true clock m cfg s
  end
  else begin
    let entries, torn = walk m cfg s ~epoch in
    let undo =
      match variant with
      | Mvariant.Trust_advisory ->
          (* the bug under test: believe the advisory count *)
          firstn (max 0 advisory) entries
      | _ -> entries
    in
    if undo <> [] then begin
      (* in-flight transaction: roll back newest-first *)
      ignore
        (remark_drops clock m cfg ~slots:(scan_drops m cfg s ~epoch)
           ~rollback:true);
      let newest_first = List.rev undo in
      List.iter
        (fun e ->
          match e with
          | R_data { blk; old_gen } ->
              Ms.store m (Mj.heap_w cfg blk) (Mj.Gen old_gen);
              Ms.tick clock;
              Ms.flush_words m [ Mj.heap_w cfg blk ]
          | R_alloc _ -> ())
        newest_first;
      Ms.tick clock;
      Ms.fence m;
      List.iter
        (fun e ->
          match e with
          | R_alloc { blk; order = _ } ->
              ignore (clear_if_live clock m cfg blk)
          | R_data _ -> ())
        newest_first;
      truncate clock m cfg s
    end
    else begin
      (* no durable entries: scrub residue *)
      let drops = scan_drops m cfg s ~epoch in
      ignore (remark_drops clock m cfg ~slots:drops ~rollback:false);
      if
        torn || phase <> 0 || advisory <> 0 || ndrops_f <> 0 || drops <> []
        || (variant = Mvariant.Trust_advisory && entries <> [])
      then truncate clock m cfg s
    end
  end

let recover cfg variant clock m =
  for s = 0 to cfg.Mj.nslots - 1 do
    recover_slot cfg variant clock m s
  done

(* I-QUIESCENT-LOG: after recovery every slot is retired — phase,
   advisory count and drop count zero, no walkable entry, no salt-valid
   drop slot. *)
let quiescent cfg st =
  let m = Ms.boot st in
  let residue s =
    let epoch = as_int (Ms.read m (Mj.epoch_w cfg s)) in
    let entries, torn = walk m cfg s ~epoch in
    as_int (Ms.read m (Mj.phase_w cfg s)) <> 0
    || as_int (Ms.read m (Mj.count_w cfg s)) <> 0
    || as_int (Ms.read m (Mj.drops_w cfg s)) <> 0
    || entries <> [] || torn
    || scan_drops m cfg s ~epoch <> []
  in
  match List.find_opt residue (List.rev (List.init cfg.Mj.nslots Fun.id)) with
  | Some s ->
      Error ("I-QUIESCENT-LOG", Printf.sprintf "slot %d still carries log residue" s)
  | None -> Ok ()
