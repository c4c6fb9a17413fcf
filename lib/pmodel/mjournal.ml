(* The journal family: the paper's undo-journal protocol as a model the
   explorer ({!Mcheck}) runs — its word layout and values, tiny
   transaction programs, their expansion into persist-granular step
   schedules, and what a recovered image must look like.  Its recovery
   mirror is {!Mrecovery}.

   The expansion mirrors {!Pjournal.Journal_impl} operation by
   operation, and — crucially — drives the commit/abort/truncate tails
   from the very same {!Pjournal.Protocol} plans the implementation
   interprets, so a protocol reordering changes the checked schedule and
   the executed one together.

   Values are structured rather than bytes: a sealed entry header
   records the exact body words its CRC covered, and verification
   re-reads them (see {!Mstate}). *)

open Mcheck
module Pt = Pjournal.Protocol

(* {1 Layout} *)

type cfg = { nslots : int; table_split : bool }
(* [table_split]: the two heap blocks' allocation-table bytes live in
   different 8-byte words (they tear independently) or share one word
   (they land atomically together).  Both geometries occur in a real
   pool; the checker enumerates both. *)

let words_per_line = Mstate.words_per_line
let slot_words = 32 (* 4 lines: header / entries / entries / drop area *)
let nblocks = 2

(* Block identities: 0 = "A", 1 = "B".  Fixed buddy orders so table
   marks are distinguishable. *)
let order_of_block b = 3 - b
let block_name = function 0 -> "A" | 1 -> "B" | _ -> "?"

let slot_base cfg i =
  assert (i >= 0 && i < cfg.nslots);
  i * slot_words

let phase_w cfg s = slot_base cfg s
let count_w cfg s = slot_base cfg s + 1
let drops_w cfg s = slot_base cfg s + 2
let spill_w cfg s = slot_base cfg s + 3
let epoch_w cfg s = slot_base cfg s + 4
let entry_base cfg s = slot_base cfg s + 8
let entry_limit cfg s = slot_base cfg s + 24
let drop_capacity = 2

(* Drop slot [d] (1-based) is consed downward from the slot end, two
   words each: header then body. *)
let drop_hdr_w cfg s d = slot_base cfg s + slot_words - (2 * d)
let drop_body_w cfg s d = drop_hdr_w cfg s d + 1
let table_base_w cfg = cfg.nslots * slot_words

let table_w cfg b =
  table_base_w cfg + if cfg.table_split then b else 0

let table_sub cfg b = if cfg.table_split then 0 else b
let heap_base_w cfg = table_base_w cfg + words_per_line
let heap_w cfg b = heap_base_w cfg + (words_per_line * b)
let nwords cfg = heap_base_w cfg + (words_per_line * nblocks)

let word_name cfg w =
  if w >= heap_base_w cfg then
    let b = (w - heap_base_w cfg) / words_per_line in
    if w = heap_w cfg b then Printf.sprintf "heap.%s" (block_name b)
    else Printf.sprintf "heap.pad%d" w
  else if w >= table_base_w cfg then
    Printf.sprintf "table[%d]" (w - table_base_w cfg)
  else
    let s = w / slot_words and o = w mod slot_words in
    match o with
    | 0 -> Printf.sprintf "slot%d.phase" s
    | 1 -> Printf.sprintf "slot%d.count" s
    | 2 -> Printf.sprintf "slot%d.drops" s
    | 3 -> Printf.sprintf "slot%d.spill" s
    | 4 -> Printf.sprintf "slot%d.epoch" s
    | o when o >= 8 && o < 24 -> Printf.sprintf "slot%d.entry[%d]" s (o - 8)
    | o when o >= 24 -> Printf.sprintf "slot%d.droparea[%d]" s (o - 24)
    | o -> Printf.sprintf "slot%d.hdr[%d]" s o

(* {1 Values} *)

type kind = K_data | K_alloc | K_drop

type payload =
  | Undo of { blk : int; old_gen : int }  (* data entry: pre-image *)
  | Pad of int  (* second body word of a data entry (torn-body probe) *)
  | Alloc_of of { blk : int; order : int }
  | Drop_of of { blk : int; order : int }

type value =
  | Int of int
  | Gen of int  (* heap word: data generation (0 = initial contents) *)
  | Tab of int * int  (* table word: per-sub-slot 0 = free, order+1 = live *)
  | Ehdr of { kind : kind; epoch : int; body : (int * value) list }
      (* sealed entry header; [body] records (word, value) pairs the
         checksum covered — verification re-reads them *)
  | Eword of { wid : int; pay : payload }
      (* entry body word; [wid] is a globally unique write id, so two
         seals of the same logical content never alias *)

let kind_name = function
  | K_data -> "data"
  | K_alloc -> "alloc"
  | K_drop -> "drop"

let pp_value ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Gen g -> Format.fprintf ppf "gen:%d" g
  | Tab (a, b) -> Format.fprintf ppf "tab(%d,%d)" a b
  | Ehdr { kind; epoch; body } ->
      Format.fprintf ppf "hdr(%s,e%d,%dw)" (kind_name kind) epoch
        (List.length body)
  | Eword { wid; pay = _ } -> Format.fprintf ppf "body#%d" wid

let tab_get v sub =
  match v with
  | Tab (a, b) -> if sub = 0 then a else b
  | Int 0 -> 0 (* formatted-but-never-marked table word *)
  | _ -> -1 (* not a table value: structurally corrupt *)

let tab_set v sub code =
  let a, b = match v with Tab (a, b) -> (a, b) | _ -> (0, 0) in
  if sub = 0 then Tab (code, b) else Tab (a, code)

(* {1 Programs} *)

type op = Set of int | Alloc of int | Free of int
type txk = Commit | Abort

type tx = { ops : op list; k : txk }

type shape =
  | Seq  (* transactions run back to back on slot 0 *)
  | Interleaved
      (* exactly two transactions on disjoint blocks: tx1 runs entirely
         inside tx0's logging window, each on its own slot (two domains) *)
  | Grouped
      (* exactly two committing transactions on disjoint blocks, each on
         its own slot, committing through the group-commit epoch
         combiner: one merged flush + ONE shared fence (both commit
         points), then each member's drops and truncate.  A crash before
         the shared fence is the leader dying mid-epoch — both slots
         must roll back independently. *)

type program = {
  descr : string;
  init_live : bool array;  (* per block: allocated before the program *)
  txs : tx list;
  shape : shape;
}

let op_name = function
  | Set b -> "set " ^ block_name b
  | Alloc b -> "alloc " ^ block_name b
  | Free b -> "free " ^ block_name b

let tx_name t =
  Printf.sprintf "{%s}:%s"
    (String.concat "; " (List.map op_name t.ops))
    (match t.k with Commit -> "commit" | Abort -> "abort")

let descr_of p =
  let init =
    String.concat ""
      (List.filteri (fun b _ -> p.init_live.(b)) [ "A"; "B" ])
  in
  Printf.sprintf "init[%s]%s %s" init
    (match p.shape with
    | Seq -> ""
    | Interleaved -> " interleaved"
    | Grouped -> " grouped")
    (String.concat " " (List.map tx_name p.txs))

(* The durable image a program starts from.  The explorer dedups images
   by their marshaled bytes, which encode physical sharing, so the fill
   values are fresh blocks shared with no constant a schedule stores:
   the dedup (and the explored-state counts) then see exactly the
   sharing they saw when this function lived in a module of its own. *)
let initial_state cfg p =
  let d = Array.make (nwords cfg) (Int (Sys.opaque_identity 0)) in
  let gen0 = Gen (Sys.opaque_identity 0) in
  for b = 0 to nblocks - 1 do
    d.(heap_w cfg b) <- gen0;
    if p.init_live.(b) then
      d.(table_w cfg b) <-
        tab_set d.(table_w cfg b) (table_sub cfg b) (order_of_block b + 1)
  done;
  (* make every table word a [Tab] so stores compose predictably *)
  for b = 0 to nblocks - 1 do
    (match d.(table_w cfg b) with
    | Tab _ -> ()
    | v -> d.(table_w cfg b) <- tab_set v (table_sub cfg b) (tab_get v (table_sub cfg b)))
  done;
  d

(* {1 Expansion} *)

type gctx = {
  cfg : cfg;
  variant : Mvariant.t;
  mutable wid : int;
  gen : int array;  (* volatile heap generation per block *)
  code : int array;  (* volatile table code per block (0 / order+1) *)
  held : bool array;  (* block owned by the buddy (not reusable) *)
}

type slot_shadow = {
  s : int;
  mutable epoch : int;
  mutable cursor : int;
  mutable count : int;
  mutable ndrops : int;
  mutable drops : (int * int) list;  (* (blk, order), newest first *)
  mutable entries : sentry list;  (* newest first *)
  mutable marks : int list;
  mutable targets : int list;
  mutable logged : int list;
  mutable alloced : int list;
}

and sentry =
  | E_data of { blk : int; old_gen : int }
  | E_alloc of { blk : int; order : int }

let fresh_wid ctx =
  ctx.wid <- ctx.wid + 1;
  ctx.wid

let tab_value cfg code w =
  if cfg.table_split then Tab (code.(w - table_base_w cfg), 0)
  else Tab (code.(0), code.(1))

let new_shadow cfg s =
  {
    s;
    epoch = 0;
    cursor = entry_base cfg s;
    count = 0;
    ndrops = 0;
    drops = [];
    entries = [];
    marks = [];
    targets = [];
    logged = [];
    alloced = [];
  }

let reset_tx_shadow cfg sh =
  sh.cursor <- entry_base cfg sh.s;
  sh.count <- 0;
  sh.ndrops <- 0;
  sh.drops <- [];
  sh.entries <- [];
  sh.marks <- [];
  sh.targets <- [];
  sh.logged <- [];
  sh.alloced <- []

(* Seal an entry: body stores, header store, terminator store, then one
   flush + fence over entry and terminator together (the checksummed
   tail).  The Term_before_body variant narrows the flush to header and
   terminator only. *)
let seal ctx buf sh ~lbl words ~term_w =
  let push act = buf := { act; lbl } :: !buf in
  let hdr_w = fst (List.hd words) in
  List.iter (fun (w, v) -> push (St (w, v))) (List.tl words);
  push (St (fst (List.hd words), snd (List.hd words)));
  push (St (term_w, Int 0));
  (match ctx.variant with
  | Mvariant.Term_before_body -> push (Flw [ hdr_w; term_w ])
  | _ -> push (Fl (List.map fst words @ [ term_w ])));
  push Fence;
  sh.count <- sh.count + 1

let gen_op ctx buf sh ~uid op =
  let cfg = ctx.cfg in
  let push ?(lbl = "") act = buf := { act; lbl } :: !buf in
  match op with
  | Set blk ->
      let covered = List.mem blk sh.logged || List.mem blk sh.alloced in
      if not covered then begin
        let c = sh.cursor in
        assert (c + 3 < entry_limit cfg sh.s);
        let old_gen = ctx.gen.(blk) in
        let b1 = Eword { wid = fresh_wid ctx; pay = Undo { blk; old_gen } } in
        let b2 = Eword { wid = fresh_wid ctx; pay = Pad 0 } in
        let hdr =
          Ehdr
            {
              kind = K_data;
              epoch = sh.epoch;
              body = [ (c + 1, b1); (c + 2, b2) ];
            }
        in
        seal ctx buf sh
          ~lbl:(Printf.sprintf "seal data %s" (block_name blk))
          [ (c, hdr); (c + 1, b1); (c + 2, b2) ]
          ~term_w:(c + 3);
        sh.cursor <- c + 3;
        sh.entries <- E_data { blk; old_gen } :: sh.entries;
        sh.logged <- blk :: sh.logged
      end;
      push ~lbl:(Printf.sprintf "store %s" (block_name blk))
        (St (heap_w cfg blk, Gen uid));
      if not (List.mem (heap_w cfg blk) sh.targets) then
        sh.targets <- heap_w cfg blk :: sh.targets;
      ctx.gen.(blk) <- uid
  | Alloc blk ->
      assert (not ctx.held.(blk));
      let order = order_of_block blk in
      let c = sh.cursor in
      assert (c + 2 < entry_limit cfg sh.s);
      let b1 = Eword { wid = fresh_wid ctx; pay = Alloc_of { blk; order } } in
      let hdr =
        Ehdr { kind = K_alloc; epoch = sh.epoch; body = [ (c + 1, b1) ] }
      in
      seal ctx buf sh
        ~lbl:(Printf.sprintf "seal alloc %s" (block_name blk))
        [ (c, hdr); (c + 1, b1) ]
        ~term_w:(c + 2);
      sh.cursor <- c + 2;
      sh.entries <- E_alloc { blk; order } :: sh.entries;
      sh.alloced <- blk :: sh.alloced;
      (* mark-after-seal: the dirty table mark, durable only under the
         commit fence *)
      ctx.held.(blk) <- true;
      ctx.code.(blk) <- order + 1;
      push ~lbl:(Printf.sprintf "mark %s" (block_name blk))
        (St (table_w cfg blk, tab_value cfg ctx.code (table_w cfg blk)));
      if not (List.mem (table_w cfg blk) sh.marks) then
        sh.marks <- table_w cfg blk :: sh.marks
  | Free blk ->
      let order = order_of_block blk in
      let d = sh.ndrops + 1 in
      assert (d <= drop_capacity);
      let bw = drop_body_w cfg sh.s d and hw = drop_hdr_w cfg sh.s d in
      let body = Eword { wid = fresh_wid ctx; pay = Drop_of { blk; order } } in
      let lbl = Printf.sprintf "drop %s" (block_name blk) in
      push ~lbl (St (bw, body));
      push ~lbl
        (St (hw, Ehdr { kind = K_drop; epoch = sh.epoch; body = [ (bw, body) ] }));
      sh.ndrops <- d;
      sh.drops <- (blk, order) :: sh.drops

(* The truncate tail, from {!Pjournal.Protocol.truncate_plan} — except
   under Truncate_before_clears, which swaps the header persist in front
   of the clear persist (the bug the plan's ordering exists to rule
   out). *)
let truncate_steps ctx buf sh ~clears ~retired =
  let cfg = ctx.cfg in
  let push ?(lbl = "") act = buf := { act; lbl } :: !buf in
  let plan =
    match ctx.variant with
    | Mvariant.Truncate_before_clears when clears <> [] ->
        [ Pt.Reset_header; Pt.Persist_clears ]
    | _ -> Pt.truncate_plan ~spills:false ~clears:(clears <> [])
  in
  List.iter
    (fun ph ->
      match ph with
      | Pt.Persist_clears ->
          push ~lbl:"persist clears" (Fl (List.sort_uniq compare clears));
          push ~lbl:"persist clears" Fence
      | Pt.Reset_header ->
          sh.epoch <- sh.epoch + 1;
          let lbl = "truncate" in
          push ~lbl (St (count_w cfg sh.s, Int 0));
          push ~lbl (St (drops_w cfg sh.s, Int 0));
          push ~lbl (St (spill_w cfg sh.s, Int 0));
          push ~lbl (St (epoch_w cfg sh.s, Int sh.epoch));
          push ~lbl (St (entry_base cfg sh.s, Int 0));
          push ~lbl (St (phase_w cfg sh.s, Int 0));
          push ~lbl (Fl [ phase_w cfg sh.s; entry_base cfg sh.s ]);
          push ~lbl Fence;
          (match retired with
          | Some uid -> push (Mark (M_retired uid))
          | None -> ())
      | _ -> assert false)
    plan

let commit_steps ctx buf sh ~uid =
  let cfg = ctx.cfg in
  let push ?(lbl = "") act = buf := { act; lbl } :: !buf in
  if sh.count = 0 && sh.ndrops = 0 then begin
    (* nothing durable to do; the journal short-circuits *)
    push (Mark (M_commit_point uid));
    push (Mark (M_retired uid))
  end
  else begin
    let clears = ref [] in
    List.iter
      (fun ph ->
        match ph with
        | Pt.Flush_targets ->
            if sh.targets <> [] then
              push ~lbl:"flush targets" (Fl (List.sort_uniq compare sh.targets))
        | Pt.Flush_marks ->
            if sh.marks <> [] then
              push ~lbl:"flush marks" (Fl (List.sort_uniq compare sh.marks))
        | Pt.Persist_drop_area ->
            (* drop records only — the advisory header counts stay
               volatile (zeroed durably at truncation), exactly like the
               implementation *)
            let ws = ref [] in
            for d = 1 to sh.ndrops do
              ws := drop_hdr_w cfg sh.s d :: drop_body_w cfg sh.s d :: !ws
            done;
            push ~lbl:"flush drop area" (Fl (List.sort compare !ws))
        | Pt.Commit_fence ->
            push ~lbl:"commit fence" Fence;
            push (Mark (M_commit_point uid))
        | Pt.Apply_drops ->
            List.iter
              (fun (blk, _order) ->
                ctx.code.(blk) <- 0;
                ctx.held.(blk) <- false;
                push ~lbl:(Printf.sprintf "apply drop %s" (block_name blk))
                  (St
                     ( table_w cfg blk,
                       tab_value cfg ctx.code (table_w cfg blk) ));
                clears := table_w cfg blk :: !clears)
              (List.rev sh.drops)
        | _ -> assert false)
      (Pt.commit_plan ~ndrops:sh.ndrops);
    truncate_steps ctx buf sh ~clears:!clears ~retired:(Some uid)
  end;
  reset_tx_shadow cfg sh

(* Group commit, from {!Pjournal.Protocol.group_commit_plan}: the epoch
   leader's merged flush covers every member's targets, marks and drop
   records, one shared fence is every member's commit point, then each
   member applies its drops and truncates its own slot.  The completion
   steps serialize what runs concurrently on the real pool, but every
   persist still crashes word-granularly, and a crash before the shared
   fence is exactly the leader dying mid-epoch.  The Partial_merge fault
   variant drops the second member's words from the merged flush — the
   combiner bug the epoch batch exists to rule out. *)
let group_commit_steps ctx buf shs =
  let cfg = ctx.cfg in
  let push ?(lbl = "") act = buf := { act; lbl } :: !buf in
  let clears = Array.make (List.length shs) [] in
  List.iter
    (fun ph ->
      match ph with
      | Pt.Merge_runs ->
          let words (sh, _uid) =
            let ws = ref (sh.targets @ sh.marks) in
            for d = 1 to sh.ndrops do
              ws := drop_hdr_w cfg sh.s d :: drop_body_w cfg sh.s d :: !ws
            done;
            !ws
          in
          let merged =
            match ctx.variant with
            | Mvariant.Partial_merge -> words (List.hd shs)
            | _ -> List.concat_map words shs
          in
          if merged <> [] then
            push ~lbl:"merge runs" (Fl (List.sort_uniq compare merged))
      | Pt.Epoch_fence ->
          push ~lbl:"epoch fence" Fence;
          List.iter (fun (_sh, uid) -> push (Mark (M_commit_point uid))) shs
      | Pt.Apply_drops ->
          List.iteri
            (fun i (sh, _uid) ->
              List.iter
                (fun (blk, _order) ->
                  ctx.code.(blk) <- 0;
                  ctx.held.(blk) <- false;
                  push
                    ~lbl:(Printf.sprintf "apply drop %s" (block_name blk))
                    (St
                       ( table_w cfg blk,
                         tab_value cfg ctx.code (table_w cfg blk) ));
                  clears.(i) <- table_w cfg blk :: clears.(i))
                (List.rev sh.drops))
            shs
      | _ -> assert false)
    Pt.group_commit_plan;
  List.iteri
    (fun i (sh, uid) ->
      truncate_steps ctx buf sh ~clears:clears.(i) ~retired:(Some uid);
      reset_tx_shadow cfg sh)
    shs

let abort_steps ctx buf sh =
  let cfg = ctx.cfg in
  let push ?(lbl = "") act = buf := { act; lbl } :: !buf in
  if sh.count = 0 then truncate_steps ctx buf sh ~clears:[] ~retired:None
  else begin
    let clears = ref [] in
    List.iter
      (fun ph ->
        match ph with
        | Pt.Restore_data ->
            List.iter
              (fun e ->
                match e with
                | E_data { blk; old_gen } ->
                    push
                      ~lbl:(Printf.sprintf "restore %s" (block_name blk))
                      (St (heap_w cfg blk, Gen old_gen));
                    push
                      ~lbl:(Printf.sprintf "restore %s" (block_name blk))
                      (Fl [ heap_w cfg blk ]);
                    ctx.gen.(blk) <- old_gen
                | E_alloc _ -> ())
              sh.entries
        | Pt.Restore_fence -> push ~lbl:"restore fence" Fence
        | Pt.Revert_allocs ->
            List.iter
              (fun e ->
                match e with
                | E_alloc { blk; order = _ } ->
                    ctx.code.(blk) <- 0;
                    ctx.held.(blk) <- false;
                    push
                      ~lbl:(Printf.sprintf "revert alloc %s" (block_name blk))
                      (St
                         ( table_w cfg blk,
                           tab_value cfg ctx.code (table_w cfg blk) ));
                    clears := table_w cfg blk :: !clears
                | E_data _ -> ())
              sh.entries
        | _ -> assert false)
      (Pt.abort_plan ~entries:sh.count);
    truncate_steps ctx buf sh ~clears:!clears ~retired:None
  end;
  reset_tx_shadow cfg sh

(* Expand one transaction into (logging steps, completion steps). *)
let gen_tx_parts ctx sh ~uid tx =
  let buf = ref [] in
  buf := { act = Mark (M_start uid); lbl = "" } :: !buf;
  List.iter (gen_op ctx buf sh ~uid) tx.ops;
  let logging = List.rev !buf in
  let buf = ref [] in
  (match tx.k with
  | Commit -> commit_steps ctx buf sh ~uid
  | Abort -> abort_steps ctx buf sh);
  (logging, List.rev !buf)

let schedule cfg variant (p : program) : value step list =
  let ctx =
    {
      cfg;
      variant;
      wid = 0;
      gen = Array.make nblocks 0;
      code =
        Array.init nblocks (fun b ->
            if p.init_live.(b) then order_of_block b + 1 else 0);
      held = Array.copy p.init_live;
    }
  in
  match p.shape with
  | Seq ->
      let sh = new_shadow cfg 0 in
      List.concat
        (List.mapi
           (fun i tx ->
             let l, e = gen_tx_parts ctx sh ~uid:(i + 1) tx in
             l @ e)
           p.txs)
  | Interleaved -> (
      match p.txs with
      | [ t0; t1 ] ->
          assert (cfg.nslots >= 2);
          let sh0 = new_shadow cfg 0 and sh1 = new_shadow cfg 1 in
          let l0, e0 = gen_tx_parts ctx sh0 ~uid:1 t0 in
          let l1, e1 = gen_tx_parts ctx sh1 ~uid:2 t1 in
          l0 @ l1 @ e1 @ e0
      | _ -> invalid_arg "Mjournal.schedule: interleaved needs two txs")
  | Grouped -> (
      match p.txs with
      | [ t0; t1 ] ->
          assert (cfg.nslots >= 2);
          assert (t0.k = Commit && t1.k = Commit);
          let sh0 = new_shadow cfg 0 and sh1 = new_shadow cfg 1 in
          let log sh uid tx =
            let buf = ref [ { act = Mark (M_start uid); lbl = "" } ] in
            List.iter (gen_op ctx buf sh ~uid) tx.ops;
            List.rev !buf
          in
          let l0 = log sh0 1 t0 in
          let l1 = log sh1 2 t1 in
          let buf = ref [] in
          group_commit_steps ctx buf [ (sh0, 1); (sh1, 2) ];
          l0 @ l1 @ List.rev !buf
      | _ -> invalid_arg "Mjournal.schedule: grouped needs two txs")

(* {1 Program enumeration} *)

(* Valid op sequences of length <= [maxlen] from a given initial
   liveness: a block can be written or freed while live-and-not-freed,
   and allocated only while the buddy does not hold it (a block freed in
   the same transaction stays held until commit). *)
let valid_seqs ~init_live ~maxlen =
  let rec go live held freed len =
    if len = 0 then [ [] ]
    else
      let choices = ref [] in
      for b = nblocks - 1 downto 0 do
        if live.(b) && not freed.(b) then begin
          choices := (Set b, `Same) :: !choices;
          choices := (Free b, `Freed b) :: !choices
        end;
        if not held.(b) then choices := (Alloc b, `Alloced b) :: !choices
      done;
      [] :: (* stopping here is a valid (shorter) sequence *)
      List.concat_map
        (fun (op, eff) ->
          let live = Array.copy live
          and held = Array.copy held
          and freed = Array.copy freed in
          (match eff with
          | `Same -> ()
          | `Freed b -> freed.(b) <- true
          | `Alloced b ->
              live.(b) <- true;
              held.(b) <- true);
          List.map (fun rest -> op :: rest) (go live held freed (len - 1)))
        !choices
  in
  List.filter (fun s -> s <> []) (go init_live (Array.copy init_live) (Array.make nblocks false) maxlen)

let seq_programs () =
  let inits = [ [| true; false |]; [| true; true |] ] in
  let singles =
    List.concat_map
      (fun init_live ->
        List.concat_map
          (fun ops ->
            List.map
              (fun k ->
                let p = { descr = ""; init_live; txs = [ { ops; k } ]; shape = Seq } in
                { p with descr = descr_of p })
              [ Commit; Abort ])
          (valid_seqs ~init_live ~maxlen:2))
      inits
  in
  (* Two sequential transactions: a notable first tx, then every
     single-op continuation — this is what exercises slot reuse across
     an epoch bump (stale sealed bytes beyond the new terminator). *)
  let init_live = [| true; false |] in
  let firsts =
    [
      { ops = [ Set 0 ]; k = Commit };
      { ops = [ Alloc 1 ]; k = Commit };
      { ops = [ Free 0 ]; k = Commit };
      { ops = [ Set 0 ]; k = Abort };
    ]
  in
  let pairs =
    List.concat_map
      (fun t0 ->
        (* liveness after t0 *)
        let live = Array.copy init_live in
        (match t0.k with
        | Commit ->
            List.iter
              (function
                | Alloc b -> live.(b) <- true
                | Free b -> live.(b) <- false
                | Set _ -> ())
              t0.ops
        | Abort -> ());
        List.concat_map
          (fun ops ->
            List.map
              (fun k ->
                let p =
                  {
                    descr = "";
                    init_live;
                    txs = [ t0; { ops; k } ];
                    shape = Seq;
                  }
                in
                { p with descr = descr_of p })
              [ Commit; Abort ])
          (valid_seqs ~init_live:live ~maxlen:1))
      firsts
  in
  singles @ pairs

let interleaved_programs () =
  let mk init_live t0 t1 =
    let p = { descr = ""; init_live; txs = [ t0; t1 ]; shape = Interleaved } in
    { p with descr = descr_of p }
  in
  [
    mk [| true; true |] { ops = [ Set 0 ]; k = Commit } { ops = [ Set 1 ]; k = Commit };
    mk [| true; true |] { ops = [ Set 0 ]; k = Abort } { ops = [ Free 1 ]; k = Commit };
    mk [| true; false |] { ops = [ Set 0 ]; k = Commit } { ops = [ Alloc 1 ]; k = Commit };
    mk [| true; true |] { ops = [ Free 0 ]; k = Commit } { ops = [ Free 1 ]; k = Commit };
  ]

(* Two transactions committing through the epoch combiner, on disjoint
   blocks (one slot each).  The pairs cover merged flushes of targets
   only, targets + drop records, drops on both sides, mark-after-seal
   under the shared fence, and the fresh-allocation optimization whose
   target rides the merged run unlogged. *)
let grouped_programs () =
  let mk init_live ops0 ops1 =
    let p =
      {
        descr = "";
        init_live;
        txs = [ { ops = ops0; k = Commit }; { ops = ops1; k = Commit } ];
        shape = Grouped;
      }
    in
    { p with descr = descr_of p }
  in
  [
    mk [| true; true |] [ Set 0 ] [ Set 1 ];
    mk [| true; true |] [ Set 0 ] [ Free 1 ];
    mk [| true; true |] [ Free 0 ] [ Free 1 ];
    mk [| true; false |] [ Set 0 ] [ Alloc 1 ];
    mk [| true; false |] [ Alloc 1; Set 1 ] [ Free 0 ];
  ]

let programs cfg =
  if cfg.nslots >= 2 then interleaved_programs () @ grouped_programs ()
  else seq_programs ()

(* {1 The family's face to the explorer} *)

(* One slot with the table codes in one word or split over two, and two
   slots (interleaved and grouped programs). *)
let cfgs =
  [
    { nslots = 1; table_split = false };
    { nslots = 1; table_split = true };
    { nslots = 2; table_split = true };
  ]

let heading = ""
let spec_prefix cfg = Printf.sprintf "%d:%d" cfg.nslots (Bool.to_int cfg.table_split)

let parse_prefix = function
  | nslots :: split :: rest -> (
      match (int_of_string nslots, int_of_string split) with
      | nslots, split -> Some ({ nslots; table_split = split <> 0 }, rest)
      | exception Failure _ -> None)
  | _ -> None

let blank = Int 0
let name_width = 18

let describe cfg p =
  Printf.sprintf "%s  (nslots=%d table_split=%b)" p.descr cfg.nslots
    cfg.table_split

let tx_names p = List.map tx_name p.txs

(* The crash-free end state is already quiescent: every tail fenced. *)
let recover_end_state = false

(* {1 The oracle} *)

let allowed_outcomes p i st =
  match ((List.nth p.txs i).k, st) with
  | Abort, _ -> [ Rolled_back ]
  | Commit, (NotStarted | InFlight) -> [ Rolled_back ]
  | Commit, Window -> [ Rolled_back; Applied ]
  | Commit, Retired -> [ Applied ]

(* Replay a composition over the program: per-block heap generation and
   table code if each transaction's outcome is as given. *)
let expected p sigma =
  let gens = Array.make nblocks 0 in
  let codes =
    Array.init nblocks (fun b -> if p.init_live.(b) then order_of_block b + 1 else 0)
  in
  List.iteri
    (fun i tx ->
      if sigma.(i) = Applied then
        List.iter
          (function
            | Set b -> gens.(b) <- i + 1
            | Alloc b -> codes.(b) <- order_of_block b + 1
            | Free b -> codes.(b) <- 0)
          tx.ops)
    p.txs;
  (gens, codes)

let matches cfg p sigma (st : value array) ~heap_only =
  let gens, codes = expected p sigma in
  List.for_all
    (fun b ->
      (codes.(b) <= 0 || st.(heap_w cfg b) = Gen gens.(b))
      && (heap_only || tab_get st.(table_w cfg b) (table_sub cfg b) = codes.(b)))
    (List.init nblocks Fun.id)

let liveness_detail = "heap matches a composition but table codes match none"
