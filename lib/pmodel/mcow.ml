(* The CoW family: the "mod" engine's commit protocol — the
   {!Corundum.Cow_root} intent/swap/recovery family over
   {!Pjournal.Protocol.cow_commit_plan} — as a model the explorer
   ({!Mcheck}) runs on the {!Mstate} machine: its own tiny layout and
   values, the committing transaction shapes the engine produces, their
   expansion into persist-granular schedules, a step-for-step mirror of
   [Cow_root.recover], and what a recovered image must look like
   (durable linearizability over the root word too, plus intent
   quiescence).

   Aborts are not modeled: the engine's abort is purely volatile
   (reservations cancelled, nothing of an uncommitted transaction was
   ever flushed), so an aborting transaction contributes no persist
   point and no crash branch the empty schedule does not already cover.

   The CRC of the intent record is modeled structurally, as in the
   journal family: the header value records the exact body words it
   covered, and verification is "every recorded word still reads back
   identically" — what the salted CRC certifies modulo collisions.

   Commit-word semantics mirrored here (and checked): for [Publish] the
   first publish word doubles as the commit indicator; for [Gen_only] /
   [Swap] the packed root word itself is the commit word; an
   intent-less bare swap fences first so its commit word can never land
   while a predecessor's unfenced tail is still in flight; recovery
   invalidates every intent it reads, including stale generations. *)

open Mcheck
module Ms = Mstate
module Pt = Pjournal.Protocol

(* {1 Layout}

   One word = one 8-byte atomic unit; lines of 8 words.
   Line 0: the packed root word.  Lines 1-2: the two intent record
   slots (header + up to 5 body words each), sealed alternately by
   generation parity, like the engine's cell.  Line 3: the two
   allocation-table words (they share a flush line but tear
   independently).  Lines 4-5: the two heap blocks, one word of
   payload each. *)

let words_per_line = Ms.words_per_line
let nblocks = 2
let nslots = 2
let root_w = 0
let ihdr_w s = 8 + (words_per_line * s)
let ibody_w s = ihdr_w s + 1 (* body words, up to 5 per slot *)
let slot_of_igen igen = igen land 1
let table_w b = 24 + b
let heap_w b = 32 + (words_per_line * b)
let nwords = 32 + (words_per_line * nblocks)
let order_of_block b = 3 - b
let block_name = function 0 -> "A" | 1 -> "B" | _ -> "?"

(* ptr encoding: 0 = no root, b+1 = block b *)
let ptr_name = function 0 -> "none" | p -> block_name (p - 1)

let word_name () w =
  if w = root_w then "root"
  else if w >= ihdr_w 0 && w < ihdr_w nslots then
    let s = (w - ihdr_w 0) / words_per_line in
    let o = (w - ihdr_w s) in
    if o = 0 then Printf.sprintf "intent%d.hdr" s
    else Printf.sprintf "intent%d.body[%d]" s (o - 1)
  else if w = table_w 0 || w = table_w 1 then
    Printf.sprintf "table.%s" (block_name (w - table_w 0))
  else if w >= heap_w 0 then
    let b = (w - heap_w 0) / words_per_line in
    if w = heap_w b then Printf.sprintf "heap.%s" (block_name b)
    else Printf.sprintf "heap.pad%d" w
  else Printf.sprintf "w%d" w

(* {1 Values} *)

type ikind = K_gen | K_swap of int | K_pub of int (* the recorded ptr *)

type pub = { w : int; oldv : value; newv : value }

and ipay =
  | P_pub of pub
  | P_alloc of int (* block *)
  | P_free of int

and value =
  | Int of int
  | Gen of int (* heap word: data generation (0 = initial contents) *)
  | Root of { ptr : int; gen : int } (* the packed 8-byte root word *)
  | Tab of int (* table word: 0 = free, order+1 = live *)
  | Ihdr of { igen : int; kind : ikind; body : (int * value) list }
  | Ibody of { wid : int; pay : ipay }

let kind_name = function
  | K_gen -> "gen-only"
  | K_swap p -> Printf.sprintf "swap->%s" (ptr_name p)
  | K_pub p -> Printf.sprintf "publish->%s" (ptr_name p)

let pp_value ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Gen g -> Format.fprintf ppf "gen:%d" g
  | Root { ptr; gen } -> Format.fprintf ppf "root(%s,g%d)" (ptr_name ptr) gen
  | Tab c -> Format.fprintf ppf "tab:%d" c
  | Ihdr { igen; kind; body } ->
      Format.fprintf ppf "ihdr(g%d,%s,%dw)" igen (kind_name kind)
        (List.length body)
  | Ibody { wid; pay = _ } -> Format.fprintf ppf "body#%d" wid

(* {1 Programs} *)

type op = Pub of int | Alloc of int | Free of int | Set_root of int
type tx = { ops : op list }

type program = {
  descr : string;
  init_live : bool array;
  init_root : int;
  txs : tx list;
}

let op_name = function
  | Pub b -> "pub " ^ block_name b
  | Alloc b -> "alloc " ^ block_name b
  | Free b -> "free " ^ block_name b
  | Set_root p -> "set-root " ^ ptr_name p

let tx_name t =
  Printf.sprintf "{%s}" (String.concat "; " (List.map op_name t.ops))

(* The durable image a program starts from. *)
let initial_state () p =
  let d = Array.make nwords (Int 0) in
  d.(root_w) <- Root { ptr = p.init_root; gen = 0 };
  for b = 0 to nblocks - 1 do
    d.(heap_w b) <- Gen 0;
    d.(table_w b) <- Tab (if p.init_live.(b) then order_of_block b + 1 else 0)
  done;
  d

(* Every committing transaction shape the engine produces: in-place
   update (Publish), alloc+write (+swap), frees (Gen_only/Swap/Publish),
   a publish dropped into a same-tx-freed block, the intent-less bare
   swap, and pairs exercising generation chaining, unfenced-tail
   draining, old-root retirement, and free-then-realloc intent-cell
   reuse. *)
let programs () =
  let mk descr init_live init_root txs = { descr; init_live; init_root; txs } in
  let t ops = { ops } in
  [
    mk "update" [| true; false |] 1 [ t [ Pub 0 ] ];
    mk "update-two-words" [| true; true |] 1 [ t [ Pub 0; Pub 1 ] ];
    mk "alloc+write+swap" [| true; false |] 1 [ t [ Alloc 1; Set_root 2 ] ];
    mk "alloc+pub" [| true; false |] 1 [ t [ Alloc 1; Pub 0 ] ];
    mk "free" [| true; true |] 1 [ t [ Free 1 ] ];
    mk "pub+free" [| true; true |] 1 [ t [ Pub 0; Free 1 ] ];
    mk "pub-into-freed" [| true; true |] 1 [ t [ Pub 1; Free 1 ] ];
    mk "bare-swap" [| true; true |] 1 [ t [ Set_root 2 ] ];
    mk "swap+free-old" [| true; true |] 2 [ t [ Set_root 1; Free 1 ] ];
    mk "update;update" [| true; false |] 1 [ t [ Pub 0 ]; t [ Pub 0 ] ];
    mk "update;bare-swap" [| true; true |] 1 [ t [ Pub 0 ]; t [ Set_root 2 ] ];
    mk "alloc+swap;free-old" [| true; false |] 1
      [ t [ Alloc 1; Set_root 2 ]; t [ Free 0 ] ];
    mk "free;realloc" [| true; true |] 1
      [ t [ Free 1 ]; t [ Alloc 1; Pub 0 ] ];
    mk "update;alloc+pub" [| true; false |] 1
      [ t [ Pub 0 ]; t [ Alloc 1; Pub 0 ] ];
    mk "bare-swap;bare-swap" [| true; true |] 1
      [ t [ Set_root 2 ]; t [ Set_root 1 ] ];
  ]

(* {1 Expansion}

   Mirrors [Mod_engine.commit] phase for phase, driving the tail from
   the very same {!Pjournal.Protocol.cow_commit_plan} the engine
   interprets.  A transaction's retirement (unambiguously applied) is
   marked at the first fence issued anywhere AFTER its root-swap flush
   — the buffered-durability window every plan closes with its next
   fence. *)

type gctx = {
  variant : Mvariant.t;
  mutable wid : int;
  mutable gen : int;
  mutable ptr : int;
  gens : int array;
  mutable awaiting : int list; (* uids whose swap flush awaits a fence *)
}

let fresh_wid ctx =
  ctx.wid <- ctx.wid + 1;
  ctx.wid

let push buf ?(lbl = "") act = buf := { act; lbl } :: !buf

(* A fence drains the WPQ: every transaction whose commit word was
   already flushed becomes unambiguously durable. *)
let fence_step ctx buf ~lbl =
  push buf ~lbl Fence;
  List.iter (fun u -> push buf (Mark (M_retired u))) (List.rev ctx.awaiting);
  ctx.awaiting <- []

let gen_tx ctx buf ~uid tx =
  push buf (Mark (M_start uid));
  (* classify ops volatilely, exactly like the engine's write-set *)
  let allocs = ref [] and frees = ref [] and pubs = ref [] in
  let pending_root = ref None in
  List.iter
    (fun op ->
      match op with
      | Alloc b ->
          allocs := b :: !allocs;
          (* the alloc+write shape: a shadow store into the fresh block *)
          push buf
            ~lbl:(Printf.sprintf "shadow store %s" (block_name b))
            (St (heap_w b, Gen uid))
      | Pub b -> if not (List.mem b !pubs) then pubs := b :: !pubs
      | Free b -> frees := b :: !frees
      | Set_root p -> pending_root := Some p)
    tx.ops;
  let allocs = List.rev !allocs and frees = List.rev !frees in
  let new_ptr = match !pending_root with Some p -> p | None -> ctx.ptr in
  (* publishes into same-tx-freed blocks are dropped, like the engine *)
  let pubs =
    List.filter_map
      (fun b ->
        if List.mem b frees then None
        else Some (heap_w b, Gen ctx.gens.(b), Gen uid))
      (List.rev !pubs)
  in
  let has_allocs = allocs <> [] and has_frees = frees <> [] in
  let has_shadow = allocs <> [] || pubs <> [] in
  let igen = ctx.gen + 1 in
  let shadow_words = List.map heap_w allocs in
  if not (has_allocs || has_frees || has_shadow) then begin
    match !pending_root with
    | None -> () (* read-only: nothing durable, no crash point *)
    | Some _ ->
        (* the intent-less bare swap: fence (drain any predecessor's
           unfenced tail), then the self-committing w0 store+flush *)
        fence_step ctx buf ~lbl:"bare-swap fence";
        push buf (Mark (M_commit_point uid));
        push buf ~lbl:"bare swap"
          (St (root_w, Root { ptr = new_ptr; gen = igen }));
        push buf ~lbl:"bare swap" (Fl [ root_w ]);
        ctx.awaiting <- uid :: ctx.awaiting;
        ctx.ptr <- new_ptr;
        ctx.gen <- igen
  end
  else begin
    let kind =
      match pubs with
      | [] -> if new_ptr = 0 then K_gen else K_swap new_ptr
      | _ -> K_pub new_ptr
    in
    let slot = slot_of_igen igen in
    let body =
      List.mapi
        (fun i (w, oldv, newv) ->
          (ibody_w slot + i,
           Ibody { wid = fresh_wid ctx; pay = P_pub { w; oldv; newv } }))
        pubs
      @ List.mapi
          (fun i b ->
            (ibody_w slot + List.length pubs + i,
             Ibody { wid = fresh_wid ctx; pay = P_alloc b }))
          allocs
      @ List.mapi
          (fun i b ->
            (ibody_w slot + List.length pubs + List.length allocs + i,
             Ibody { wid = fresh_wid ctx; pay = P_free b }))
          frees
    in
    assert (List.length body <= words_per_line - 1);
    let intent_words = ihdr_w slot :: List.map fst body in
    let need_intent = has_allocs || has_frees || pubs <> [] in
    let sealed = ref false in
    let seal ~lbl =
      List.iter (fun (w, v) -> push buf ~lbl (St (w, v))) body;
      push buf ~lbl (St (ihdr_w slot, Ihdr { igen; kind; body }));
      push buf ~lbl (Fl intent_words);
      sealed := true
    in
    let fenced = ref false and committed = ref false in
    let commit_point () =
      committed := true;
      push buf (Mark (M_commit_point uid))
    in
    let swap ~lbl =
      push buf ~lbl (St (root_w, Root { ptr = new_ptr; gen = igen }));
      push buf ~lbl (Fl [ root_w ])
    in
    let plan =
      Pt.cow_commit_plan ~allocs:has_allocs ~frees:has_frees ~shadow:has_shadow
    in
    List.iter
      (fun ph ->
        match ph with
        | Pt.Seal_intent ->
            seal ~lbl:"seal intent";
            fence_step ctx buf ~lbl:"seal fence";
            fenced := true
        | Pt.Shadow_flush ->
            (* the seeded Swap_before_flush bug: the root word is
               published before the data it points at is durable *)
            if ctx.variant = Mvariant.Swap_before_flush then
              swap ~lbl:"PREMATURE root swap";
            if need_intent && not !sealed then seal ~lbl:"seal (rides batch)";
            let marks =
              List.map
                (fun b ->
                  push buf
                    ~lbl:(Printf.sprintf "mark %s" (block_name b))
                    (St (table_w b, Tab (order_of_block b + 1)));
                  table_w b)
                allocs
            in
            if shadow_words @ marks <> [] then
              push buf ~lbl:"shadow flush" (Fl (shadow_words @ marks))
        | Pt.Commit_fence ->
            fence_step ctx buf ~lbl:"commit fence";
            fenced := true;
            commit_point ()
        | Pt.Root_swap ->
            if not !fenced then begin
              fence_step ctx buf ~lbl:"swap fence";
              fenced := true
            end;
            if not !committed then commit_point ();
            if pubs <> [] then begin
              List.iter
                (fun (w, _old, newv) ->
                  push buf ~lbl:"publish" (St (w, newv)))
                pubs;
              push buf ~lbl:"publish flush" (Fl (List.map (fun (w, _, _) -> w) pubs))
            end;
            if ctx.variant <> Mvariant.Swap_before_flush then
              swap ~lbl:"root swap";
            ctx.awaiting <- uid :: ctx.awaiting
        | Pt.Retire_old ->
            fence_step ctx buf ~lbl:"retire fence";
            let clears =
              List.map
                (fun b ->
                  push buf
                    ~lbl:(Printf.sprintf "retire %s" (block_name b))
                    (St (table_w b, Tab 0));
                  table_w b)
                frees
            in
            push buf ~lbl:"retire flush" (Fl clears)
        | _ -> assert false)
      plan;
    List.iter (fun (w, _, _) -> ctx.gens.((w - heap_w 0) / words_per_line) <- uid) pubs;
    List.iter (fun b -> ctx.gens.(b) <- uid) allocs;
    ctx.ptr <- new_ptr;
    ctx.gen <- igen
  end

let schedule () variant (p : program) : value step list =
  let ctx =
    {
      variant;
      wid = 0;
      gen = 0;
      ptr = p.init_root;
      gens = Array.make nblocks 0;
      awaiting = [];
    }
  in
  let buf = ref [] in
  List.iteri (fun i tx -> gen_tx ctx buf ~uid:(i + 1) tx) p.txs;
  List.rev !buf

(* {1 Modeled recovery — a mirror of Cow_root.recover} *)

let read_root m =
  match Ms.read m root_w with
  | Root { ptr; gen } -> (ptr, gen)
  | _ -> (0, 0)

(* CRC verification, structurally: the header's recorded body words must
   all read back identically. *)
let read_intent m s =
  match Ms.read m (ihdr_w s) with
  | Ihdr { igen; kind; body }
    when List.for_all (fun (w, v) -> Ms.read m w = v) body ->
      Some (igen, kind, body)
  | _ -> None

let read_intents m =
  List.filter_map
    (fun s -> Option.map (fun r -> (s, r)) (read_intent m s))
    (List.init nslots Fun.id)

let ensure_word clk m w v =
  if Ms.read m w <> v then begin
    Ms.store m w v;
    Ms.persist clk m [ w ]
  end

let tab_code m b = match Ms.read m (table_w b) with Tab c -> c | _ -> -1

let ensure_marked clk m b =
  if tab_code m b <> order_of_block b + 1 then begin
    Ms.store m (table_w b) (Tab (order_of_block b + 1));
    Ms.persist clk m [ table_w b ]
  end

let ensure_cleared clk m b =
  if tab_code m b <> 0 then begin
    Ms.store m (table_w b) (Tab 0);
    Ms.persist clk m [ table_w b ]
  end

let invalidate_intent clk m s =
  Ms.store m (ihdr_w s) (Int 0);
  Ms.persist clk m [ ihdr_w s ]

let body_effects body =
  List.fold_left
    (fun (pubs, allocs, frees) (_, v) ->
      match v with
      | Ibody { pay = P_pub p; _ } -> (p :: pubs, allocs, frees)
      | Ibody { pay = P_alloc b; _ } -> (pubs, b :: allocs, frees)
      | Ibody { pay = P_free b; _ } -> (pubs, allocs, b :: frees)
      | _ -> (pubs, allocs, frees))
    ([], [], []) (List.rev body)

let roll_forward clk m body =
  let pubs, allocs, frees = body_effects body in
  List.iter (fun { w; newv; _ } -> ensure_word clk m w newv) (List.rev pubs);
  List.iter (ensure_marked clk m) (List.rev allocs);
  List.iter (ensure_cleared clk m) (List.rev frees)

let roll_back clk m s body =
  let pubs, allocs, _frees = body_effects body in
  List.iter (fun { w; oldv; _ } -> ensure_word clk m w oldv) (List.rev pubs);
  List.iter (ensure_cleared clk m) (List.rev allocs);
  invalidate_intent clk m s

(* Mirror of [Cow_root.recover_cell]: stale records retired first, then
   the consumed slot rolled forward (its transaction is logically
   earlier), then the pending slot judged by its commit word. *)
let recover () _variant clk m =
  let _ptr, gen = read_root m in
  let recs = read_intents m in
  let pending (igen, _, _) = igen = gen + 1 in
  let consumed (igen, _, _) = igen = gen && gen <> 0 in
  List.iter
    (fun (s, r) ->
      (* stale generation: the transaction is gone either way *)
      if not (pending r || consumed r) then invalidate_intent clk m s)
    recs;
  List.iter
    (fun (s, ((_, _, body) as r)) ->
      if consumed r then begin
        roll_forward clk m body;
        invalidate_intent clk m s
      end)
    recs;
  List.iter
    (fun (s, ((igen, kind, body) as r)) ->
      if pending r then begin
        let committed =
          match kind with
          | K_gen | K_swap _ -> false
          | K_pub _ -> (
              let pubs, _, _ = body_effects body in
              match List.rev pubs with
              | { w; newv; _ } :: _ -> Ms.read m w = newv
              | [] -> false)
        in
        if committed then begin
          roll_forward clk m body;
          let ptr =
            match kind with
            | K_pub p -> p
            | K_gen | K_swap _ -> fst (read_root m)
          in
          Ms.store m root_w (Root { ptr; gen = igen });
          Ms.persist clk m [ root_w ];
          invalidate_intent clk m s
        end
        else roll_back clk m s body
      end)
    recs

(* {1 The oracle} *)

let allowed_outcomes _ _ = function
  | NotStarted | InFlight -> [ Rolled_back ]
  | Window -> [ Rolled_back; Applied ]
  | Retired -> [ Applied ]

(* Replay a composition: per-block generation and table code, the root
   pointer, and the root generation (each applied transaction advances
   it by exactly one — the igen chain). *)
let expected prog sigma =
  let gens = Array.make nblocks 0 in
  let codes =
    Array.init nblocks (fun b ->
        if prog.init_live.(b) then order_of_block b + 1 else 0)
  in
  let rptr = ref prog.init_root and rgen = ref 0 in
  List.iteri
    (fun i tx ->
      if sigma.(i) = Applied then begin
        let uid = i + 1 in
        let frees =
          List.filter_map (function Free b -> Some b | _ -> None) tx.ops
        in
        List.iter
          (fun op ->
            match op with
            | Pub b -> if not (List.mem b frees) then gens.(b) <- uid
            | Alloc b ->
                codes.(b) <- order_of_block b + 1;
                gens.(b) <- uid
            | Free b -> codes.(b) <- 0
            | Set_root p -> rptr := p)
          tx.ops;
        incr rgen
      end)
    prog.txs;
  (gens, codes, !rptr, !rgen)

let matches () prog sigma (st : value array) ~heap_only =
  let gens, codes, rptr, rgen = expected prog sigma in
  List.for_all
    (fun b ->
      (codes.(b) <= 0 || st.(heap_w b) = Gen gens.(b))
      && (heap_only || st.(table_w b) = Tab codes.(b)))
    (List.init nblocks Fun.id)
  && (heap_only || st.(root_w) = Root { ptr = rptr; gen = rgen })

let liveness_detail = "heap matches a composition but table/root words match none"

(* I-QUIESCENT-INTENT: no readable intent survives recovery. *)
let quiescent () st =
  if read_intents (Ms.boot st) <> [] then
    Error ("I-QUIESCENT-INTENT", "a readable intent survived recovery")
  else Ok ()

(* {1 The family's face to the explorer} *)

type cfg = unit (* one fixed geometry *)

let heading = "CoW family, "
let cfgs = [ () ]
let spec_prefix () = "cow"
let parse_prefix = function "cow" :: rest -> Some ((), rest) | _ -> None
let blank = Int 0
let name_width = 16
let describe () p = p.descr
let tx_names p = List.map tx_name p.txs

(* The last commit's tail is legitimately unfenced at the end of a run,
   so the crash-free end state is recovered before it is checked. *)
let recover_end_state = true
