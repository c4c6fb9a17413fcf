type tx_outcome = Commit | Abort | Crash

type event =
  | Store of { dev : int; off : int; len : int; ns : float }
  | Flush of { dev : int; off : int; len : int; ns : float; lines : int; dur_ns : float }
  | Fence of { dev : int; ns : float; lines : int; dur_ns : float }
  | Power_cycle of { dev : int }
  | Tx_begin of { dev : int; ns : float; slot : int }
  | Tx_end of {
      dev : int;
      outcome : tx_outcome;
      ns : float;
      logged_bytes : int;
      undo_depth : int;
    }
  | Log of { dev : int; off : int; len : int; entry : int; ns : float }
  | Alloc of { dev : int; off : int; len : int; entry : int; ns : float }
  | Commit_point of { dev : int; ns : float }
  | Region_reserve of { dev : int; off : int; len : int; ns : float }
  | Region_release of { dev : int; off : int }
  | Exempt_push of { dev : int }
  | Exempt_pop of { dev : int }
  | Pool_layout of {
      dev : int;
      journal_base : int;
      slot_size : int;
      nslots : int;
      table_base : int;
      heap_base : int;
      heap_len : int;
      cow_base : int;
      cow_len : int;
    }
  | Journal_truncate of { dev : int; slot_base : int; epoch : int }
  | Drop_apply of { dev : int; off : int }
  | Recovery_phase of { dev : int; phase : string; ns : float; dur_ns : float }
  | Recovery of {
      dev : int;
      ns : float;
      dur_ns : float;
      slots : int;
      rolled_back : int;
      completed : int;
      entries_skipped : int;
    }
  | Cow_shadow of { dev : int; off : int; len : int }
  | Cow_retire of { dev : int; off : int; len : int }
  | Epoch of { dev : int; members : int }
  | Block_alloc of { dev : int; off : int; len : int; ns : float }
  | Block_free of { dev : int; off : int; len : int; ns : float }

let dev_of = function
  | Store { dev; _ } | Flush { dev; _ } | Fence { dev; _ } | Power_cycle { dev }
  | Tx_begin { dev; _ } | Tx_end { dev; _ } | Log { dev; _ } | Alloc { dev; _ }
  | Commit_point { dev; _ } | Region_reserve { dev; _ } | Region_release { dev; _ }
  | Exempt_push { dev } | Exempt_pop { dev } | Pool_layout { dev; _ }
  | Journal_truncate { dev; _ } | Drop_apply { dev; _ } | Recovery_phase { dev; _ }
  | Recovery { dev; _ } | Cow_shadow { dev; _ } | Cow_retire { dev; _ }
  | Epoch { dev; _ } | Block_alloc { dev; _ } | Block_free { dev; _ } ->
      dev

(* {1 The bus}

   The subscriber list is an immutable snapshot swapped under [lock], so
   emission reads it with one atomic load and never locks; [active]
   mirrors [subs <> []] so the hot-path guard is a single atomic load. *)

type handle = int

let active = Atomic.make false
let subs : (handle * (event -> unit)) list Atomic.t = Atomic.make []
let next_handle = ref 0
let lock = Mutex.create ()

let on () = Atomic.get active

(* Must be called with [lock] held. *)
let set s =
  Atomic.set subs s;
  Atomic.set active (s <> [])

let subscribe f =
  Mutex.lock lock;
  let h = !next_handle in
  incr next_handle;
  set (Atomic.get subs @ [ (h, f) ]);
  Mutex.unlock lock;
  h

let unsubscribe h =
  Mutex.lock lock;
  set (List.filter (fun (h', _) -> h' <> h) (Atomic.get subs));
  Mutex.unlock lock

let emit ev =
  if Atomic.get active then List.iter (fun (_, f) -> f ev) (Atomic.get subs)

(* {1 Recording} *)

module Recorder = struct
  type buf = { m : Mutex.t; mutable evs : (int * event) list (* newest first *) }
  type t = { buf : buf; handle : handle }

  let start () =
    let buf = { m = Mutex.create (); evs = [] } in
    let record e =
      let dom = (Domain.self () :> int) in
      Mutex.lock buf.m;
      buf.evs <- (dom, e) :: buf.evs;
      Mutex.unlock buf.m
    in
    { buf; handle = subscribe record }

  let cut { buf; _ } =
    Mutex.lock buf.m;
    let evs = List.rev buf.evs in
    buf.evs <- [];
    Mutex.unlock buf.m;
    evs

  let stop r =
    unsubscribe r.handle;
    cut r
end

(* {1 Per-domain transaction tallies} *)

module Tally = struct
  type tally = { t0 : float; mutable flushes : int; mutable fences : int }

  (* dev -> the calling domain's open tally on it *)
  type t = (int * tally) list ref Domain.DLS.key

  let create () = Domain.DLS.new_key (fun () -> ref [])

  let bump k dev f =
    match List.assoc_opt dev !(Domain.DLS.get k) with Some t -> f t | None -> ()

  let observe k = function
    | Tx_begin { dev; ns; _ } ->
        let open_ = Domain.DLS.get k in
        open_ := (dev, { t0 = ns; flushes = 0; fences = 0 }) :: List.remove_assoc dev !open_
    | Flush { dev; _ } -> bump k dev (fun t -> t.flushes <- t.flushes + 1)
    | Fence { dev; _ } -> bump k dev (fun t -> t.fences <- t.fences + 1)
    | _ -> ()

  let close k ~dev =
    let open_ = Domain.DLS.get k in
    let t = List.assoc_opt dev !open_ in
    if t <> None then open_ := List.remove_assoc dev !open_;
    t
end

(* {1 Persistence} *)

let schema = "corundum-probe-v1"
let outcome_name = function Commit -> "commit" | Abort -> "abort" | Crash -> "crash"

let event_to_json ev =
  let i n v = (n, Json.Num (float_of_int v)) and f n v = (n, Json.Num v) in
  let t name fields = Json.Obj (("t", Json.Str name) :: fields) in
  let range name dev off len rest =
    t name (i "dev" dev :: i "off" off :: i "len" len :: rest)
  in
  match ev with
  | Store { dev; off; len; ns } -> range "store" dev off len [ f "ns" ns ]
  | Flush { dev; off; len; ns; lines; dur_ns } ->
      range "flush" dev off len [ f "ns" ns; i "lines" lines; f "dur_ns" dur_ns ]
  | Fence { dev; ns; lines; dur_ns } ->
      t "fence" [ i "dev" dev; f "ns" ns; i "lines" lines; f "dur_ns" dur_ns ]
  | Power_cycle { dev } -> t "power_cycle" [ i "dev" dev ]
  | Tx_begin { dev; ns; slot } -> t "tx_begin" [ i "dev" dev; f "ns" ns; i "slot" slot ]
  | Tx_end { dev; outcome; ns; logged_bytes; undo_depth } ->
      t "tx_end"
        [ i "dev" dev; ("outcome", Json.Str (outcome_name outcome)); f "ns" ns;
          i "logged_bytes" logged_bytes; i "undo_depth" undo_depth ]
  | Log { dev; off; len; entry; ns } ->
      range "log" dev off len [ i "entry" entry; f "ns" ns ]
  | Alloc { dev; off; len; entry; ns } ->
      range "alloc" dev off len [ i "entry" entry; f "ns" ns ]
  | Commit_point { dev; ns } -> t "commit_point" [ i "dev" dev; f "ns" ns ]
  | Region_reserve { dev; off; len; ns } ->
      range "region_reserve" dev off len [ f "ns" ns ]
  | Region_release { dev; off } -> t "region_release" [ i "dev" dev; i "off" off ]
  | Exempt_push { dev } -> t "exempt_push" [ i "dev" dev ]
  | Exempt_pop { dev } -> t "exempt_pop" [ i "dev" dev ]
  | Pool_layout
      { dev; journal_base; slot_size; nslots; table_base; heap_base; heap_len;
        cow_base; cow_len } ->
      t "pool_layout"
        [ i "dev" dev; i "journal_base" journal_base; i "slot_size" slot_size;
          i "nslots" nslots; i "table_base" table_base; i "heap_base" heap_base;
          i "heap_len" heap_len; i "cow_base" cow_base; i "cow_len" cow_len ]
  | Journal_truncate { dev; slot_base; epoch } ->
      t "journal_truncate" [ i "dev" dev; i "slot_base" slot_base; i "epoch" epoch ]
  | Drop_apply { dev; off } -> t "drop_apply" [ i "dev" dev; i "off" off ]
  | Recovery_phase { dev; phase; ns; dur_ns } ->
      t "recovery_phase"
        [ i "dev" dev; ("phase", Json.Str phase); f "ns" ns; f "dur_ns" dur_ns ]
  | Recovery { dev; ns; dur_ns; slots; rolled_back; completed; entries_skipped } ->
      t "recovery"
        [ i "dev" dev; f "ns" ns; f "dur_ns" dur_ns; i "slots" slots;
          i "rolled_back" rolled_back; i "completed" completed;
          i "entries_skipped" entries_skipped ]
  | Cow_shadow { dev; off; len } -> range "cow_shadow" dev off len []
  | Cow_retire { dev; off; len } -> range "cow_retire" dev off len []
  | Epoch { dev; members } -> t "epoch" [ i "dev" dev; i "members" members ]
  | Block_alloc { dev; off; len; ns } -> range "block_alloc" dev off len [ f "ns" ns ]
  | Block_free { dev; off; len; ns } -> range "block_free" dev off len [ f "ns" ns ]

let event_of_json j =
  let missing n = failwith ("Probe: event missing field " ^ n) in
  let getf n = match Json.mem n j with Some (Json.Num v) -> v | _ -> missing n in
  let geti n = int_of_float (getf n) in
  let gets n = match Json.mem n j with Some (Json.Str s) -> s | _ -> missing n in
  (* absent on captures recorded before the field existed *)
  let getf0 n = match Json.mem n j with Some (Json.Num v) -> v | _ -> 0.0 in
  let geti0 n = int_of_float (getf0 n) in
  let tag = match Json.mem "t" j with Some (Json.Str s) -> s | _ -> missing "t" in
  let dev = geti "dev" in
  let off () = geti "off" and len () = geti "len" and ns () = getf "ns" in
  match tag with
  | "store" -> Store { dev; off = off (); len = len (); ns = ns () }
  | "flush" ->
      Flush
        { dev; off = off (); len = len (); ns = ns (); lines = geti0 "lines";
          dur_ns = getf0 "dur_ns" }
  | "fence" -> Fence { dev; ns = ns (); lines = geti0 "lines"; dur_ns = getf0 "dur_ns" }
  | "power_cycle" -> Power_cycle { dev }
  | "tx_begin" -> Tx_begin { dev; ns = ns (); slot = geti0 "slot" }
  | "tx_end" ->
      let outcome =
        match List.find_opt (fun o -> outcome_name o = gets "outcome") [ Commit; Abort; Crash ] with
        | Some o -> o
        | None -> failwith ("Probe: unknown tx outcome " ^ gets "outcome")
      in
      Tx_end
        { dev; outcome; ns = ns (); logged_bytes = geti0 "logged_bytes";
          undo_depth = geti0 "undo_depth" }
  | "log" -> Log { dev; off = off (); len = len (); entry = geti0 "entry"; ns = getf0 "ns" }
  | "alloc" ->
      Alloc { dev; off = off (); len = len (); entry = geti0 "entry"; ns = getf0 "ns" }
  | "commit_point" -> Commit_point { dev; ns = ns () }
  | "region_reserve" -> Region_reserve { dev; off = off (); len = len (); ns = getf0 "ns" }
  | "region_release" -> Region_release { dev; off = off () }
  | "exempt_push" -> Exempt_push { dev }
  | "exempt_pop" -> Exempt_pop { dev }
  | "pool_layout" ->
      Pool_layout
        { dev; journal_base = geti "journal_base"; slot_size = geti "slot_size";
          nslots = geti "nslots"; table_base = geti "table_base";
          heap_base = geti "heap_base"; heap_len = geti "heap_len";
          cow_base = geti0 "cow_base"; cow_len = geti0 "cow_len" }
  | "journal_truncate" ->
      Journal_truncate { dev; slot_base = geti "slot_base"; epoch = geti "epoch" }
  | "drop_apply" -> Drop_apply { dev; off = off () }
  | "recovery_phase" ->
      Recovery_phase { dev; phase = gets "phase"; ns = ns (); dur_ns = getf "dur_ns" }
  | "recovery" ->
      Recovery
        { dev; ns = ns (); dur_ns = getf "dur_ns"; slots = geti "slots";
          rolled_back = geti "rolled_back"; completed = geti "completed";
          entries_skipped = geti "entries_skipped" }
  | "cow_shadow" -> Cow_shadow { dev; off = off (); len = len () }
  | "cow_retire" -> Cow_retire { dev; off = off (); len = len () }
  | "epoch" -> Epoch { dev; members = geti "members" }
  | "block_alloc" -> Block_alloc { dev; off = off (); len = len (); ns = ns () }
  | "block_free" -> Block_free { dev; off = off (); len = len (); ns = ns () }
  | tag -> failwith ("Probe: unknown event tag " ^ tag)

let to_json events =
  Json.Obj
    [ ("schema", Json.Str schema); ("events", Json.List (List.map event_to_json events)) ]

let of_json j =
  (match Json.mem "schema" j with
  | Some (Json.Str s) when s = schema -> ()
  | _ -> failwith ("Probe: expected schema " ^ schema));
  match Json.mem "events" j with
  | Some (Json.List evs) ->
      (* [pool_attach] records (heap bounds, now carried by [pool_layout])
         still appear in older captures *)
      List.filter_map
        (fun j ->
          if Json.mem "t" j = Some (Json.Str "pool_attach") then None
          else Some (event_of_json j))
        evs
  | _ -> failwith "Probe: capture without an events list"

let save path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json events)))

let load path =
  let ic = open_in path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_json (Json.of_string s)
