(* Layer spans for the traced run.

   Spans are recorded from outside the library: the suite wraps calls
   into each layer's public functions and never instruments library code.
   Each domain records into its own recorder (domain-local storage), so
   tracing adds no cross-domain synchronisation.  A recorder keeps

   - running per-layer self times over every traced span, where a span's
     self time is its duration minus the time its children cover; and
   - a preallocated buffer of the first whole ops' spans, written out as
     a Chrome trace and re-checked offline by {!check}. *)

module L = struct
  let op = 0
  let tx = 1
  let body = 2
  let read = 3
  let write = 4
  let alloc = 5
  let free = 6
  let lock = 7
  let find = 8
  let add = 9
  let remove = 10

  let names =
    [|
      "op"; "pool_impl.tx"; "body"; "engine.read"; "engine.write";
      "engine.alloc"; "engine.free"; "engine.lock"; "phashtbl.find";
      "phashtbl.add"; "phashtbl.remove";
    |]

  let count = Array.length names
end

let max_depth = 16
let capacity = 8192

type recorder = {
  tid : int;
  st_layer : int array;
  st_start : int array;
  st_child : int array;  (** time covered by closed children *)
  st_id : int array;
  mutable depth : int;
  mutable next_id : int;
  self_ns : int array;  (** per layer *)
  calls : int array;  (** per layer *)
  mutable ops : int;  (** root spans closed *)
  b_id : int array;
  b_parent : int array;  (** 0 for a root span *)
  b_layer : int array;
  b_start : int array;
  b_end : int array;
  b_op : int array;
  mutable len : int;
  mutable op_start : int;  (** [len] when the current op began *)
  mutable buffering : bool;
}

let make tid =
  let a n = Array.make n 0 in
  {
    tid;
    st_layer = a max_depth;
    st_start = a max_depth;
    st_child = a max_depth;
    st_id = a max_depth;
    depth = 0;
    next_id = 1;
    self_ns = a L.count;
    calls = a L.count;
    ops = 0;
    b_id = a capacity;
    b_parent = a capacity;
    b_layer = a capacity;
    b_start = a capacity;
    b_end = a capacity;
    b_op = a capacity;
    len = 0;
    op_start = 0;
    buffering = true;
  }

let key = Domain.DLS.new_key (fun () -> make (Domain.self () :> int))
let current () = Domain.DLS.get key

(* Start this domain's traced phase from empty. *)
let reset () =
  let r = current () in
  r.depth <- 0;
  r.next_id <- 1;
  Array.fill r.self_ns 0 L.count 0;
  Array.fill r.calls 0 L.count 0;
  r.ops <- 0;
  r.len <- 0;
  r.op_start <- 0;
  r.buffering <- true

let enter r layer =
  let d = r.depth in
  if d = 0 then r.op_start <- r.len;
  r.st_layer.(d) <- layer;
  r.st_child.(d) <- 0;
  r.st_id.(d) <- r.next_id;
  r.next_id <- r.next_id + 1;
  r.depth <- d + 1;
  r.st_start.(d) <- Measure.now_ns ()

let leave r =
  let t = Measure.now_ns () in
  let d = r.depth - 1 in
  r.depth <- d;
  let dur = t - r.st_start.(d) and layer = r.st_layer.(d) in
  r.self_ns.(layer) <- r.self_ns.(layer) + dur - r.st_child.(d);
  r.calls.(layer) <- r.calls.(layer) + 1;
  if d > 0 then r.st_child.(d - 1) <- r.st_child.(d - 1) + dur
  else r.ops <- r.ops + 1;
  (* The buffer keeps whole ops only, so every parent a buffered span
     names is buffered too: an op that would overflow it is dropped and
     buffering ends. *)
  if r.buffering && r.len = capacity then begin
    r.len <- r.op_start;
    r.buffering <- false
  end;
  if r.buffering then begin
    let i = r.len in
    r.b_id.(i) <- r.st_id.(d);
    r.b_parent.(i) <- (if d > 0 then r.st_id.(d - 1) else 0);
    r.b_layer.(i) <- layer;
    r.b_start.(i) <- r.st_start.(d);
    r.b_end.(i) <- t;
    r.b_op.(i) <- r.st_id.(0);
    r.len <- i + 1
  end

let span layer f =
  let r = current () in
  enter r layer;
  match f () with
  | v ->
      leave r;
      v
  | exception e ->
      leave r;
      raise e

(* The raw-heap engine with every call timed: transaction (and, inside
   it, the body the workload passed), read, write, alloc, free, lock.
   [pool_impl.tx] self time is therefore begin + commit + lock release:
   the transaction span minus the body span. *)
module Timed_engine (E : Engines.Engine_sig.S) :
  Engines.Engine_sig.S with type t = E.t = struct
  include E

  let transaction t f =
    span L.tx (fun () -> E.transaction t (fun x -> span L.body (fun () -> f x)))

  let read x off = span L.read (fun () -> E.read x off)
  let write x off v = span L.write (fun () -> E.write x off v)
  let alloc x n = span L.alloc (fun () -> E.alloc x n)
  let free x off = span L.free (fun () -> E.free x off)
  let lock x off = span L.lock (fun () -> E.lock x off)
end

(* {1 Aggregates} *)

let total_ops rs = List.fold_left (fun a r -> a + r.ops) 0 rs

let self_ns rs layer =
  List.fold_left (fun a r -> a + r.self_ns.(layer)) 0 rs

let calls rs layer = List.fold_left (fun a r -> a + r.calls.(layer)) 0 rs

(* {1 Chrome trace and offline self-check} *)

let events rs =
  let base =
    List.fold_left
      (fun m r -> Array.fold_left min m (Array.sub r.b_start 0 r.len))
      max_int rs
  in
  List.concat_map
    (fun r ->
      List.init r.len (fun i ->
          let name = L.names.(r.b_layer.(i)) in
          let cat =
            match String.index_opt name '.' with
            | Some j -> String.sub name 0 j
            | None -> "bench"
          in
          {
            Ptelemetry.Trace.name;
            cat;
            ph = Ptelemetry.Trace.X (float_of_int (r.b_end.(i) - r.b_start.(i)));
            ts_ns = float_of_int (r.b_start.(i) - base);
            tid = r.tid;
            args =
              [
                ("id", string_of_int r.b_id.(i));
                ("parent", string_of_int r.b_parent.(i));
                ("op", string_of_int r.b_op.(i));
              ];
          }))
    rs

let write_chrome path rs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Ptelemetry.Trace.to_chrome_json (events rs)))

(* Offline self time of one recorder's buffered spans, recomputed from
   the intervals themselves: each span's duration minus the union of
   its children's intervals clipped to it.  Returns (sum of self times,
   sum of root-span durations, parent ids that are missing). *)
let offline_self r =
  let index = Hashtbl.create (2 * r.len) in
  for i = 0 to r.len - 1 do
    Hashtbl.replace index r.b_id.(i) i
  done;
  let children = Hashtbl.create (2 * r.len) in
  let missing = ref [] and roots = ref 0 in
  for i = 0 to r.len - 1 do
    let p = r.b_parent.(i) in
    if p = 0 then roots := !roots + (r.b_end.(i) - r.b_start.(i))
    else if Hashtbl.mem index p then Hashtbl.add children p i
    else missing := p :: !missing
  done;
  let self = ref 0 in
  for i = 0 to r.len - 1 do
    let lo = r.b_start.(i) and hi = r.b_end.(i) in
    let kids =
      List.sort compare
        (List.map
           (fun c -> (max lo r.b_start.(c), min hi r.b_end.(c)))
           (Hashtbl.find_all children r.b_id.(i)))
    in
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (s, e) ->
          let s = max s reach in
          if e > s then (acc + (e - s), e) else (acc, reach))
        (0, lo) kids
    in
    self := !self + (hi - lo - covered)
  done;
  (!self, !roots, !missing)

(* Validate the written trace: the schema check shared with the rest of
   the telemetry stack, every parent id present, and the recomputed
   per-layer self times summing to within 1% of the op spans.  Returns
   the problems found. *)
let check path rs =
  let expected = List.fold_left (fun a r -> a + r.len) 0 rs in
  let schema =
    match Ptelemetry.Trace_schema.validate_file path with
    | Ok n when n = expected -> []
    | Ok n -> [ Printf.sprintf "trace holds %d events, expected %d" n expected ]
    | Error errs ->
        List.map
          (fun e -> Printf.sprintf "schema: event %d: %s" e.Ptelemetry.Trace_schema.index
              e.Ptelemetry.Trace_schema.msg)
          errs
  in
  let self, roots, missing =
    List.fold_left
      (fun (s, o, m) r ->
        let s', o', m' = offline_self r in
        (s + s', o + o', m' @ m))
      (0, 0, []) rs
  in
  let parents =
    match missing with
    | [] -> []
    | p :: _ ->
        [ Printf.sprintf "%d spans name a missing parent (e.g. %d)" (List.length missing) p ]
  in
  let closure =
    if expected = 0 then [ "no spans were buffered" ]
    else if Float.abs (float_of_int (self - roots)) > 0.01 *. float_of_int roots then
      [ Printf.sprintf "self times sum to %d ns, op spans to %d ns" self roots ]
    else []
  in
  schema @ parents @ closure

let check_and_write path rs =
  write_chrome path rs;
  check path rs
