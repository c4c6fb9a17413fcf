type phase = B | E | I | X of float

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_ns : float;
  tid : int;
  args : (string * string) list;
}

(* One ring per shard; [seq] is a per-ring emission sequence number used
   to keep the cross-ring merge stable for events sharing a timestamp. *)
type ring = {
  rlock : Mutex.t;
  buf : (event * int) option array;
  mutable next : int; (* slot the next event lands in *)
  mutable total : int; (* events ever emitted into this ring *)
}

(* [active] is the ring's own gate for direct {!emit} calls; [lock]
   serializes ring swaps.  Emission takes only the owning ring's lock,
   so N domains tracing concurrently contend only when they collide on
   a shard.  [rings] stays readable after {!uninstall}. *)
let active = Atomic.make false
let rings : ring array ref = ref [||]
let lock = Mutex.create ()
let probe_sub : Probe.handle option ref = ref None

let on () = Atomic.get active

let make_ring capacity =
  { rlock = Mutex.create (); buf = Array.make capacity None; next = 0; total = 0 }

let phase_string = function B -> "B" | E -> "E" | I -> "i" | X _ -> "X"

let event_to_json e =
  let base =
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str e.cat);
      ("ph", Json.Str (phase_string e.ph));
      ("ts", Json.Num (e.ts_ns /. 1000.0));
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int e.tid));
    ]
  in
  let dur = match e.ph with X d -> [ ("dur", Json.Num (d /. 1000.0)) ] | _ -> [] in
  let args =
    match e.args with
    | [] -> []
    | kvs -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)) ]
  in
  Json.Obj (base @ dur @ args)

let emit ?(args = []) ?tid ~cat ~name ~ph ~ts_ns () =
  if Atomic.get active then begin
    let tid = match tid with Some t -> t | None -> (Domain.self () :> int) in
    let rings = !rings in
    let r = rings.(tid land (Array.length rings - 1)) in
    Mutex.lock r.rlock;
    r.buf.(r.next) <- Some ({ name; cat; ph; ts_ns; tid; args }, r.total);
    r.next <- (r.next + 1) mod Array.length r.buf;
    r.total <- r.total + 1;
    Mutex.unlock r.rlock
  end

let begin_span ?args ~cat ~name ~ts_ns () = emit ?args ~cat ~name ~ph:B ~ts_ns ()
let end_span ?args ~cat ~name ~ts_ns () = emit ?args ~cat ~name ~ph:E ~ts_ns ()

(* {1 The probe subscriber}

   Renders the protocol stream in the trace vocabulary.  Complete spans
   end at the event's [ns]; the [tx] span's flush/fence attribution is
   the calling domain's own persists between its begin and end. *)

let tally = Probe.Tally.create ()

let of_probe ev =
  Probe.Tally.observe tally ev;
  let i = string_of_int in
  let inst cat name ns args = emit ~args ~cat ~name ~ph:I ~ts_ns:ns () in
  let span cat name ~ns ~dur args = emit ~args ~cat ~name ~ph:(X dur) ~ts_ns:(ns -. dur) () in
  match ev with
  | Probe.Flush { off; ns; lines; dur_ns; _ } ->
      span "device" "flush" ~ns ~dur:dur_ns [ ("off", i off); ("lines", i lines) ]
  | Probe.Fence { ns; lines; dur_ns; _ } ->
      span "device" "fence" ~ns ~dur:dur_ns [ ("lines", i lines) ]
  | Probe.Tx_begin { ns; slot; _ } -> inst "pool" "tx_begin" ns [ ("slot", i slot) ]
  | Probe.Tx_end { dev; outcome; ns; logged_bytes; undo_depth } -> (
      match Probe.Tally.close tally ~dev with
      | None -> ()
      | Some t ->
          span "pool" "tx" ~ns ~dur:(ns -. t.t0)
            [ ("outcome", Probe.outcome_name outcome); ("flushes", i t.flushes);
              ("fences", i t.fences); ("logged_bytes", i logged_bytes);
              ("undo_depth", i undo_depth) ])
  | Probe.Recovery { ns; dur_ns; slots; rolled_back; completed; entries_skipped; _ } ->
      span "pool" "recovery" ~ns ~dur:dur_ns
        [ ("slots", i slots); ("rolled_back", i rolled_back);
          ("completed", i completed); ("entries_skipped", i entries_skipped) ]
  | Probe.Recovery_phase { phase; ns; dur_ns; _ } ->
      span "pool" "recovery_phase" ~ns ~dur:dur_ns [ ("phase", phase) ]
  | Probe.Log { off; entry; ns; _ } when entry > 0 ->
      inst "journal" "log_entry" ns [ ("kind", "data"); ("off", i off); ("len", i entry) ]
  | Probe.Alloc { off; entry; ns; _ } when entry > 0 ->
      inst "journal" "log_entry" ns [ ("kind", "alloc"); ("off", i off); ("len", i entry) ]
  | Probe.Region_reserve { off; len; ns; _ } ->
      inst "journal" "spill" ns [ ("off", i off); ("bytes", i len) ]
  | Probe.Commit_point { ns; _ } -> inst "journal" "commit_point" ns []
  | Probe.Block_alloc { off; len; ns; _ } ->
      inst "palloc" "alloc" ns [ ("off", i off); ("bytes", i len) ]
  | Probe.Block_free { off; len; ns; _ } ->
      inst "palloc" "free" ns [ ("off", i off); ("bytes", i len) ]
  | _ -> ()

let install_ring ?(capacity = 65536) ?(shards = 1) () =
  if capacity <= 0 then invalid_arg "Trace.install_ring: capacity must be positive";
  if shards <= 0 then invalid_arg "Trace.install_ring: shards must be positive";
  (* Round the shard count up to a power of two so the emitting domain
     can pick its ring with one mask. *)
  let shards =
    let rec up n = if n >= shards then n else up (n * 2) in
    up 1
  in
  Mutex.lock lock;
  rings := Array.init shards (fun _ -> make_ring capacity);
  Atomic.set active true;
  if !probe_sub = None then probe_sub := Some (Probe.subscribe of_probe);
  Mutex.unlock lock

let uninstall () =
  Mutex.lock lock;
  Option.iter Probe.unsubscribe !probe_sub;
  probe_sub := None;
  Atomic.set active false;
  Mutex.unlock lock

let ring_events r =
  Mutex.lock r.rlock;
  let cap = Array.length r.buf in
  let n = min r.total cap in
  let first = if r.total <= cap then 0 else r.next in
  let evs =
    List.filter_map
      (fun i -> r.buf.((first + i) mod cap))
      (List.init n Fun.id)
  in
  Mutex.unlock r.rlock;
  evs

let current () =
  Mutex.lock lock;
  let rs = !rings in
  Mutex.unlock lock;
  rs

let events () =
  match current () with
  | [| r |] -> List.map fst (ring_events r)
  | rings ->
      (* Merge the per-domain rings into one stream ordered by simulated
         time; [seq] breaks timestamp ties so each ring's own order is
         preserved. *)
      Array.to_list rings
      |> List.concat_map ring_events
      |> List.stable_sort (fun (a, sa) (b, sb) ->
             match compare a.ts_ns b.ts_ns with 0 -> compare sa sb | c -> c)
      |> List.map fst

let dropped () =
  Array.fold_left
    (fun acc r ->
      Mutex.lock r.rlock;
      let d = max 0 (r.total - Array.length r.buf) in
      Mutex.unlock r.rlock;
      acc + d)
    0 (current ())

let clear () =
  Array.iter
    (fun r ->
      Mutex.lock r.rlock;
      Array.fill r.buf 0 (Array.length r.buf) None;
      r.next <- 0;
      r.total <- 0;
      Mutex.unlock r.rlock)
    (current ())

let to_chrome_json evs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Json.to_buffer buf (event_to_json e))
    evs;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let save_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json (events ())))
