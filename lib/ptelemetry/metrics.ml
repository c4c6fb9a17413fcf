(* Sharded registry of counters and fixed-precision histograms.

   Multicore discipline: every metric is an array of [nshards] shards
   indexed by the calling domain's id, so concurrent domains update
   disjoint memory.  Counter shards are plain atomics (one
   fetch-and-add, no lock, no loop); histogram shards pair an [Hdr.t]
   with a mutex that is uncontended unless two domains collide on the
   same shard index.  Readers merge all shards at snapshot time —
   updates stay O(1) and contention-free, reads pay the merge. *)

(* 64 shards: domain ids are assigned densely from 0, so any realistic
   domain count maps injectively; a collision only costs one shared
   (still atomic / mutex-protected) shard. *)
let nshards = 64

let shard_id () = (Domain.self () :> int) land (nshards - 1)

(* Compatibility re-exports: the registry's bucket geometry is Hdr's. *)
let exact_threshold = Hdr.exact_capacity
let bucket_of = Hdr.index_of
let bucket_lo = Hdr.bucket_lo

type counter = { cname : string; cshards : int Atomic.t array }

type hshard = { hlock : Mutex.t; hdr : Hdr.t }
type histogram = { hname : string; hshards : hshard array }

type metric = C of counter | H of histogram

(* The registry: name -> metric, guarded for interning; individual
   updates use the metric's own synchronization. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let counter name =
  Mutex.lock registry_lock;
  let r =
    match Hashtbl.find_opt registry name with
    | Some (C c) -> Ok c
    | Some (H _) -> Error (name ^ " is already a histogram")
    | None ->
        let c =
          { cname = name; cshards = Array.init nshards (fun _ -> Atomic.make 0) }
        in
        Hashtbl.add registry name (C c);
        Ok c
  in
  Mutex.unlock registry_lock;
  match r with Ok c -> c | Error m -> invalid_arg ("Metrics.counter: " ^ m)

let histogram name =
  Mutex.lock registry_lock;
  let r =
    match Hashtbl.find_opt registry name with
    | Some (H h) -> Ok h
    | Some (C _) -> Error (name ^ " is already a counter")
    | None ->
        let h =
          {
            hname = name;
            hshards =
              Array.init nshards (fun _ ->
                  { hlock = Mutex.create (); hdr = Hdr.create () });
          }
        in
        Hashtbl.add registry name (H h);
        Ok h
  in
  Mutex.unlock registry_lock;
  match r with Ok h -> h | Error m -> invalid_arg ("Metrics.histogram: " ^ m)

let incr ?(by = 1) c =
  ignore (Atomic.fetch_and_add c.cshards.(shard_id ()) by)

let counter_value c =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.cshards

let observe h v =
  let s = h.hshards.(shard_id ()) in
  Mutex.lock s.hlock;
  Hdr.record s.hdr v;
  Mutex.unlock s.hlock

type histo_snapshot = Hdr.snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;
  samples : int list option;
}

let snapshot h =
  (* Merge-on-snapshot: fold every shard into a scratch Hdr under its
     own lock, so a concurrent writer never sees a torn read. *)
  let into = Hdr.create () in
  Array.iter
    (fun s ->
      Mutex.lock s.hlock;
      Hdr.merge_into ~into s.hdr;
      Mutex.unlock s.hlock)
    h.hshards;
  Hdr.snapshot into

let find_metric name =
  Mutex.lock registry_lock;
  let m = Hashtbl.find_opt registry name in
  Mutex.unlock registry_lock;
  m

let find_counter name =
  match find_metric name with Some (C c) -> Some (counter_value c) | _ -> None

let find_histogram name =
  match find_metric name with Some (H h) -> Some (snapshot h) | _ -> None

let mean = Hdr.mean
let exact = Hdr.exact
let quantile = Hdr.quantile

let sorted_metrics () =
  Mutex.lock registry_lock;
  let all = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let dump_text () =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, m) ->
      match m with
      | C c -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name (counter_value c))
      | H h ->
          let s = snapshot h in
          let approx = if exact s then "=" else "~" in
          Buffer.add_string buf
            (Printf.sprintf
               "%s count=%d sum=%d mean=%.1f p50%s%d p99%s%d p999%s%d max=%d\n"
               name s.count s.sum (mean s) approx (quantile s 0.5) approx
               (quantile s 0.99) approx
               (quantile s 0.999) s.max))
    (sorted_metrics ());
  Buffer.contents buf

let dump_json () =
  let counters = ref [] and histos = ref [] in
  List.iter
    (fun (name, m) ->
      match m with
      | C c -> counters := (name, Json.Num (float_of_int (counter_value c))) :: !counters
      | H h -> histos := (name, Hdr.to_json (snapshot h)) :: !histos)
    (sorted_metrics ());
  Json.Obj
    [ ("counters", Json.Obj (List.rev !counters));
      ("histograms", Json.Obj (List.rev !histos)) ]

(* {1 The probe subscriber}

   The stack's metric vocabulary, interned at startup so every dump
   lists it even when nothing moved. *)

let m_tx = counter "tx.count"
let m_aborts = counter "tx.aborts"
let h_tx_latency = histogram "tx.latency_ns"
let h_tx_logged = histogram "tx.logged_bytes"
let h_tx_flushes = histogram "tx.flushes"
let h_tx_fences = histogram "tx.fences"
let h_tx_undo = histogram "tx.undo_depth"
let m_entries = counter "journal.entries"
let m_spills = counter "journal.spills"
let h_entry_bytes = histogram "journal.entry_bytes"
let m_allocs = counter "alloc.count"
let m_frees = counter "free.count"
let h_alloc_size = histogram "alloc.size"
let h_free_size = histogram "free.size"
let m_epochs = counter "group_commit.epochs"
let m_group_commits = counter "group_commit.commits"
let h_occupancy = histogram "group_commit.occupancy"
let m_recoveries = counter "recovery.count"
let m_rolled_back = counter "recovery.rolled_back"
let m_completed = counter "recovery.completed"
let h_recovery_latency = histogram "recovery.latency_ns"

let tally = Probe.Tally.create ()
let ns f = int_of_float f

let of_probe ev =
  Probe.Tally.observe tally ev;
  match ev with
  | Probe.Tx_end { dev; outcome; ns = t1; logged_bytes; undo_depth } -> (
      match Probe.Tally.close tally ~dev with
      | None -> ()
      | Some t ->
          incr m_tx;
          if outcome = Probe.Abort then incr m_aborts;
          if outcome <> Probe.Crash then begin
            observe h_tx_latency (ns (t1 -. t.t0));
            observe h_tx_logged logged_bytes;
            observe h_tx_flushes t.flushes;
            observe h_tx_fences t.fences;
            observe h_tx_undo undo_depth
          end)
  | Probe.Log { entry; _ } | Probe.Alloc { entry; _ } when entry > 0 ->
      incr m_entries;
      observe h_entry_bytes entry
  | Probe.Region_reserve _ -> incr m_spills
  | Probe.Block_alloc { len; _ } ->
      incr m_allocs;
      observe h_alloc_size len
  | Probe.Block_free { len; _ } ->
      incr m_frees;
      observe h_free_size len
  | Probe.Epoch { members; _ } ->
      incr m_epochs;
      incr ~by:members m_group_commits;
      observe h_occupancy members
  | Probe.Recovery { dur_ns; rolled_back; completed; _ } ->
      incr m_recoveries;
      incr ~by:rolled_back m_rolled_back;
      incr ~by:completed m_completed;
      observe h_recovery_latency (ns dur_ns)
  | Probe.Recovery_phase { phase; dur_ns; _ } ->
      observe (histogram ("recovery.phase." ^ phase ^ "_ns")) (ns dur_ns)
  | _ -> ()

let probe_sub = Atomic.make None

let install () =
  let h = Probe.subscribe of_probe in
  if not (Atomic.compare_and_set probe_sub None (Some h)) then Probe.unsubscribe h

let uninstall () =
  Option.iter Probe.unsubscribe (Atomic.exchange probe_sub None)

let reset () =
  List.iter
    (fun (_, m) ->
      match m with
      | C c -> Array.iter (fun a -> Atomic.set a 0) c.cshards
      | H h ->
          Array.iter
            (fun s ->
              Mutex.lock s.hlock;
              Hdr.clear s.hdr;
              Mutex.unlock s.hlock)
            h.hshards)
    (sorted_metrics ())
