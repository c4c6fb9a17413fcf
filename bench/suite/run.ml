(* One workload, one process: set up, measure, crash, verify, report.

   Load model.  Each domain is a closed loop on the host clock: a caller
   of a PM library waits for its commit, so its next op starts when the
   previous one returns.  In simulated time the op stream runs as an
   open loop through [Loadgen.run] at a fixed offered rate, so simulated
   response time includes queueing.

   Phases, in order:
   1. set-up (pool create + preload), repeated at least [setups] times
      and until a tenth of [seconds] is spent;
   2. the simulated-time phase: the first [sim_ops] ops of the stream,
      untraced and deterministic for a seed.  The simulated metrics and
      every per-op count come from here.  On a shared pool the domains
      take strict turns in this phase: the device clock is global, and
      with one domain at a time each op's clock delta is its own cost;
   3. the host-time window: a warm-up, then [seconds] of closed loop cut
      into slices of [slice_ns].  With tracing, the second half of the
      window is traced;
   4. [crash_cycles] crash cycles, each landing between the undo-entry
      seal and the commit fence of an update;
   5. a last power cycle, after which every acknowledged key must read
      its oracle value. *)

open Workload
module D = Pmem.Device
module Rng = Loadgen.Rng
module B = Palloc.Buddy
module G = Pjournal.Group_commit

let setups = 3
let max_setups = 25
let crash_cycles = 16
let slice_ns = 100_000_000
let rate = 1e6
let preload_batch = 128

exception Window_closed

type counters = {
  mutable attempted : int;
  mutable failed : int;
  mutable writes : int;  (** acknowledged puts *)
}

(* Count a failure; the first few are described on stderr. *)
let logged = Atomic.make 0

let fail c fmt =
  c.failed <- c.failed + 1;
  if Atomic.fetch_and_add logged 1 < 20 then
    Printf.kfprintf (fun oc -> output_char oc '\n'; flush oc) stderr fmt
  else Printf.ifprintf stderr fmt

(* A domain's client: its oracle (the volatile truth every read is
   compared with), its value stream and its counters.  Domain [d] of [n]
   owns the keys [k * n + d]. *)
type 'v client = {
  d : int;
  n : int;
  oracle : (int, 'v) Hashtbl.t;
  values : Rng.t;
  c : counters;
}

let key_of cl k = (k * cl.n) + cl.d

(* Uniform enough in [0, bound) for bound far below 2^62.  (Not
   [Rng.int]: its rejection limit overflows and it never returns.) *)
let draw rng bound = Rng.next rng mod bound

(* Run one op against [s]; returns the host ns of the store call alone
   (the oracle bookkeeping is outside the timed region).  Any exception
   counts as a failed op. *)
let exec (kind : 'v kind) (s : 'v store) cl op =
  let c = cl.c in
  c.attempted <- c.attempted + 1;
  let key = key_of cl (Loadgen.op_key op) in
  try
    match op with
    | Loadgen.Read _ ->
        let t0 = Measure.now_ns () in
        let got = s.get key in
        let dt = Measure.now_ns () - t0 in
        if got <> Hashtbl.find_opt cl.oracle key then
          fail c "read of key %d disagrees with the oracle" key;
        dt
    | Loadgen.Update _ | Loadgen.Insert _ ->
        let v = kind.value_of (Rng.next cl.values) in
        let t0 = Measure.now_ns () in
        s.put key v;
        let dt = Measure.now_ns () - t0 in
        Hashtbl.replace cl.oracle key v;
        c.writes <- c.writes + 1;
        dt
    | Loadgen.Delete _ ->
        let t0 = Measure.now_ns () in
        let present = s.del key in
        let dt = Measure.now_ns () - t0 in
        if present <> Hashtbl.mem cl.oracle key then
          fail c "delete of key %d disagrees with the oracle" key;
        Hashtbl.remove cl.oracle key;
        dt
  with
  | Window_closed as e -> raise e
  | e ->
      fail c "op on key %d raised %s" key (Printexc.to_string e);
      0

let gen_spec spec ~ops ~rate ~seed =
  {
    Loadgen.arrivals = Loadgen.Arrival.Fixed rate;
    ops;
    keyspace = spec.keys;
    theta = spec.theta;
    mix = spec.mix;
    seed;
  }

(* {1 Simulated-time phase} *)

type sim = {
  report : Loadgen.report;
  responses : float array;  (** end - arrival per op *)
  reconstructed : bool;  (** the recomputation matches Loadgen's report *)
}

(* Response times are recomputed from the recorded service times with
   the open-loop recurrence Loadgen applies (op k arrives at k * gap and
   starts at max(arrival, previous end)), so the p99 is exact rather
   than a histogram bucket.  Matching Loadgen's busy time and last end
   time bit for bit proves the recomputation. *)
let responses ~gap services (r : Loadgen.report) =
  let prev_end = ref 0.0 and busy = ref 0.0 in
  let resp =
    Array.mapi
      (fun k dur ->
        let arrival = float_of_int k *. gap in
        let end_ = Float.max arrival !prev_end +. dur in
        prev_end := end_;
        busy := !busy +. dur;
        end_ -. arrival)
      services
  in
  (resp, !busy = r.Loadgen.busy_ns && !prev_end = r.Loadgen.last_end_ns)

(* [turn] sequences the domains: op i of domain d runs at turn i*n + d. *)
let sim_phase kind spec inst cl ~turn ~seed =
  let ops = spec.sim_ops / cl.n in
  let rate = rate /. float_of_int cl.n in
  let services = Array.make ops 0.0 in
  let i = ref 0 in
  let report =
    Loadgen.run (gen_spec spec ~ops ~rate ~seed) ~service:(fun op ->
        let mine = (!i * cl.n) + cl.d in
        while Atomic.get turn <> mine do
          Domain.cpu_relax ()
        done;
        let dev = PI.device inst.pool in
        let s0 = D.simulated_ns dev in
        ignore (exec kind inst.handles.plain cl op);
        let dt = D.simulated_ns dev -. s0 in
        services.(!i) <- dt;
        incr i;
        Atomic.incr turn;
        dt)
  in
  let responses, reconstructed = responses ~gap:(1e9 /. rate) services report in
  { report; responses; reconstructed }

(* {1 Host-time window} *)

type bounds = { t_start : int; t_mid : int; t_end : int }
(** The untraced measured part is [t_start, t_mid); with tracing,
    [t_mid, t_end) is traced, otherwise t_mid = t_end. *)

type window = {
  lat : Measure.Ibuf.t;  (** host ns per measured op, in time order *)
  per_slice : int array;  (** measured ops started in each slice *)
  total_ops : int;  (** every op of the phase, warm-up and traced too *)
  minor_words : float;  (** allocated by the measured untraced ops *)
  recorder : Spans.recorder option;
}

let window_phase kind spec inst cl ~seed b =
  let span = b.t_mid - b.t_start in
  let slices = max 1 (span / slice_ns) in
  let lat = Measure.Ibuf.create () and per_slice = Array.make slices 0 in
  let total = ref 0 and store = ref inst.handles.plain in
  let measuring = ref false and tracing = ref false in
  let mw0 = ref 0.0 and mw1 = ref 0.0 in
  (try
     ignore
       (Loadgen.run (gen_spec spec ~ops:max_int ~rate ~seed) ~service:(fun op ->
            let t = Measure.now_ns () in
            if t >= b.t_end then raise Window_closed;
            if t >= b.t_mid && not !tracing then begin
              mw1 := Gc.minor_words ();
              tracing := true;
              Spans.reset ();
              store := inst.handles.traced
            end
            else if t >= b.t_start && not !measuring then begin
              measuring := true;
              mw0 := Gc.minor_words ()
            end;
            let dt = exec kind !store cl op in
            incr total;
            if !measuring && not !tracing then begin
              let s = (t - b.t_start) * slices / span in
              per_slice.(s) <- per_slice.(s) + 1;
              Measure.Ibuf.push lat dt
            end;
            0.0))
   with Window_closed -> ());
  if not !tracing then mw1 := Gc.minor_words ();
  {
    lat;
    per_slice;
    total_ops = !total;
    minor_words = !mw1 -. !mw0;
    recorder = (if !tracing then Some (Spans.current ()) else None);
  }

(* {1 Crash cycles and the final durability check} *)

type cycle = { host_ns : int; sim_ns : float; rolled_back : int; phases : (string * float) list }

(* An update of a live key persists, in order: the undo entry's seal
   (flush, fence), the data flush, the commit fence, and the truncate's
   flush and fence.  A twin update of the same key counts those persist
   points; arming the countdown at that count minus two lands the crash
   on the commit fence — after the seal, before the commit point — so
   recovery must roll exactly one transaction back and the key must
   read the twin's acknowledged value. *)
let crash_cycle kind inst cl key =
  let dev = PI.device inst.pool in
  let v1 = kind.value_of (Rng.next cl.values) in
  let v2 = kind.value_of (Rng.next cl.values) in
  cl.c.attempted <- cl.c.attempted + 1;
  let p0 = D.persist_points dev in
  inst.handles.plain.put key v1;
  Hashtbl.replace cl.oracle key v1;
  D.set_crash_countdown dev (D.persist_points dev - p0 - 2);
  match inst.handles.plain.put key v2 with
  | () ->
      D.set_crash_countdown dev 0;
      Hashtbl.replace cl.oracle key v2;
      fail cl.c "crash cycle on key %d: the armed update committed" key;
      None
  | exception D.Crashed ->
      D.set_crash_countdown dev 0;
      (* Every timed attach starts from the same collector state, and
         from a zeroed simulated clock: recovery's phase costs are then
         exact, not differences of a large clock reading that depends on
         how many ops the window ran. *)
      Gc.full_major ();
      D.reset_stats dev;
      let t0 = Measure.now_ns () in
      inst.reattach ();
      let host_ns = Measure.now_ns () - t0 and sim_ns = D.simulated_ns dev in
      let r = PI.recovery_stats inst.pool in
      let rolled_back = r.Pjournal.Recovery.rolled_back in
      if rolled_back <> 1 then
        fail cl.c "crash cycle on key %d: recovery rolled back %d" key rolled_back
      else if inst.handles.plain.get key <> Some v1 then
        fail cl.c "crash cycle on key %d: acknowledged value lost" key;
      Some { host_ns; sim_ns; rolled_back; phases = r.Pjournal.Recovery.phase_ns }

let verify inst clients =
  inst.reattach ();
  let c = (List.hd clients).c in
  let live = ref 0 in
  List.iter
    (fun cl ->
      Hashtbl.iter
        (fun k v ->
          incr live;
          c.attempted <- c.attempted + 1;
          if inst.handles.plain.get k <> Some v then
            fail c "key %d lost its acknowledged value" k)
        cl.oracle)
    clients;
  c.attempted <- c.attempted + 1;
  if inst.handles.length () <> !live then
    fail c "store holds %d keys, the oracle %d" (inst.handles.length ()) !live;
  match inst.handles.check () with Ok () -> () | Error msg -> fail c "store check: %s" msg

(* {1 Results} *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;  (** the traced ones only with tracing *)
  problems : string list;  (** failed measurement self-checks *)
}

let recovery_phases =
  [ "walk"; "rollback"; "drop_apply"; "remark"; "truncate"; "table_scan"; "cow" ]

(* Closure test for the simulated-cost ledger: equal to 1e-9, relative. *)
let closes a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Host times are reported as the best of their repetitions: the
   fastest slice's throughput and the lowest per-slice latency
   percentiles, the fastest set-up and the fastest recovery.  Host
   interference on a shared machine comes in stretches of seconds that
   slow everything at once, the tail most of all, yet leaves quiet tenths
   of a second inside them; the best slice is out of their reach, while a
   change to the program moves every slice. *)
let best ~higher = function
  | [] -> 0.0
  | x :: xs -> List.fold_left (if higher then Float.max else Float.min) x xs

(* Consecutive slices are merged into groups holding [group_samples] on
   average, so a group's p99 has ten samples beyond it; on all but the
   slowest workload a group is a single slice. *)
let group_samples = 1000

let slice_stats windows ~seconds =
  let slices = Array.length (List.hd windows).per_slice in
  let total = List.fold_left (fun a w -> a + Measure.Ibuf.length w.lat) 0 windows in
  let g = min slices (max 1 (((group_samples * slices) + total - 1) / max 1 total)) in
  let group_s = seconds *. fi g /. fi slices in
  let offsets w =
    let o = Array.make (slices + 1) 0 in
    Array.iteri (fun s n -> o.(s + 1) <- o.(s) + n) w.per_slice;
    o
  in
  let offs = List.map offsets windows in
  let per k =
    let lo = k * g and hi = (k + 1) * g in
    let samples =
      Array.concat
        (List.map2 (fun w o -> Measure.Ibuf.sub w.lat o.(lo) (o.(hi) - o.(lo))) windows offs)
    in
    Array.sort compare samples;
    let n = Array.length samples in
    if n = 0 then (0.0, 0.0, 0.0)
    else
      ( fi n /. group_s,
        fi (Measure.rank_quantile samples 0.50) /. 1e3,
        fi (Measure.rank_quantile samples 0.99) /. 1e3 )
  in
  let xs = List.init (slices / g) per in
  ( best ~higher:true (List.map (fun (a, _, _) -> a) xs),
    best ~higher:false (List.map (fun (_, b, _) -> b) xs),
    best ~higher:false (List.map (fun (_, _, c) -> c) xs) )

let run_workload (kind : 'v kind) spec ~seed ~seconds ~trace ~trace_file =
  let nd = spec.domains in
  let root = Rng.create seed in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let clients =
    List.init nd (fun d ->
        {
          d;
          n = nd;
          oracle = Hashtbl.create (2 * spec.keys);
          values = Rng.split root;
          c = { attempted = 0; failed = 0; writes = 0 };
        })
  in
  (* Preload a seed-shuffled [preload] keys of each domain's keyspace. *)
  let preload =
    List.map
      (fun cl ->
        let ks = Array.init spec.keys (key_of cl) in
        for i = spec.keys - 1 downto 1 do
          let j = draw root (i + 1) in
          let t = ks.(i) in
          ks.(i) <- ks.(j);
          ks.(j) <- t
        done;
        let kvs = Array.init spec.preload (fun i -> (ks.(i), kind.value_of (Rng.next cl.values))) in
        Array.iter (fun (k, v) -> Hashtbl.replace cl.oracle k v) kvs;
        kvs)
      clients
  in
  let sim_seeds = List.map (fun _ -> Rng.next root) clients in
  let window_seeds = List.map (fun _ -> Rng.next root) clients in
  (* 1. Set-up; the last pool is the one measured. *)
  let setup () =
    let t0 = Measure.now_ns () in
    let inst = kind.create spec in
    List.iter
      (fun kvs ->
        let n = Array.length kvs in
        let i = ref 0 in
        while !i < n do
          let hi = min n (!i + preload_batch) in
          inst.batch (fun () ->
              for j = !i to hi - 1 do
                let k, v = kvs.(j) in
                inst.handles.plain.put k v
              done);
          i := hi
        done)
      preload;
    (inst, fi (Measure.now_ns () - t0) /. 1e9)
  in
  (* Quick set-ups are repeated until a tenth of the window's length is
     spent, so their median is not one noisy sample.  Each pool is dropped before
     the collection that frees it, so two pools never coexist. *)
  let throwaway () =
    let inst, dt = setup () in
    inst.close ();
    dt
  in
  let rec discard times spent =
    let n = List.length times + 1 in
    if n >= max_setups || (n >= setups && spent >= seconds /. 10.0) then times
    else begin
      let dt = throwaway () in
      Gc.full_major ();
      discard (dt :: times) (spent +. dt)
    end
  in
  let times = discard [] 0.0 in
  let inst, dt = setup () in
  let setup_times = dt :: times in
  let dev = PI.device inst.pool in
  (* 2 + 3.  The pool statistics walk the allocation table (device
     loads), so they are read outside the device-counter interval. *)
  let ps0 = PI.stats inst.pool in
  let ds0 = D.stats dev and sim0 = D.simulated_ns dev in
  let after_sim = ref None and at_window = ref None in
  let live_at_sim_end = ref 0 and writes_at_sim_end = ref 0 in
  (* Peak memory of set-up and the simulated phase: read before the
     window, whose latency buffers grow with the host's speed. *)
  let rss_at_sim_end = ref 0.0 in
  let warmup = Float.min 1.0 (seconds /. 10.0) in
  (* Runs between the phases, while every domain waits. *)
  let open_window () =
    let ds1 = D.stats dev and sim1 = D.simulated_ns dev in
    let ps1 = PI.stats inst.pool in
    after_sim := Some (ds1, sim1, ps1);
    rss_at_sim_end := Measure.peak_rss_mib ();
    List.iter
      (fun cl ->
        live_at_sim_end := !live_at_sim_end + Hashtbl.length cl.oracle;
        writes_at_sim_end := !writes_at_sim_end + cl.c.writes)
      clients;
    at_window :=
      Some (Gc.quick_stat (), B.stripe_stats (PI.buddy inst.pool), PI.group_commit_stats inst.pool);
    let ns s = int_of_float (s *. 1e9) in
    let t_start = Measure.now_ns () + ns warmup in
    let t_end = t_start + ns seconds in
    { t_start; t_mid = (if trace then t_start + ((t_end - t_start) / 2) else t_end); t_end }
  in
  let turn = Atomic.make 0 and registered = Atomic.make 0 in
  let at_barrier = Atomic.make 0 and published = Atomic.make None in
  let worker cl sim_seed window_seed =
    if nd > 1 then begin
      (* Register in domain order, so slot (and stripe) binding is the
         same on every run. *)
      while Atomic.get registered <> cl.d do
        Domain.cpu_relax ()
      done;
      ignore (PI.register_domain inst.pool);
      Atomic.incr registered
    end;
    let sim = sim_phase kind spec inst cl ~turn ~seed:sim_seed in
    let b =
      if nd = 1 then open_window ()
      else begin
        Atomic.incr at_barrier;
        let rec wait () =
          match Atomic.get published with
          | Some b -> b
          | None ->
              Unix.sleepf 0.0005;
              wait ()
        in
        wait ()
      end
    in
    let w = window_phase kind spec inst cl ~seed:window_seed b in
    if nd > 1 then PI.unregister_domain inst.pool;
    (sim, w)
  in
  let phases =
    if nd = 1 then [ worker (List.hd clients) (List.hd sim_seeds) (List.hd window_seeds) ]
    else begin
      let doms =
        List.map2
          (fun (cl, s) w -> Domain.spawn (fun () -> worker cl s w))
          (List.combine clients sim_seeds)
          window_seeds
      in
      while Atomic.get at_barrier < nd do
        Unix.sleepf 0.001
      done;
      Atomic.set published (Some (open_window ()));
      List.map Domain.join doms
    end
  in
  let sims = List.map fst phases and windows = List.map snd phases in
  let gc1 = Gc.quick_stat () in
  let buddy1 = B.stripe_stats (PI.buddy inst.pool) in
  let group1 = PI.group_commit_stats inst.pool in
  let ds1, sim1, ps1 = Option.get !after_sim in
  let gc0, buddy0, group0 = Option.get !at_window in
  (* 4. Crash cycles on live keys, chosen by the seed. *)
  let cl0 = List.hd clients in
  let live = Array.of_seq (Hashtbl.to_seq_keys cl0.oracle) in
  Array.sort compare live;
  let cycles =
    List.filter_map
      (fun _ -> crash_cycle kind inst cl0 live.(draw root (Array.length live)))
      (List.init crash_cycles Fun.id)
  in
  (* 5. Durability of everything acknowledged. *)
  verify inst clients;
  (* {2 Metrics} *)
  let sum f = List.fold_left (fun a x -> a + f x) 0 in
  let attempted = sum (fun cl -> cl.c.attempted) clients in
  let failed = sum (fun cl -> cl.c.failed) clients in
  let sim_ops = fi (sum (fun s -> s.report.Loadgen.ops) sims) in
  let per_op x = ratio x sim_ops in
  let lat = inst.pool |> PI.device |> D.latency in
  let dd f = fi (f ds1 - f ds0) in
  let sim_ns =
    Pmem.Latency.
      [
        ("load", dd (fun s -> s.D.loads) *. lat.read_ns);
        ("store", dd (fun s -> s.D.stores) *. lat.write_ns);
        ( "flush",
          (dd (fun s -> s.D.flush_calls) *. lat.flush_ns)
          +. (dd (fun s -> s.D.flushes - s.D.flush_calls) *. lat.flush_bulk_ns) );
        ( "fence",
          (dd (fun s -> s.D.fences) *. lat.fence_base_ns)
          +. (dd (fun s -> s.D.fence_lines) *. lat.fence_per_line_ns) );
        ("alloc", dd (fun s -> s.D.alloc_steps) *. lat.alloc_step_ns);
        ("fixed", dd (fun s -> s.D.extra_ns));
      ]
  in
  let ledger = List.fold_left (fun a (_, v) -> a +. v) 0.0 sim_ns in
  let busy = List.fold_left (fun a s -> a +. s.report.Loadgen.busy_ns) 0.0 sims in
  if not (closes ledger (sim1 -. sim0)) then
    problem "ledger: per-primitive costs sum to %.17g ns, the device clock moved %.17g ns"
      ledger (sim1 -. sim0);
  if not (closes busy (sim1 -. sim0)) then
    problem "ledger: op service times sum to %.17g ns, the device clock moved %.17g ns"
      busy (sim1 -. sim0);
  if not (List.for_all (fun s -> s.reconstructed) sims) then
    problem "open-loop response times do not reproduce Loadgen's report";
  let responses = Array.concat (List.map (fun s -> s.responses) sims) in
  Array.sort compare responses;
  let measured_s = if trace then seconds /. 2.0 else seconds in
  let ops_s, p50_us, p99_us = slice_stats windows ~seconds:measured_s in
  let med xs = if xs = [] then 0.0 else Measure.median xs in
  let cyc f = med (List.map f cycles) in
  let m name value unit_ = { name; value; unit_ } in
  let end_to_end =
    [
      m "host_ops_per_s" ops_s "ops/s";
      m "host_p50_us" p50_us "us";
      m "host_p99_us" p99_us "us";
      m "sim_ns_per_op" (per_op busy) "sim_ns";
      m "sim_p99_ns" (Measure.rank_quantile responses 0.99) "sim_ns";
      m "setup_s" (best ~higher:false setup_times) "s";
      m "recovery_sim_us" (cyc (fun c -> c.sim_ns /. 1e3)) "sim_us";
      m "space_amp"
        (ratio (fi ps1.PI.heap_used) (fi !live_at_sim_end *. fi kind.user_bytes))
        "ratio";
      m "peak_rss_mb" !rss_at_sim_end "MiB";
    ]
  in
  (* Per-layer counts: the simulated phase for per-op work, the window
     for contention and GC, the crash cycles for recovery. *)
  let dp f = fi (f ps1 - f ps0) in
  let window_ops = fi (sum (fun w -> w.total_ops) windows) in
  let measured_ops = fi (sum (fun w -> Measure.Ibuf.length w.lat) windows) in
  let stripes f a = Array.fold_left (fun acc s -> acc + f s) 0 a in
  let stripe_delta f = fi (stripes f buddy1 - stripes f buddy0) in
  let group =
    (* Private pools run no combiner: every group-commit count reads 0. *)
    let none = { G.epochs = 0; commits = 0; solo_epochs = 0; max_occupancy = 0 } in
    let g0 = Option.value ~default:none group0 and g1 = Option.value ~default:none group1 in
    let d f = fi (f g1 - f g0) in
    let epochs = d (fun g -> g.G.epochs) in
    [
      m "group_commit.occupancy_mean" (ratio (d (fun g -> g.G.commits)) epochs) "commits";
      m "group_commit.solo_frac" (ratio (d (fun g -> g.G.solo_epochs)) epochs) "ratio";
      m "group_commit.epochs_per_op" (ratio epochs window_ops) "count";
      m "group_commit.max_occupancy" (fi g1.G.max_occupancy) "commits";
    ]
  in
  let counts =
    [
      m "pool_impl.tx_per_op" (per_op (dp (fun s -> s.PI.transactions))) "count";
      m "pool_impl.aborts_per_op" (per_op (dp (fun s -> s.PI.aborts))) "count";
      m "journal.log_requests_per_op" (per_op (dp (fun s -> s.PI.log_requests))) "count";
      m "journal.logged_bytes_per_op" (per_op (dp (fun s -> s.PI.logged_bytes))) "B";
    ]
    @ group
    @ [
        m "buddy.allocs_per_op" (per_op (dp (fun s -> s.PI.allocations))) "count";
        m "buddy.frees_per_op" (per_op (dp (fun s -> s.PI.frees))) "count";
        m "buddy.steals" (stripe_delta (fun s -> s.B.ss_steals)) "count";
        m "buddy.contended" (stripe_delta (fun s -> s.B.ss_contended)) "count";
        m "device.loads_per_op" (per_op (dd (fun s -> s.D.loads))) "count";
        m "device.stores_per_op" (per_op (dd (fun s -> s.D.stores))) "count";
        m "device.flush_calls_per_op" (per_op (dd (fun s -> s.D.flush_calls))) "count";
        m "device.flush_lines_per_op" (per_op (dd (fun s -> s.D.flushes))) "count";
        m "device.fences_per_op" (per_op (dd (fun s -> s.D.fences))) "count";
        m "device.fence_lines_per_op" (per_op (dd (fun s -> s.D.fence_lines))) "count";
        m "device.writeback_bytes_per_user_byte"
          (ratio
             (dd (fun s -> s.D.flushes) *. fi D.line_size)
             (fi (!writes_at_sim_end * kind.user_bytes)))
          "ratio";
      ]
    @ List.map (fun (p, v) -> m ("device.sim_ns." ^ p) (per_op v) "sim_ns") sim_ns
    @ List.map
        (fun p ->
          m
            (Printf.sprintf "recovery.%s_sim_ns" p)
            (cyc (fun c -> Option.value ~default:0.0 (List.assoc_opt p c.phases)))
            "sim_ns")
        recovery_phases
    @ [
        (* Host recovery time is memory-bandwidth bound (the power cycle
           copies the whole device, the attach scans its whole table) and
           all cycles fall within a second, so one stretch of host
           interference moves every cycle of a run: on small pools it
           spreads by more than any end-to-end bound allows.  Reported
           here, unbounded; [recovery_sim_us] is the end-to-end metric. *)
        m "recovery.host_ms"
          (best ~higher:false (List.map (fun c -> fi c.host_ns /. 1e6) cycles))
          "ms";
        m "recovery.rolled_back_per_cycle"
          (ratio (fi (sum (fun c -> c.rolled_back) cycles)) (fi (List.length cycles)))
          "count";
        m "loadgen.sim_backlog_max_ns"
          (List.fold_left (fun a s -> Float.max a s.report.Loadgen.max_backlog_ns) 0.0 sims)
          "sim_ns";
        m "gc.minor_words_per_op"
          (ratio (List.fold_left (fun a w -> a +. w.minor_words) 0.0 windows) measured_ops)
          "words";
        m "gc.major_collections" (fi (gc1.Gc.major_collections - gc0.Gc.major_collections)) "count";
      ]
  in
  (* Host ns by layer, from the traced half of the window. *)
  let traced =
    let rs = List.filter_map (fun w -> w.recorder) windows in
    if not trace then []
    else begin
      List.iter (fun p -> problem "trace: %s" p) (Spans.check_and_write trace_file rs);
      let ops = fi (Spans.total_ops rs) in
      let ns layers =
        ratio (fi (List.fold_left (fun a l -> a + Spans.self_ns rs l) 0 layers)) ops
      in
      let calls l = ratio (fi (Spans.calls rs l)) ops in
      let kv = not spec.typed in
      let untraced = measured_ops /. measured_s in
      let traced_rate = ops /. (seconds -. measured_s) in
      Spans.L.
        [
          m "pool_impl.commit_ns_per_op" (ns [ tx ]) "ns";
          m "engine.read_ns_per_op" (ns [ read ]) "ns";
          m "engine.write_ns_per_op" (ns [ write ]) "ns";
          m "engine.alloc_ns_per_op" (ns [ alloc ]) "ns";
          m "engine.free_ns_per_op" (ns [ free ]) "ns";
          m "engine.lock_ns_per_op" (ns [ lock ]) "ns";
          m "engine.writes_per_op" (calls write) "count";
          m "kvstore.self_ns_per_op" (if kv then ns [ op; body ] else 0.0) "ns";
          m "kvstore.engine_reads_per_op" (calls read) "count";
          m "phashtbl.body_ns_per_op" (ns [ add; remove ]) "ns";
          m "phashtbl.find_ns_per_op" (ns [ find ]) "ns";
          m "trace.overhead_frac" (1.0 -. ratio traced_rate untraced) "ratio";
        ]
    end
  in
  {
    correct = failed = 0 && !problems = [];
    attempted;
    failed;
    end_to_end;
    per_layer = traced @ counts;
    problems = List.rev !problems;
  }
