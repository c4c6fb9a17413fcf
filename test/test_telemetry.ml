(* The telemetry subsystem: metrics registry known answers, trace ring
   ordering and span discipline, Chrome exporter round-trips, the
   zero-overhead guarantee with no subscriber (and with every subscriber
   on the probe bus at once), and the exact flush/fence attribution of
   one committed Pbox update. *)

open Corundum
module D = Pmem.Device
module Tr = Ptelemetry.Trace
module Mx = Ptelemetry.Metrics
module Json = Ptelemetry.Json
module Schema = Ptelemetry.Trace_schema

let small =
  { Pool_impl.size = 4 * 1024 * 1024; nslots = 2; slot_size = 64 * 1024 }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every test starts from a clean global telemetry state. *)
let fresh () =
  Tr.uninstall ();
  Tr.clear ();
  Mx.uninstall ();
  Mx.reset ()

(* Run [f] with all five probe subscribers at once: a sharded trace
   ring, the metrics registry, psan, a pprof capture and an Mconform
   capture.  Returns [f]'s result, the Mconform capture and the pprof
   capture. *)
let with_all_subscribers f =
  Tr.install_ring ~capacity:(1 lsl 16) ~shards:4 ();
  Mx.install ();
  Psan.enable ();
  Pprof.Capture.start ();
  let captured, v = Pmodel.Mconform.capture f in
  let profiled = Pprof.Capture.stop () in
  Psan.disable ();
  Mx.uninstall ();
  Tr.uninstall ();
  (v, captured, profiled)

let check_conformant captured =
  let v = Pmodel.Mconform.validate captured in
  if not (Pmodel.Mconform.ok v) then
    Alcotest.failf "capture flagged: %s"
      (Format.asprintf "%a" Pmodel.Mconform.pp_verdict v)

(* --- metrics registry -------------------------------------------------- *)

let test_histogram_buckets () =
  fresh ();
  (* Hdr log-linear buckets: values 0..63 get unit buckets; decade
     b >= 1 covers [64*2^(b-1), 64*2^b) in 32 sub-buckets of 2^b. *)
  List.iter
    (fun (v, b) ->
      check_int (Printf.sprintf "bucket_of %d" v) b (Mx.bucket_of v))
    [ (-3, 0); (0, 0); (1, 1); (7, 7); (63, 63); (64, 64); (127, 95);
      (128, 96); (1023, 191); (1024, 192) ];
  List.iter
    (fun (i, lo) ->
      check_int (Printf.sprintf "bucket_lo %d" i) lo (Mx.bucket_lo i))
    [ (0, 0); (1, 1); (63, 63); (64, 64); (95, 126); (96, 128); (192, 1024) ];
  let h = Mx.histogram "test.h" in
  List.iter (Mx.observe h) [ 0; 1; 2; 3; 4; 7; 8 ];
  let s = Option.get (Mx.find_histogram "test.h") in
  check_int "count" 7 s.Mx.count;
  check_int "sum" 25 s.Mx.sum;
  check_int "min" 0 s.Mx.min;
  check_int "max" 8 s.Mx.max;
  Alcotest.(check (list (pair int int)))
    "buckets are (index, count): unit-exact below 64"
    [ (0, 1); (1, 1); (2, 1); (3, 1); (4, 1); (7, 1); (8, 1) ]
    s.Mx.buckets;
  (* Seven samples is well under the retention threshold, so quantiles
     are exact nearest-rank values, not bucket estimates. *)
  check_bool "small histogram is exact" true (Mx.exact s);
  check_bool "samples retained sorted" true
    (s.Mx.samples = Some [ 0; 1; 2; 3; 4; 7; 8 ]);
  check_int "p50 exact" 3 (Mx.quantile s 0.5);
  check_int "p99 exact" 7 (Mx.quantile s 0.99)

(* Past [exact_threshold] raw retention stops and quantiles degrade to
   the sub-bucket lower bound — within Hdr.max_rel_error (3.125%) of
   the true sample, not the old one-power-of-two floor. *)
let test_histogram_bucket_fallback () =
  fresh ();
  let h = Mx.histogram "test.h.big" in
  for v = 0 to 199 do
    Mx.observe h v
  done;
  let s = Option.get (Mx.find_histogram "test.h.big") in
  check_bool "threshold is in the tested range" true
    (Mx.exact_threshold < 200);
  check_bool "large histogram is estimated" false (Mx.exact s);
  check_bool "raw samples discarded" true (s.Mx.samples = None);
  check_int "count" 200 s.Mx.count;
  (* rank 99 (true value 99) is in sub-bucket [98,100); rank 197 (true
     197) and rank 198 (true 198) in [196,200). *)
  check_int "p50 sub-bucket estimate" 98 (Mx.quantile s 0.5);
  check_int "p99 sub-bucket estimate" 196 (Mx.quantile s 0.99);
  check_int "p999 sub-bucket estimate" 196 (Mx.quantile s 0.999);
  check_bool "estimates stay within the error bound" true
    (float_of_int (99 - 98) /. 99.0 <= Ptelemetry.Hdr.max_rel_error
    && float_of_int (197 - 196) /. 197.0 <= Ptelemetry.Hdr.max_rel_error)

(* Shards are per-domain: concurrent updates from N domains must never
   lose an increment or a sample, and the merged snapshot must see the
   whole population. *)
let test_sharded_metrics_across_domains () =
  fresh ();
  let c = Mx.counter "test.mc" and h = Mx.histogram "test.mh" in
  let worker d () =
    for i = 1 to 1000 do
      Mx.incr c;
      Mx.observe h ((d * 1000) + i)
    done
  in
  List.iter Domain.join
    (List.init 4 (fun d -> Domain.spawn (worker d)));
  check_int "counter sums all domains' shards" 4000 (Mx.counter_value c);
  let s = Option.get (Mx.find_histogram "test.mh") in
  check_int "histogram merges all domains' shards" 4000 s.Mx.count;
  check_int "min crosses shards" 1 s.Mx.min;
  check_int "max crosses shards" 4000 s.Mx.max;
  check_int "sum crosses shards" 8_002_000 s.Mx.sum

let test_counters_and_dump () =
  fresh ();
  let c = Mx.counter "test.c" in
  Mx.incr c;
  Mx.incr ~by:41 c;
  check_bool "interned: same name, same counter" true
    (Mx.find_counter "test.c" <> None);
  let contains text needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length text
      && (String.sub text i n = needle || go (i + 1))
    in
    go 0
  in
  check_bool "text dump carries the counter" true
    (contains (Mx.dump_text ()) "test.c 42");
  match Json.of_string (Json.to_string (Mx.dump_json ())) with
  | doc ->
      let counters = Option.get (Json.mem "counters" doc) in
      check_bool "json dump round-trips the counter" true
        (Option.bind (Json.mem "test.c" counters) Json.num = Some 42.0)
  | exception Failure msg -> Alcotest.failf "metrics json unparsable: %s" msg

(* --- trace ring -------------------------------------------------------- *)

let test_span_nesting_and_order () =
  fresh ();
  Tr.install_ring ~capacity:64 ();
  Tr.begin_span ~cat:"t" ~name:"outer" ~ts_ns:10.0 ();
  Tr.begin_span ~cat:"t" ~name:"inner" ~ts_ns:20.0 ();
  Tr.emit ~cat:"t" ~name:"tick" ~ph:Tr.I ~ts_ns:25.0 ();
  Tr.end_span ~cat:"t" ~name:"inner" ~ts_ns:30.0 ();
  Tr.end_span ~cat:"t" ~name:"outer" ~ts_ns:40.0 ();
  let evs = Tr.events () in
  Alcotest.(check (list string))
    "emission order is preserved"
    [ "outer"; "inner"; "tick"; "inner"; "outer" ]
    (List.map (fun e -> e.Tr.name) evs);
  check_int "nothing dropped" 0 (Tr.dropped ());
  (* The exported document passes the schema checker, including the
     B/E stack-balance check. *)
  check_bool "chrome export validates" true
    (Schema.validate_string (Tr.to_chrome_json evs) = []);
  Tr.uninstall ()

let test_ring_wraparound () =
  fresh ();
  Tr.install_ring ~capacity:4 ();
  for i = 1 to 10 do
    Tr.emit ~cat:"t" ~name:(string_of_int i) ~ph:Tr.I
      ~ts_ns:(float_of_int i) ()
  done;
  Alcotest.(check (list string))
    "ring keeps the newest events, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun e -> e.Tr.name) (Tr.events ()));
  check_int "dropped counts overwritten events" 6 (Tr.dropped ());
  Tr.uninstall ()

(* Sharded rings: events land in the emitting tid's ring, and events ()
   merges the rings back into one timestamp-ordered stream. *)
let test_sharded_ring_merge () =
  fresh ();
  Tr.install_ring ~capacity:8 ~shards:4 ();
  List.iter
    (fun (tid, ts) ->
      Tr.emit ~tid ~cat:"t"
        ~name:(Printf.sprintf "%d@%.0f" tid ts)
        ~ph:Tr.I ~ts_ns:ts ())
    [ (0, 5.0); (1, 1.0); (2, 3.0); (3, 2.0); (1, 4.0); (0, 6.0) ];
  Alcotest.(check (list string))
    "merge is ordered by simulated time across rings"
    [ "1@1"; "3@2"; "2@3"; "1@4"; "0@5"; "0@6" ]
    (List.map (fun e -> e.Tr.name) (Tr.events ()));
  check_int "nothing dropped" 0 (Tr.dropped ());
  (* Wrap-around is per ring: flooding tid 1 must not evict tid 0. *)
  for i = 1 to 20 do
    Tr.emit ~tid:1 ~cat:"t" ~name:"flood" ~ph:Tr.I
      ~ts_ns:(10.0 +. float_of_int i) ()
  done;
  let evs = Tr.events () in
  check_bool "other rings survive one ring's wrap" true
    (List.exists (fun e -> e.Tr.name = "0@5") evs);
  check_int "dropped sums per-ring overwrites" 14 (Tr.dropped ());
  check_bool "chrome export of the merge validates" true
    (Schema.validate_string (Tr.to_chrome_json evs) = []);
  Tr.uninstall ()

let test_exporter_roundtrip () =
  fresh ();
  Tr.install_ring ();
  Tr.emit ~args:[ ("k", "v"); ("n", "7") ] ~cat:"c" ~name:"complete"
    ~ph:(Tr.X 1500.0) ~ts_ns:2000.0 ();
  Tr.emit ~cat:"c" ~name:"instant" ~ph:Tr.I ~ts_ns:3000.0 ();
  let evs = Tr.events () in
  let doc = Json.of_string (Tr.to_chrome_json evs) in
  check_bool "schema-clean" true (Schema.validate doc = []);
  let back = Schema.events_of_json doc in
  check_int "event count survives" (List.length evs) (List.length back);
  List.iter2
    (fun a b ->
      check_bool "name survives" true (a.Tr.name = b.Tr.name);
      check_bool "cat survives" true (a.Tr.cat = b.Tr.cat);
      check_bool "args survive" true (a.Tr.args = b.Tr.args);
      check_bool "timestamp survives (us precision)" true
        (Float.abs (a.Tr.ts_ns -. b.Tr.ts_ns) < 1.0);
      match (a.Tr.ph, b.Tr.ph) with
      | Tr.X d1, Tr.X d2 ->
          check_bool "duration survives" true (Float.abs (d1 -. d2) < 1.0)
      | p1, p2 -> check_bool "phase survives" true (p1 = p2))
    evs back;
  Tr.uninstall ()

let test_schema_catches_violations () =
  fresh ();
  (* An E with no open B, and an X without dur. *)
  let bad =
    {|{"traceEvents":[
        {"name":"a","cat":"t","ph":"E","ts":1,"pid":1,"tid":1},
        {"name":"b","cat":"t","ph":"X","ts":2,"pid":1,"tid":1}]}|}
  in
  check_int "both violations reported" 2
    (List.length (Schema.validate_string bad))

(* --- zero-overhead off state ------------------------------------------ *)

(* With no subscriber, a full transactional workload must retain zero
   events, touch no metrics, and leave the simulated clock bit-identical
   to an uninstrumented run — telemetry must never perturb the model. *)
let workload () =
  let module P = Pool.Make () in
  P.create ~config:small ~latency:Pmem.Latency.optane ();
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
  for i = 1 to 20 do
    P.transaction (fun j ->
        Pbox.set root i j;
        if i mod 5 = 0 then begin
          let off = Pool_impl.tx_alloc (Journal.tx j) 128 in
          Pool_impl.tx_free (Journal.tx j) off
        end)
  done;
  D.simulated_ns (Pool_impl.device (P.impl ()))

let test_no_subscriber_zero_events () =
  fresh ();
  let ns_off = workload () in
  check_bool "no events retained" true (Tr.events () = []);
  check_bool "tx counter untouched" true
    (match Mx.find_counter "tx.count" with Some v -> v = 0 | None -> true);
  Tr.install_ring ();
  let ns_on = workload () in
  Tr.uninstall ();
  check_bool "tracing does not move the simulated clock" true
    (ns_off = ns_on);
  check_bool "traced run retained events" true (Tr.events () <> []);
  (* The sanitizer rides the probe bus: enabled, it must observe without
     perturbing; disabled again, the probe path must be fully off. *)
  Psan.enable ();
  let ns_psan = workload () in
  Psan.disable ();
  check_bool "psan does not move the simulated clock" true (ns_off = ns_psan);
  check_bool "workload under psan is clean" true (Psan.clean ());
  let ns_after = workload () in
  check_bool "clock parity restored after psan disable" true
    (ns_off = ns_after);
  let ns_all, captured, profiled = with_all_subscribers workload in
  check_bool "all five subscribers do not move the simulated clock" true
    (ns_off = ns_all);
  check_bool "psan clean with every subscriber on" true (Psan.clean ());
  check_conformant captured;
  check_bool "both recorders saw the same stream" true
    (profiled = List.map snd captured);
  check_bool "the ring and the registry observed the run" true
    (Tr.events () <> []
    && Option.value ~default:0 (Mx.find_counter "tx.count") > 0)

(* The same parity proven under N domains: each domain churns a private
   pool (private device, private clock — first-free journal-slot races
   on a shared pool would make the comparison nondeterministic), and
   the per-domain (simulated ns, flush calls, fences) triples must be
   bit-identical whether the probe subscribers are off, a sharded trace
   ring is on, or the sanitizer is on.  This is what licenses leaving
   telemetry enabled during multi-domain benchmarks. *)
let domain_workload d =
  let module P = Pool.Make () in
  P.create ~config:small ~latency:Pmem.Latency.optane ();
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
  for i = 1 to 20 + d do
    P.transaction (fun j ->
        Pbox.set root (i + d) j;
        if i mod 5 = 0 then begin
          let off = Pool_impl.tx_alloc (Journal.tx j) (64 lsl (d mod 3)) in
          Pool_impl.tx_free (Journal.tx j) off
        end)
  done;
  let dev = Pool_impl.device (P.impl ()) in
  let s = D.stats dev in
  (d, D.simulated_ns dev, s.D.flush_calls, s.D.fences)

let run_domains n =
  List.map Domain.join
    (List.init n (fun d -> Domain.spawn (fun () -> domain_workload d)))

let test_multi_domain_clock_parity () =
  fresh ();
  let domains = 4 in
  let off = run_domains domains in
  check_bool "no events retained with no subscriber" true (Tr.events () = []);
  Tr.install_ring ~capacity:(1 lsl 14) ~shards:domains ();
  let traced = run_domains domains in
  Tr.uninstall ();
  check_bool "sharded tracing does not move any domain's clock" true
    (off = traced);
  let evs = Tr.events () in
  check_bool "traced run retained events" true (evs <> []);
  check_bool "events carry more than one domain id" true
    (List.length
       (List.sort_uniq compare (List.map (fun e -> e.Tr.tid) evs))
    > 1);
  (* Merged stream is one Chrome trace ordered by simulated time. *)
  check_bool "merged trace is time-ordered" true
    (let rec mono = function
       | a :: (b :: _ as rest) -> a.Tr.ts_ns <= b.Tr.ts_ns && mono rest
       | _ -> true
     in
     mono evs);
  Psan.enable ();
  let sanitized = run_domains domains in
  Psan.disable ();
  check_bool "sanitizer does not move any domain's clock" true
    (off = sanitized);
  check_bool "multi-domain run under psan is clean" true (Psan.clean ());
  let all, captured, _ = with_all_subscribers (fun () -> run_domains domains) in
  check_bool "all five subscribers do not move any domain's clock" true
    (off = all);
  check_bool "multi-domain run with every subscriber is psan-clean" true
    (Psan.clean ());
  check_conformant captured

(* --- flush/fence attribution known answer ----------------------------- *)

(* One warm committed 8-byte Pbox.set under the Corundum engine costs
   exactly (checksummed-tail protocol + coalesced allocator persists):
     seal_entry:  persist(entry + terminator)          = 1 flush,  1 fence
     commit:      flush(target line) ... fence         = 1 flush,  1 fence
                  (no drops: the advisory-count persist is skipped)
     truncate:    persist(header + terminator)         = 1 flush,  1 fence
   The first set in a pool pays the same (dedup tables are per-tx), so a
   warm-up only isolates the root-creation traffic. *)
let test_pbox_update_flush_fence_counts () =
  fresh ();
  let module P = Pool.Make () in
  P.create ~config:small ();
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
  P.transaction (fun j -> Pbox.set root 1 j);
  let dev = Pool_impl.device (P.impl ()) in
  let lb0 = (Pool_impl.stats (P.impl ())).Pool_impl.logged_bytes in
  let s0 = D.stats dev in
  P.transaction (fun j -> Pbox.set root 2 j);
  let s1 = D.stats dev in
  check_int "flush calls for one committed update" 3
    (s1.D.flush_calls - s0.D.flush_calls);
  check_int "fences for one committed update" 3 (s1.D.fences - s0.D.fences);
  check_int "entry bytes logged by one update" 32
    ((Pool_impl.stats (P.impl ())).Pool_impl.logged_bytes - lb0)

(* The same known answer observed through the telemetry layer: the tx
   span's attribution args must agree with the device-counter deltas. *)
let test_tx_span_attribution () =
  fresh ();
  let module P = Pool.Make () in
  P.create ~config:small ();
  let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
  P.transaction (fun j -> Pbox.set root 1 j);
  Tr.install_ring ();
  Mx.install ();
  P.transaction (fun j -> Pbox.set root 2 j);
  Tr.uninstall ();
  Mx.uninstall ();
  let tx_events =
    List.filter (fun e -> e.Tr.name = "tx") (Tr.events ())
  in
  check_int "one tx span" 1 (List.length tx_events);
  let args = (List.hd tx_events).Tr.args in
  let arg k = List.assoc k args in
  check_bool "committed" true (arg "outcome" = "commit");
  check_int "flushes attributed" 3 (int_of_string (arg "flushes"));
  check_int "fences attributed" 3 (int_of_string (arg "fences"));
  check_int "logged bytes attributed" 32 (int_of_string (arg "logged_bytes"));
  check_int "tx.count metric" 1
    (Option.value ~default:(-1) (Mx.find_counter "tx.count"))

(* The same known answer with all five subscribers on: the tx span's
   args and the [tx.*] histograms agree, psan stays clean and the
   capture conforms to the protocol model. *)
let test_attribution_all_subscribers () =
  fresh ();
  let (), captured, _ =
    with_all_subscribers (fun () ->
        let module P = Pool.Make () in
        P.create ~config:small ();
        let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
        P.transaction (fun j -> Pbox.set root 1 j);
        Tr.clear ();
        Mx.reset ();
        P.transaction (fun j -> Pbox.set root 2 j))
  in
  let tx = List.filter (fun e -> e.Tr.name = "tx") (Tr.events ()) in
  check_int "one tx span" 1 (List.length tx);
  let arg k = int_of_string (List.assoc k (List.hd tx).Tr.args) in
  check_int "span flushes" 3 (arg "flushes");
  check_int "span fences" 3 (arg "fences");
  check_int "span logged bytes" 32 (arg "logged_bytes");
  let sum name =
    match Mx.find_histogram name with
    | Some h when h.Mx.count = 1 -> h.Mx.sum
    | _ -> -1
  in
  check_int "tx.flushes histogram" 3 (sum "tx.flushes");
  check_int "tx.fences histogram" 3 (sum "tx.fences");
  check_int "tx.logged_bytes histogram" 32 (sum "tx.logged_bytes");
  check_bool "psan clean" true (Psan.clean ());
  check_conformant captured

(* --- lifetime counters ------------------------------------------------ *)

let test_lifetime_counters_survive_reattach () =
  fresh ();
  let pool = Pool_impl.create ~config:small () in
  let root_scratch =
    Pool_impl.transaction pool (fun tx -> Pool_impl.tx_alloc tx 64)
  in
  for i = 1 to 5 do
    Pool_impl.transaction pool (fun tx ->
        Pool_impl.tx_log tx ~off:root_scratch ~len:8;
        D.write_u64 (Pool_impl.device pool) root_scratch (Int64.of_int i))
  done;
  (try Pool_impl.transaction pool (fun _ -> failwith "boom")
   with Failure _ -> ());
  let before = Pool_impl.stats pool in
  check_int "six commits this open" 6 before.Pool_impl.transactions;
  check_int "one abort this open" 1 before.Pool_impl.aborts;
  let dev = Pool_impl.device pool in
  Pool_impl.close pool;
  (* close folded the totals into the header; a fresh attach reads them. *)
  let pool2 = Pool_impl.attach dev in
  let after = Pool_impl.stats pool2 in
  check_int "lifetime commits survive reattach" 6
    after.Pool_impl.lifetime_transactions;
  check_int "lifetime aborts survive reattach" 1
    after.Pool_impl.lifetime_aborts;
  check_int "per-open counters restart" 0 after.Pool_impl.transactions;
  let info = Pool_inspect.inspect_device dev in
  check_int "pool_inspect reads the same totals" 6 info.Pool_inspect.lifetime_tx

(* --- the baseline gate ---------------------------------------------------- *)

module G = Harness.Gate
module I = Harness.Instrument

let upper rel abs = G.Upper { rel; abs }

(* [cur] at the limit passes; one ulp past it (in [step]'s direction)
   fails. *)
let check_boundary name rule ~base ~limit ~step =
  check_bool (name ^ " at the limit") true (G.pass rule ~base limit);
  check_bool (name ^ " one ulp past") false (G.pass rule ~base (step limit))

let test_gate_upper_bench () =
  (* BENCH: the historical limit, (b * 1.10) + 0.01, bit for bit. *)
  List.iter
    (fun base ->
      check_boundary
        (Printf.sprintf "upper 10%%+0.01 base %g" base)
        (upper 0.10 0.01) ~base
        ~limit:((base *. 1.10) +. 0.01)
        ~step:Float.succ)
    [ 0.0; 3.0; 4.0; 6.0 ]

let test_gate_upper_pprof () =
  List.iter
    (fun base ->
      check_boundary
        (Printf.sprintf "upper +0.01 base %g" base)
        (upper 0.0 0.01) ~base ~limit:(base +. 0.01) ~step:Float.succ)
    [ 0.0; 1.0; 2.0 ];
  (* The shared ceilings and the recovery p99 bound: no slack at all. *)
  check_boundary "upper exact" G.recovery_p99 ~base:1.7 ~limit:1.7
    ~step:Float.succ

let test_gate_band () =
  let band = G.Band 0.10 in
  check_boundary "band above" band ~base:1000.0 ~limit:1100.0 ~step:Float.succ;
  check_boundary "band below" band ~base:1000.0 ~limit:900.0 ~step:Float.pred;
  (* Below |base| = 1 the tolerance is floored at rel * 1. *)
  check_boundary "band floor above" band ~base:0.0 ~limit:0.1 ~step:Float.succ;
  check_boundary "band floor below" band ~base:0.0 ~limit:(-0.1)
    ~step:Float.pred

let test_gate_lower () =
  check_boundary "lower" G.Lower ~base:3783.0 ~limit:3783.0 ~step:Float.pred;
  check_bool "lower passes above" true (G.pass G.Lower ~base:3783.0 4000.0)

let verdicts rows = List.map (fun (r : G.row) -> (r.G.key, G.verdict r)) rows

let test_gate_new_and_missing () =
  let doc engines =
    Json.Obj
      [
        ( "engines",
          Json.List
            (List.map
               (fun (e, v) ->
                 Json.Obj
                   [
                     ("engine", Json.Str e);
                     ( "ops",
                       Json.List
                         [
                           Json.Obj
                             [
                               ("op", Json.Str "update");
                               ("flushes_per_op", Json.Num v);
                               ("fences_per_op", Json.Num v);
                             ];
                         ] );
                   ])
               engines) );
      ]
  in
  let rows =
    G.rows G.bench
      ~base:(doc [ ("a", 3.0); ("gone", 3.0) ])
      ~cur:(doc [ ("a", 3.0); ("fresh", 9.0) ])
  in
  let v = verdicts rows in
  let expect key verdict =
    check_bool key true (List.assoc_opt key v = Some verdict)
  in
  expect "engines/a/ops/update/flushes_per_op" G.Ok;
  expect "engines/gone/ops/update/fences_per_op" G.Missing;
  expect "engines/fresh/ops/update/flushes_per_op" G.New;
  check_int "rows" 6 (List.length rows);
  check_bool "MISSING fails" true
    (List.exists G.failed rows && not (G.report ~gate:"TEST" rows));
  check_bool "NEW passes" true
    (G.report ~gate:"TEST"
       (List.filter (fun r -> G.verdict r = G.New) rows))

(* The committed baselines sit at the project root: the parent of the
   test directory under [dune runtest], the working directory otherwise. *)
let baseline name =
  let path = if Sys.file_exists name then name else Filename.concat ".." name in
  Json.of_string (In_channel.with_open_bin path In_channel.input_all)

(* Every committed baseline gated against itself is all OK: 18 engine ×
   op pairs per BENCH/PPROF metric, six merged OPENLOOP numbers, one
   PMODEL count. *)
let test_gate_baselines_self () =
  List.iter
    (fun (file, table, n) ->
      let doc = baseline file in
      let rows = G.rows table ~base:doc ~cur:doc in
      check_int (file ^ " rows") n (List.length rows);
      check_bool (file ^ " all OK") true
        (List.for_all (fun r -> G.verdict r = G.Ok) rows))
    [
      ("BENCH_baseline.json", G.bench, 36);
      ("PPROF_baseline.json", G.pprof, 36);
      ("OPENLOOP_baseline.json", G.openloop, 6);
      ("PMODEL_baseline.json", G.pmodel, 1);
    ];
  (* The shared gate reads the baseline's ceilings: a run exactly at
     them passes, one ulp above fails. *)
  let shared f =
    Json.Obj
      [
        ( "shared",
          Json.Obj
            [
              ("fences_per_op", Json.Num (f 1.70));
              ("flushes_per_op", Json.Num (f 1.90));
            ] );
      ]
  in
  let gate f =
    List.map G.verdict
      (G.rows G.openloop_shared ~base:(baseline "OPENLOOP_baseline.json")
         ~cur:(shared f))
  in
  check_bool "shared at the ceilings" true (gate Fun.id = [ G.Ok; G.Ok ]);
  check_bool "shared above the ceilings" true
    (gate Float.succ = [ G.Regress; G.Regress ])

(* --- the instrumented-run session ----------------------------------------- *)

let test_instrument_strip () =
  let spec, rest =
    I.strip [ "put"; "--trace"; "t.json"; "k"; "--psan"; "--metrics"; "m"; "v" ]
  in
  check_bool "remaining args" true (rest = [ "put"; "k"; "v" ]);
  check_bool "spec" true
    (spec
    = { I.trace = Some "t.json"; metrics = Some "m"; psan = true; psan_json = None })

let test_instrument_artifacts () =
  fresh ();
  let dir = Filename.temp_dir "instrument" "" in
  let path f = Filename.concat dir f in
  let spec =
    {
      I.trace = Some (path "t.json");
      metrics = Some (path "m.json");
      psan = false;
      psan_json = Some (path "p.json");
    }
  in
  let v, clean =
    I.run spec (fun () ->
        let module P = Pool.Make () in
        P.create ~config:small ();
        let root = P.root ~ty:Ptype.int ~init:(fun _ -> 0) () in
        for i = 1 to 5 do
          P.transaction (fun j -> Pbox.set root i j)
        done;
        Pbox.get root)
  in
  check_int "body result" 5 v;
  check_bool "psan clean" true clean;
  List.iter
    (fun f -> check_bool (f ^ " written") true (Sys.file_exists (path f)))
    [ "t.json"; "t.json.metrics.json"; "m.json"; "p.json" ];
  (match Schema.validate_file (path "t.json") with
  | Ok n -> check_bool "trace has events" true (n > 0)
  | Error _ -> Alcotest.fail "trace fails schema validation");
  check_bool "subscribers removed" false (Tr.on ())

let test_instrument_psan_dirty () =
  fresh ();
  let (), clean =
    I.run { I.none with psan = true } (fun () ->
        let module P = Pool.Make () in
        P.create ~config:small ();
        let root =
          P.root
            ~ty:(Pcell.ptype Ptype.int)
            ~init:(fun _ -> Pcell.make ~ty:Ptype.int 0)
            ()
        in
        (* an unlogged in-transaction store: V1 *)
        P.transaction (fun j -> Punsafe.atomic_set (Pbox.get root) 1 j))
  in
  check_bool "violation reported as not clean" false clean

let () =
  Alcotest.run "corundum telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram bucket fallback" `Quick
            test_histogram_bucket_fallback;
          Alcotest.test_case "counters and dumps" `Quick
            test_counters_and_dump;
          Alcotest.test_case "sharded metrics across domains" `Quick
            test_sharded_metrics_across_domains;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting and order" `Quick
            test_span_nesting_and_order;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "sharded ring merge" `Quick
            test_sharded_ring_merge;
          Alcotest.test_case "exporter roundtrip" `Quick
            test_exporter_roundtrip;
          Alcotest.test_case "schema catches violations" `Quick
            test_schema_catches_violations;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "no subscriber, zero events" `Quick
            test_no_subscriber_zero_events;
          Alcotest.test_case "multi-domain clock parity" `Quick
            test_multi_domain_clock_parity;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "pbox update flush/fence known answer" `Quick
            test_pbox_update_flush_fence_counts;
          Alcotest.test_case "tx span attribution args" `Quick
            test_tx_span_attribution;
          Alcotest.test_case "known answer with all five subscribers" `Quick
            test_attribution_all_subscribers;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "counters survive reattach" `Quick
            test_lifetime_counters_survive_reattach;
        ] );
      ( "gate",
        [
          Alcotest.test_case "upper 10% + 0.01 boundary" `Quick
            test_gate_upper_bench;
          Alcotest.test_case "upper + 0.01 and exact boundary" `Quick
            test_gate_upper_pprof;
          Alcotest.test_case "band 10% with floor" `Quick test_gate_band;
          Alcotest.test_case "lower boundary" `Quick test_gate_lower;
          Alcotest.test_case "new passes, missing fails" `Quick
            test_gate_new_and_missing;
          Alcotest.test_case "baselines against themselves" `Quick
            test_gate_baselines_self;
        ] );
      ( "instrument",
        [
          Alcotest.test_case "strip flags" `Quick test_instrument_strip;
          Alcotest.test_case "artifacts and clean flag" `Quick
            test_instrument_artifacts;
          Alcotest.test_case "psan violation is not clean" `Quick
            test_instrument_psan_dirty;
        ] );
    ]
