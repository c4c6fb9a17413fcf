(* The open-loop load harness: Hdr histogram merge laws and precision
   bounds, deterministic arrival schedules and zipfian key selection,
   and the driver's separation of service time from response time (the
   anti-coordinated-omission property the whole library exists for). *)

module Hdr = Ptelemetry.Hdr
module L = Loadgen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Hdr precision ------------------------------------------------------ *)

(* Every value maps into a bucket whose lower bound underestimates it by
   at most max_rel_error — at any magnitude up to the clamp. *)
let qcheck_bounded_relative_error =
  QCheck.Test.make ~name:"bucket lower bound within 3.125% at any magnitude"
    ~count:2000
    QCheck.(pair (int_bound 58) (int_bound 1_000_000))
    (fun (shift, jitter) ->
      (* cover every decade: v uniform-ish within [2^shift, 2^(shift+1)) *)
      let v = (1 lsl shift) + (jitter mod (1 lsl shift)) in
      let i = Hdr.index_of v in
      let lo = Hdr.bucket_lo i and w = Hdr.bucket_width i in
      lo <= v && v < lo + w
      && (v < 64 || float_of_int (v - lo) /. float_of_int v <= Hdr.max_rel_error))

(* Quantiles over a big population agree with the true nearest-rank
   value to within the error bound. *)
let qcheck_quantile_error_bound =
  QCheck.Test.make ~name:"estimated quantiles within 3.125% of true sample"
    ~count:50
    QCheck.(list_of_size Gen.(200 -- 1000) (map abs small_int))
    (fun raw ->
      QCheck.assume (List.length raw > Hdr.exact_capacity);
      let scaled = List.map (fun v -> (v * 97) + 1) raw in
      let h = Hdr.create () in
      List.iter (Hdr.record h) scaled;
      let s = Hdr.snapshot h in
      let sorted = Array.of_list (List.sort compare scaled) in
      List.for_all
        (fun q ->
          let true_v =
            sorted.(int_of_float
                      (float_of_int (Array.length sorted - 1) *. q))
          in
          let est = Hdr.quantile s q in
          est <= true_v
          && float_of_int (true_v - est) /. float_of_int (max true_v 1)
             <= Hdr.max_rel_error)
        [ 0.5; 0.9; 0.99; 0.999 ])

(* While the population fits the raw window, quantiles are exactly the
   nearest-rank values a sorted list would give. *)
let qcheck_exact_agreement =
  QCheck.Test.make ~name:"small populations quantile exactly" ~count:200
    QCheck.(list_of_size Gen.(1 -- Hdr.exact_capacity) (map abs small_int))
    (fun raw ->
      let h = Hdr.create () in
      List.iter (Hdr.record h) raw;
      let s = Hdr.snapshot h in
      let sorted = Array.of_list (List.sort compare raw) in
      Hdr.exact s
      && List.for_all
           (fun q ->
             Hdr.quantile s q
             = sorted.(int_of_float
                         (float_of_int (Array.length sorted - 1) *. q)))
           [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ])

(* --- Hdr merge laws ----------------------------------------------------- *)

let snapshot_key s =
  ( s.Hdr.count,
    s.Hdr.sum,
    s.Hdr.min,
    s.Hdr.max,
    s.Hdr.buckets,
    s.Hdr.samples,
    List.map (Hdr.quantile s) [ 0.5; 0.99; 0.999 ] )

let hdr_of_list vs =
  let h = Hdr.create () in
  List.iter (Hdr.record h) vs;
  h

let qcheck_merge_commutative =
  QCheck.Test.make ~name:"merge is commutative" ~count:200
    QCheck.(pair (list (map abs small_int)) (list (map abs small_int)))
    (fun (a, b) ->
      snapshot_key (Hdr.snapshot (Hdr.merge [ hdr_of_list a; hdr_of_list b ]))
      = snapshot_key (Hdr.snapshot (Hdr.merge [ hdr_of_list b; hdr_of_list a ])))

let qcheck_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:200
    QCheck.(
      triple (list (map abs small_int)) (list (map abs small_int))
        (list (map abs small_int)))
    (fun (a, b, c) ->
      let h = hdr_of_list in
      let ab_c =
        Hdr.merge [ Hdr.merge [ h a; h b ]; h c ] |> Hdr.snapshot
      in
      let a_bc =
        Hdr.merge [ h a; Hdr.merge [ h b; h c ] ] |> Hdr.snapshot
      in
      let flat = Hdr.merge [ h a; h b; h c ] |> Hdr.snapshot in
      snapshot_key ab_c = snapshot_key a_bc
      && snapshot_key ab_c = snapshot_key flat)

(* Merging two exact windows that jointly fit stays exact — per-domain
   reports keep exact percentiles until the union outgrows the window. *)
let test_merge_exactness_window () =
  let a = hdr_of_list (List.init 60 (fun i -> i))
  and b = hdr_of_list (List.init 60 (fun i -> 1000 + i)) in
  let m = Hdr.snapshot (Hdr.merge [ a; b ]) in
  check_bool "union within window stays exact" true (Hdr.exact m);
  check_int "exact p50 of the union" 59 (Hdr.quantile m 0.5);
  let c = hdr_of_list (List.init 100 (fun i -> i)) in
  let m2 = Hdr.snapshot (Hdr.merge [ a; c ]) in
  check_bool "union past the window degrades to bounded-error" false
    (Hdr.exact m2);
  check_int "count still whole" 160 m2.Hdr.count

(* --- arrival schedules -------------------------------------------------- *)

let take n t = List.init n (fun _ -> L.Arrival.next t)

let test_fixed_arrivals () =
  let t = L.Arrival.create (L.Arrival.Fixed 1e6) in
  Alcotest.(check (list (float 1e-6)))
    "fixed 1e6 ops/s = one arrival per 1000 sim ns"
    [ 0.0; 1000.0; 2000.0; 3000.0 ]
    (take 4 t)

let test_poisson_arrivals_deterministic () =
  let a = take 1000 (L.Arrival.create ~seed:7 (L.Arrival.Poisson 1e6))
  and b = take 1000 (L.Arrival.create ~seed:7 (L.Arrival.Poisson 1e6))
  and c = take 1000 (L.Arrival.create ~seed:8 (L.Arrival.Poisson 1e6)) in
  check_bool "same seed, same schedule" true (a = b);
  check_bool "different seed, different schedule" true (a <> c);
  check_bool "monotone" true
    (List.for_all2 (fun x y -> x <= y) a (List.tl a @ [ infinity ]));
  (* 1000 exponential gaps with mean 1000 ns: the sample mean is within
     15% of nominal for any reasonable stream. *)
  let last = List.nth a 999 in
  check_bool "mean inter-arrival near 1/rate" true
    (last /. 999.0 > 850.0 && last /. 999.0 < 1150.0)

(* --- zipfian keys ------------------------------------------------------- *)

let test_zipf_shape () =
  let z = L.Zipf.create ~theta:0.99 1024 in
  let rng = L.Rng.create 11 in
  let draws = 20_000 in
  let counts = Array.make 1024 0 in
  for _ = 1 to draws do
    let r = L.Zipf.rank z rng in
    check_bool "rank in range" true (r >= 0 && r < 1024);
    counts.(r) <- counts.(r) + 1
  done;
  (* theta 0.99 over 1024 keys: rank 0 alone draws ~10%, the top 16
     ranks well over a third — far beyond a uniform share. *)
  check_bool "hottest rank dominates uniform share" true
    (float_of_int counts.(0) /. float_of_int draws > 0.05);
  let top16 = Array.fold_left ( + ) 0 (Array.sub counts 0 16) in
  check_bool "head is heavy" true
    (float_of_int top16 /. float_of_int draws > 0.30);
  (* determinism *)
  let d1 =
    let rng = L.Rng.create 5 in
    List.init 100 (fun _ -> L.Zipf.next z rng)
  and d2 =
    let rng = L.Rng.create 5 in
    List.init 100 (fun _ -> L.Zipf.next z rng)
  in
  check_bool "same seed, same keys" true (d1 = d2);
  check_bool "scattered keys stay in range" true
    (List.for_all (fun k -> k >= 0 && k < 1024) d1)

(* --- the open-loop driver ----------------------------------------------- *)

(* Service faster than the arrival gap: no queue ever forms, so
   response = service for every op. *)
let test_openloop_underload () =
  let spec =
    { L.default_spec with arrivals = L.Arrival.Fixed 1e6; ops = 500 }
  in
  let r = L.run spec ~service:(fun _ -> 400.0) in
  check_int "all ops ran" 500 r.L.ops;
  check_bool "no backlog" true (r.L.max_backlog_ns = 0.0);
  let resp = Hdr.snapshot r.L.response and svc = Hdr.snapshot r.L.service in
  check_int "response p99 = service p99" (Hdr.quantile svc 0.99)
    (Hdr.quantile resp 0.99);
  check_int "service is the constant" 400 (Hdr.quantile svc 0.5)

(* Service slower than the arrival gap: an open-loop driver must show
   the backlog growing linearly in response time while service time
   stays flat — a closed-loop driver would report 1500 ns everywhere
   and hide the collapse (coordinated omission). *)
let test_openloop_overload_shows_queueing () =
  let ops = 200 in
  let spec = { L.default_spec with arrivals = L.Arrival.Fixed 1e6; ops } in
  let r = L.run spec ~service:(fun _ -> 1500.0) in
  let resp = Hdr.snapshot r.L.response and svc = Hdr.snapshot r.L.service in
  (* 200 constant samples outgrow the exact window, so quantiles are
     sub-bucket lower bounds; min/max stay exact. *)
  check_int "service time stays flat (exact min)" 1500 svc.Hdr.min;
  check_int "service time stays flat (exact max)" 1500 svc.Hdr.max;
  check_int "service p999 is the 1500-bucket's lower bound" 1472
    (Hdr.quantile svc 0.999);
  (* op k waits k * (1500 - 1000) ns: the last op's response is service
     plus the full accumulated backlog. *)
  check_int "worst response carries the whole backlog"
    (1500 + ((ops - 1) * 500))
    resp.Hdr.max;
  check_bool "max backlog = (ops-1) * deficit" true
    (r.L.max_backlog_ns = float_of_int ((ops - 1) * 500));
  check_bool "response p50 far above service p50" true
    (Hdr.quantile resp 0.5 > 10 * Hdr.quantile svc 0.5)

let test_openloop_deterministic_and_mergeable () =
  let spec = { L.default_spec with ops = 1000 } in
  let service op =
    match op with
    | L.Read _ -> 300.0
    | L.Update _ -> 900.0
    | L.Insert _ -> 1100.0
    | L.Delete _ -> 700.0
  in
  let a = L.run spec ~service and b = L.run spec ~service in
  check_bool "same spec, same report" true
    (snapshot_key (Hdr.snapshot a.L.response)
     = snapshot_key (Hdr.snapshot b.L.response)
    && a.L.busy_ns = b.L.busy_ns);
  let c = L.run { spec with seed = spec.seed + 1 } ~service in
  check_bool "different seed, different run" true
    (a.L.busy_ns <> c.L.busy_ns);
  let m = L.merge_reports [ a; c ] in
  check_int "merged ops sum" 2000 m.L.ops;
  check_bool "merged busy sums" true (m.L.busy_ns = a.L.busy_ns +. c.L.busy_ns);
  check_int "merged histogram holds both populations" 2000
    (Hdr.count m.L.response);
  check_bool "merge_reports is commutative" true
    (snapshot_key (Hdr.snapshot (L.merge_reports [ c; a ]).L.response)
    = snapshot_key (Hdr.snapshot m.L.response))

(* --- rng ------------------------------------------------------------------ *)

(* [Rng.int] must terminate and stay in range for every positive bound,
   including ones whose rejection limit sits at the top of the int range. *)
let test_rng_int_bounds () =
  let rng = L.Rng.create 42 in
  List.iter
    (fun bound ->
      for _ = 1 to 1000 do
        let v = L.Rng.int rng bound in
        check_bool (Printf.sprintf "Rng.int %d in range" bound) true
          (v >= 0 && v < bound)
      done)
    [ 1; 7; 1000; max_int ]

let () =
  Alcotest.run "corundum loadgen"
    [
      ( "hdr",
        [
          QCheck_alcotest.to_alcotest qcheck_bounded_relative_error;
          QCheck_alcotest.to_alcotest qcheck_quantile_error_bound;
          QCheck_alcotest.to_alcotest qcheck_exact_agreement;
          QCheck_alcotest.to_alcotest qcheck_merge_commutative;
          QCheck_alcotest.to_alcotest qcheck_merge_associative;
          Alcotest.test_case "merge exactness window" `Quick
            test_merge_exactness_window;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "fixed schedule" `Quick test_fixed_arrivals;
          Alcotest.test_case "poisson determinism and mean" `Quick
            test_poisson_arrivals_deterministic;
        ] );
      ( "zipf",
        [ Alcotest.test_case "shape and determinism" `Quick test_zipf_shape ] );
      ( "rng",
        [ Alcotest.test_case "int bounds terminate in range" `Quick test_rng_int_bounds ] );
      ( "driver",
        [
          Alcotest.test_case "underload: response = service" `Quick
            test_openloop_underload;
          Alcotest.test_case "overload: queueing visible" `Quick
            test_openloop_overload_shows_queueing;
          Alcotest.test_case "deterministic and mergeable" `Quick
            test_openloop_deterministic_and_mergeable;
        ] );
    ]
