(* Crash-atomic bank transfers.

   A classic demonstration of why transactions matter on persistent
   memory: moving money between two accounts takes two writes, and a
   power failure between them would mint or destroy money if the writes
   were not atomic.  This example runs a batch of random transfers,
   injects a simulated power failure mid-stream, recovers, and shows that
   the books still balance.

     dune exec examples/bank.exe
     dune exec examples/bank.exe -- --trace bank_trace.json
     dune exec examples/bank.exe -- --psan

   With --trace, the whole run — transfers, the crash, recovery — is
   recorded as a Chrome trace_event file (load it in chrome://tracing or
   Perfetto), with a metrics dump written next to it.  --metrics FILE
   writes the metrics registry alone (no event ring retained); --psan
   runs the persistency sanitizer over the run, crash and recovery
   included, and exits non-zero on any violation. *)

open Corundum
module P = Pool.Make ()

let accounts = 8
let initial = 1000
let root_ty = Ptype.array accounts Ptype.int

let total root =
  Array.fold_left ( + ) 0 (Pbox.get root)

let print_books root =
  let a = Pbox.get root in
  Array.iteri (Printf.printf "  account %d: %5d\n") a;
  Printf.printf "  total: %d\n" (total root)

let transfer root src dst amount j =
  Pbox.modify root j (fun a ->
      let a = Array.copy a in
      a.(src) <- a.(src) - amount;
      a.(dst) <- a.(dst) + amount;
      a)

let trace_path, metrics_path, psan_on, psan_json =
  let rec parse trace metrics psan psan_json = function
    | [] -> (trace, metrics, psan || psan_json <> None, psan_json)
    | "--trace" :: f :: rest -> parse (Some f) metrics psan psan_json rest
    | "--metrics" :: f :: rest -> parse trace (Some f) psan psan_json rest
    | "--psan" :: rest -> parse trace metrics true psan_json rest
    | "--psan-json" :: f :: rest -> parse trace metrics psan (Some f) rest
    | _ ->
        prerr_endline
          "usage: bank [--trace FILE] [--metrics FILE] [--psan] [--psan-json \
           FILE]";
        exit 2
  in
  parse None None false None (List.tl (Array.to_list Sys.argv))

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let () =
  if psan_on then Psan.enable ();
  Option.iter
    (fun _ -> Ptelemetry.Trace.install_ring ~capacity:(1 lsl 16) ())
    trace_path;
  if trace_path <> None || metrics_path <> None then Ptelemetry.Metrics.install ();
  P.create
    ~config:{ Pool_impl.size = 4 * 1024 * 1024; nslots = 2; slot_size = 64 * 1024 }
    ~path:"bank.pool" ();
  let root = P.root ~ty:root_ty ~init:(fun _ -> Array.make accounts initial) () in
  Printf.printf "opening books:\n";
  print_books root;

  let rng = Random.State.make [| 2026 |] in
  let dev = Pool_impl.device (P.impl ()) in

  (* Schedule a power failure somewhere inside the upcoming batch. *)
  Pmem.Device.set_crash_countdown dev 23;
  let completed = ref 0 in
  (try
     for _ = 1 to 50 do
       let src = Random.State.int rng accounts
       and dst = Random.State.int rng accounts
       and amt = 1 + Random.State.int rng 200 in
       P.transaction (fun j -> transfer root src dst amt j);
       incr completed
     done
   with Pmem.Device.Crashed ->
     Printf.printf "\n*** power failure after %d committed transfers ***\n"
       !completed);

  (* Power cycle: recovery rolls the in-flight transfer back. *)
  P.crash_and_reopen ();
  let root = P.root ~ty:root_ty ~init:(fun _ -> assert false) () in
  Printf.printf "\nafter recovery:\n";
  print_books root;
  let t = total root in
  if t = accounts * initial then
    Printf.printf "\nbooks balance: no money created or destroyed.\n"
  else begin
    Printf.printf "\nBOOKS DO NOT BALANCE (total %d, expected %d)!\n" t
      (accounts * initial);
    exit 1
  end;
  (* and the pool keeps working *)
  P.transaction (fun j -> transfer root 0 1 5 j);
  assert (total root = accounts * initial);
  Crashtest.Leak_check.assert_clean (P.impl ()) ~root_ty;
  Printf.printf "post-recovery transfer committed; heap is leak-free.\n";
  (* save the crash-recovered image so tooling (pool_info fsck) can audit it *)
  P.save ();
  Printf.printf "recovered image saved to bank.pool.\n";
  Option.iter
    (fun path ->
      Ptelemetry.Trace.uninstall ();
      Ptelemetry.Metrics.uninstall ();
      Ptelemetry.Trace.save_chrome path;
      write_file (path ^ ".metrics.json")
        (Ptelemetry.Json.to_string (Ptelemetry.Metrics.dump_json ()));
      Printf.printf "trace written to %s (%d events), metrics to %s.metrics.json\n"
        path
        (List.length (Ptelemetry.Trace.events ()))
        path)
    trace_path;
  Option.iter
    (fun path ->
      write_file path
        (Ptelemetry.Json.to_string (Ptelemetry.Metrics.dump_json ()));
      Ptelemetry.Metrics.uninstall ();
      Printf.printf "metrics written to %s\n" path)
    metrics_path;
  if psan_on then begin
    Psan.disable ();
    print_string (Psan.report_text ());
    Option.iter (fun p -> write_file p (Psan.report_json ())) psan_json;
    if not (Psan.clean ()) then exit 1
  end
