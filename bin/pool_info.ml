(* Inspect and check a pool image without opening it.

     dune exec bin/pool_info.exe -- quickstart.pool            # layout info
     dune exec bin/pool_info.exe -- --check quickstart.pool    # info + fsck
     dune exec bin/pool_info.exe -- fsck quickstart.pool       # fsck only
     dune exec bin/pool_info.exe -- fsck --repair quickstart.pool

   Everything except [fsck --repair] is read-only — safe on a crash image
   before recovery has run.  [fsck --repair] rewrites the image in place
   (truncating corrupt journal suffixes, quarantining impossible
   allocation-table entries, re-sealing the header checksum) and exits
   non-zero if damage remains that repair cannot fix — such pools can
   still be opened with [~mode:Read_only]. *)

open Cmdliner

let load ?latency path =
  match Pmem.Device.load ?latency path with
  | dev -> dev
  | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | exception End_of_file ->
      Printf.eprintf "error: %s: truncated or not a pmem image\n" path;
      exit 1

(* A walk over a corrupt image can itself fail (an allocation-table byte
   naming an impossible order raises [Invalid_argument]): that is
   detected corruption, so it exits 1 as fsck's findings do.  Any other
   [Invalid_argument] is a program error and is not caught. *)
let corrupt path msg =
  Printf.eprintf "error: %s: %s (run fsck)\n" path msg;
  exit 1

(* The allocator reads a stripe's table slice at the stripe's first
   use, not at attach, so a command that allocates or walks after
   attaching reports the corruption wherever it surfaces. *)
let or_corrupt path f =
  try f () with Invalid_argument msg when Palloc.Alloc_table.is_order_error msg ->
    corrupt path msg

let inspect path dev =
  match Corundum.Pool_inspect.inspect_device dev with
  | info -> info
  | exception Invalid_argument msg when Palloc.Alloc_table.is_order_error msg ->
      corrupt path msg

let write_json path json =
  Harness.Instrument.write_file path (Ptelemetry.Json.to_string json)

(* [info --json]: layout plus attach-time recovery observability.  The
   attach runs on the in-memory image (Device.load never writes back)
   with the null trace subscriber installed so the recovery path takes
   its timed branches; the per-phase simulated-ns ledger (walk,
   rollback, drop_apply, remark, truncate, cow) comes back in
   Recovery.stats.phase_ns. *)
let info_json ~path (i : Corundum.Pool_inspect.info)
    (recovery : (Pjournal.Recovery.stats, string) result) =
  let open Ptelemetry.Json in
  let n v = Num (float_of_int v) in
  let slot_json (state, epoch) =
    let fields =
      match state with
      | Corundum.Pool_inspect.Idle -> [ ("state", Str "idle") ]
      | Corundum.Pool_inspect.Active e ->
          [ ("state", Str "active"); ("entries", n e) ]
      | Corundum.Pool_inspect.Committing e ->
          [ ("state", Str "committing"); ("entries", n e) ]
    in
    Obj (fields @ [ ("epoch", n epoch) ])
  in
  let recovery_json =
    match recovery with
    | Error msg -> Obj [ ("ok", Bool false); ("error", Str msg) ]
    | Ok (s : Pjournal.Recovery.stats) ->
        Obj
          [
            ("ok", Bool true);
            ("slots_scanned", n s.Pjournal.Recovery.slots_scanned);
            ("rolled_back", n s.Pjournal.Recovery.rolled_back);
            ("completed", n s.Pjournal.Recovery.completed);
            ("data_restored", n s.Pjournal.Recovery.data_restored);
            ("allocs_reverted", n s.Pjournal.Recovery.allocs_reverted);
            ("drops_applied", n s.Pjournal.Recovery.drops_applied);
            ("drops_remarked", n s.Pjournal.Recovery.drops_remarked);
            ("entries_skipped", n s.Pjournal.Recovery.entries_skipped);
            ("drops_skipped", n s.Pjournal.Recovery.drops_skipped);
            ( "phase_ns",
              Obj
                (List.map
                   (fun (name, ns) -> (name, Num ns))
                   s.Pjournal.Recovery.phase_ns) );
          ]
  in
  let cow_json (ci : Corundum.Cow_root.cell_info) =
    let intent_json (s, (it : Corundum.Cow_root.intent)) =
      Obj
        [
          ("slot", n s);
          ("gen", n it.igen);
          ( "kind",
            Str
              (match it.kind with
              | Corundum.Cow_root.Gen_only -> "gen-only"
              | Corundum.Cow_root.Swap _ -> "swap"
              | Corundum.Cow_root.Publish _ -> "publish") );
          ("allocs", n (List.length it.allocs));
          ("retires", n (List.length it.frees));
        ]
    in
    Obj
      [
        ("cell", n ci.ci_cell);
        ("gen", n ci.ci_gen);
        ("active", n ci.ci_ptr);
        ("pending", Bool ci.ci_pending);
        ("intents", List (List.map intent_json ci.ci_intents));
      ]
  in
  Obj
    [
      ("schema", Str "corundum-info-v1");
      ("pool", Str path);
      ("magic_ok", Bool i.Corundum.Pool_inspect.magic_ok);
      ("version", n i.Corundum.Pool_inspect.version);
      ("generation", n i.Corundum.Pool_inspect.generation);
      ("root_off", n i.Corundum.Pool_inspect.root_off);
      ("nslots", n i.Corundum.Pool_inspect.nslots);
      ("slot_size", n i.Corundum.Pool_inspect.slot_size);
      ("journal_base", n i.Corundum.Pool_inspect.journal_base);
      ("table_base", n i.Corundum.Pool_inspect.table_base);
      ("heap_base", n i.Corundum.Pool_inspect.heap_base);
      ("heap_len", n i.Corundum.Pool_inspect.heap_len);
      ("device_size", n i.Corundum.Pool_inspect.device_size);
      ( "slots",
        List
          (List.map slot_json
             (List.combine i.Corundum.Pool_inspect.slots
                i.Corundum.Pool_inspect.slot_epochs)) );
      ("live_blocks", n i.Corundum.Pool_inspect.live_blocks);
      ("live_bytes", n i.Corundum.Pool_inspect.live_bytes);
      ("largest_block", n i.Corundum.Pool_inspect.largest_block);
      ("lifetime_tx", n i.Corundum.Pool_inspect.lifetime_tx);
      ("lifetime_aborts", n i.Corundum.Pool_inspect.lifetime_aborts);
      ( "cow_cells",
        List (List.map cow_json i.Corundum.Pool_inspect.cow_cells) );
      ("recovery", recovery_json);
    ]

let run_info check json path =
  (* Optane latencies so the recovery phase_ns in --json is meaningful;
     the plain layout print doesn't read the clock. *)
  let dev = load ~latency:Pmem.Latency.optane path in
  let info = inspect path dev in
  Format.printf "%a" Corundum.Pool_inspect.pp info;
  (match json with
  | None -> ()
  | Some out ->
      let recovery =
        if not info.Corundum.Pool_inspect.magic_ok then
          Error "not a Corundum pool image"
        else begin
          match Corundum.Pool_impl.attach dev with
          | pool -> Ok (Corundum.Pool_impl.recovery_stats pool)
          | exception Corundum.Pool_impl.Recovery_needed msg -> Error msg
          | exception Invalid_argument msg
            when Palloc.Alloc_table.is_order_error msg ->
              corrupt path msg
        end
      in
      write_json out (info_json ~path info recovery);
      (match recovery with
      | Ok s ->
          Printf.printf "wrote %s (recovery:" out;
          List.iter
            (fun (name, ns) -> Printf.printf " %s=%.0fns" name ns)
            s.Pjournal.Recovery.phase_ns;
          Printf.printf ")\n"
      | Error _ -> Printf.printf "wrote %s\n" out));
  if not info.Corundum.Pool_inspect.magic_ok then exit 1;
  if check then begin
    let r = Corundum.Pool_check.check_device dev in
    Format.printf "%a" Corundum.Pool_check.pp r;
    if not (Corundum.Pool_check.ok r) then exit 1
  end

(* fsck exit codes: 0 = clean, 1 = corrupt but repairable (run with
   --repair), 2 = unrepairable damage.  Without --repair the
   classification comes from a dry-run repair on the in-memory image —
   the file is never written back. *)
let fsck_verdict_json ~path ~verdict (r : Corundum.Pool_check.report)
    (unrepairable : Corundum.Pool_check.finding list) =
  let open Ptelemetry.Json in
  let finding_json (f : Corundum.Pool_check.finding) =
    Obj
      [
        ("where", Str f.Corundum.Pool_check.where);
        ("problem", Str f.Corundum.Pool_check.problem);
      ]
  in
  Obj
    [
      ("schema", Str "corundum-fsck-v1");
      ("pool", Str path);
      ("ok", Bool (verdict = "clean" || verdict = "repaired"));
      ("verdict", Str verdict);
      ("findings", List (List.map finding_json r.Corundum.Pool_check.findings));
      ( "slots_checked",
        Num (float_of_int r.Corundum.Pool_check.slots_checked) );
      ( "entries_checked",
        Num (float_of_int r.Corundum.Pool_check.entries_checked) );
      ( "blocks_checked",
        Num (float_of_int r.Corundum.Pool_check.blocks_checked) );
      ("unrepairable", List (List.map finding_json unrepairable));
    ]

let run_fsck repair json path =
  let dev = load path in
  let finish ~verdict ~code r unrepairable =
    (match json with
    | None -> ()
    | Some out -> write_json out (fsck_verdict_json ~path ~verdict r unrepairable));
    if code <> 0 then exit code
  in
  if repair then begin
    let r = Corundum.Pool_check.repair dev in
    Format.printf "%a" Corundum.Pool_check.pp_repair r;
    if r.Corundum.Pool_check.actions <> [] then Pmem.Device.save dev;
    if Corundum.Pool_check.repaired r then
      finish ~verdict:"repaired" ~code:0 r.Corundum.Pool_check.post []
    else
      finish ~verdict:"unrepairable" ~code:2 r.Corundum.Pool_check.post
        r.Corundum.Pool_check.unrepairable
  end
  else begin
    let r = Corundum.Pool_check.check_device dev in
    Format.printf "%a" Corundum.Pool_check.pp r;
    if Corundum.Pool_check.ok r then finish ~verdict:"clean" ~code:0 r []
    else begin
      (* classify: would --repair fix it?  Dry run on the in-memory
         image only; nothing is saved. *)
      let rr = Corundum.Pool_check.repair dev in
      if Corundum.Pool_check.repaired rr then begin
        Format.printf "verdict: repairable (rerun with --repair)@.";
        finish ~verdict:"repairable" ~code:1 r []
      end
      else begin
        Format.printf "verdict: unrepairable@.";
        finish ~verdict:"unrepairable" ~code:2 r
          rr.Corundum.Pool_check.unrepairable
      end
    end
  end

(* [heap]: attach the allocator read-only over the image and report the
   heap's occupancy — whole-heap fragmentation plus the per-stripe view
   (free bytes and per-order free-list depths) that the multi-domain
   allocator design is judged by.  The steal/contention counters are
   runtime telemetry and always 0 on a cold attach, so they are omitted
   here; [bench alloc-scale] reports them live. *)
let run_heap metrics_out path =
  let dev = load path in
  let info = inspect path dev in
  if not info.Corundum.Pool_inspect.magic_ok then begin
    Printf.eprintf "error: %s: not a Corundum pool image\n" path;
    exit 1
  end;
  let buddy =
    Palloc.Buddy.attach ~stripes:info.Corundum.Pool_inspect.nslots dev
      ~table_base:info.Corundum.Pool_inspect.table_base
      ~heap_base:info.Corundum.Pool_inspect.heap_base
      ~heap_len:info.Corundum.Pool_inspect.heap_len
  in
  let rep = Palloc.Heap_walk.report buddy in
  let stripes = Palloc.Buddy.stripe_stats buddy in
  Printf.printf "heap: %d live blocks, %d bytes used, %d free\n"
    rep.Palloc.Heap_walk.blocks rep.Palloc.Heap_walk.bytes_used
    rep.Palloc.Heap_walk.bytes_free;
  Printf.printf "  largest free block : %d bytes\n"
    rep.Palloc.Heap_walk.largest_free;
  Printf.printf "  fragmentation      : %.3f (1 - largest/free)\n\n"
    rep.Palloc.Heap_walk.fragmentation;
  Printf.printf "%-7s %10s %12s  %s\n" "stripe" "span KiB" "free bytes"
    "free-list depths (order:count)";
  Array.iteri
    (fun n s ->
      let depths = Buffer.create 32 in
      Array.iteri
        (fun o d ->
          if d > 0 then Buffer.add_string depths (Printf.sprintf "%d:%d " o d))
        s.Palloc.Buddy.ss_depths;
      Printf.printf "%-7d %10d %12d  %s\n" n
        ((s.Palloc.Buddy.ss_hi - s.Palloc.Buddy.ss_lo) / 1024)
        s.Palloc.Buddy.ss_free_bytes
        (if Buffer.length depths = 0 then "(empty)" else Buffer.contents depths))
    stripes;
  match metrics_out with
  | None -> ()
  | Some out ->
      let open Ptelemetry.Json in
      let stripe_json s =
        Obj
          [
            ("lo", Num (float_of_int s.Palloc.Buddy.ss_lo));
            ("hi", Num (float_of_int s.Palloc.Buddy.ss_hi));
            ("free_bytes", Num (float_of_int s.Palloc.Buddy.ss_free_bytes));
            ( "depths",
              List
                (Array.to_list
                   (Array.map (fun d -> Num (float_of_int d))
                      s.Palloc.Buddy.ss_depths)) );
          ]
      in
      let json =
        Obj
          [
            ("schema", Str "corundum-heap-v1");
            ("live_blocks", Num (float_of_int rep.Palloc.Heap_walk.blocks));
            ("bytes_used", Num (float_of_int rep.Palloc.Heap_walk.bytes_used));
            ("bytes_free", Num (float_of_int rep.Palloc.Heap_walk.bytes_free));
            ( "largest_free",
              Num (float_of_int rep.Palloc.Heap_walk.largest_free) );
            ("fragmentation", Num rep.Palloc.Heap_walk.fragmentation);
            ( "stripes",
              List (Array.to_list (Array.map stripe_json stripes)) );
          ]
      in
      let oc = open_out out in
      output_string oc (to_string json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s\n" out

(* [leak]: reachability audit of a pool image — every block the
   allocator holds live must be reachable from the root through the
   Ptype reference graph (the paper's No-Acyclic-Leaks goal, checked
   observationally).  Walking the graph needs the root's Ptype, which
   the image does not record, so the caller names one of the known
   application schemas with --root; the types are reconstructed here
   under a local phantom brand (Ptype constructors are brand-
   polymorphic, and Leak_check.analyze accepts any brand). *)
module Leak_roots = struct
  open Corundum

  type brand

  (* examples/bank.ml: eight int accounts. *)
  let bank_ty = Ptype.array 8 Ptype.int

  (* examples/kvstore_cli.ml: 64 buckets of (key, value, next) chains. *)
  type kv_entry = {
    key : brand Pstring.t;
    value : brand Pstring.t;
    next : (kv_link, brand) Prefcell.t;
  }

  and kv_link = (kv_entry, brand) Pbox.t option

  let rec entry_ty_l : (kv_entry, brand) Ptype.t Lazy.t =
    lazy
      (Ptype.record3 ~name:"kv-entry"
         ~inj:(fun key value next -> { key; value; next })
         ~proj:(fun e -> (e.key, e.value, e.next))
         (Pstring.ptype ()) (Pstring.ptype ())
         (Prefcell.ptype (Ptype.option (Pbox.ptype_rec entry_ty_l))))

  let kvstore_ty =
    Ptype.array 64 (Prefcell.ptype (Ptype.option (Pbox.ptype_rec entry_ty_l)))
end

let leak_json ~path ~root (r : Crashtest.Leak_check.report) =
  let open Ptelemetry.Json in
  let n v = Num (float_of_int v) in
  let offs xs = List (List.map n xs) in
  Obj
    [
      ("schema", Str "corundum-leak-v1");
      ("pool", Str path);
      ("root", Str root);
      ("ok", Bool (Crashtest.Leak_check.is_clean r));
      ("live", n r.Crashtest.Leak_check.live);
      ("reachable", n r.Crashtest.Leak_check.reachable);
      ("leaked", offs r.Crashtest.Leak_check.leaked);
      ("dangling", offs r.Crashtest.Leak_check.dangling);
    ]

let run_leak root json path =
  or_corrupt path @@ fun () ->
  let dev = load path in
  let pool =
    match Corundum.Pool_impl.attach dev with
    | pool -> pool
    | exception Corundum.Pool_impl.Recovery_needed msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
  in
  let report =
    match root with
    | `Bank -> Crashtest.Leak_check.analyze pool ~root_ty:Leak_roots.bank_ty
    | `Kvstore ->
        Crashtest.Leak_check.analyze pool ~root_ty:Leak_roots.kvstore_ty
    | `Int -> Crashtest.Leak_check.analyze pool ~root_ty:Corundum.Ptype.int
  in
  Format.printf "%a@." Crashtest.Leak_check.pp report;
  (match json with
  | None -> ()
  | Some out ->
      let root_name =
        match root with `Bank -> "bank" | `Kvstore -> "kvstore" | `Int -> "int"
      in
      write_json out (leak_json ~path ~root:root_name report);
      Printf.printf "wrote %s\n" out);
  if not (Crashtest.Leak_check.is_clean report) then exit 1

(* [top]: open the image in memory (the file is never written back),
   run a short probe workload with telemetry subscribed, and print the
   metrics registry — flushes/tx, fences/tx, logged bytes/tx and the
   latency histograms for this pool's actual layout and contents. *)
let run_top probes path =
  or_corrupt path @@ fun () ->
  (* Optane latencies so the tx.latency_ns histogram is meaningful. *)
  let dev = load ~latency:Pmem.Latency.optane path in
  Ptelemetry.Trace.install_ring ~capacity:(1 lsl 16) ();
  Ptelemetry.Metrics.install ();
  let pool =
    match Corundum.Pool_impl.attach dev with
    | pool -> pool
    | exception Corundum.Pool_impl.Recovery_needed msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
  in
  let module A = Engines.Attribution in
  let s = A.probe_summary ~probes pool in
  Ptelemetry.Trace.uninstall ();
  Ptelemetry.Metrics.uninstall ();
  Printf.printf "probe workload: %d transactions on %s (in-memory; file untouched)\n\n"
    s.A.probe_txs path;
  Printf.printf "per-transaction attribution\n";
  Printf.printf "  flushes/tx      : %.2f\n" s.A.flushes_per_tx;
  Printf.printf "  fences/tx       : %.2f\n" s.A.fences_per_tx;
  Printf.printf "  logged bytes/tx : %.1f\n\n" s.A.logged_per_tx;
  Printf.printf "metrics registry\n%s" (Ptelemetry.Metrics.dump_text ());
  Printf.printf "\ntrace ring: %d events retained, %d dropped\n"
    (List.length (Ptelemetry.Trace.events ()))
    (Ptelemetry.Trace.dropped ())

let path_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"POOL" ~doc:"Pool image file.")

let check_arg =
  Arg.(value & flag & info [ "check" ] ~doc:"Run the full consistency check.")

let repair_arg =
  Arg.(
    value & flag
    & info [ "repair" ]
        ~doc:
          "Repair the image in place: truncate corrupt journal suffixes, \
           quarantine impossible allocation-table entries, re-seal the \
           header checksum.  Exits non-zero on unrepairable damage.")

let info_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ]
        ~doc:
          "Write layout and attach-time recovery statistics (schema \
           corundum-info-v1) to $(docv), including the per-phase \
           simulated-ns recovery timings.  The attach runs on the \
           in-memory copy; the image file is not modified."
        ~docv:"FILE")

let info_term = Term.(const run_info $ check_arg $ info_json_arg $ path_arg)

let info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Print layout, root and occupancy (the default).")
    info_term

let fsck_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ]
        ~doc:
          "Write a machine-readable verdict (schema corundum-fsck-v1) to \
           $(docv): clean / repairable / unrepairable / repaired, with the \
           findings."
        ~docv:"FILE")

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check a pool image for corruption; with --repair, fix it.  Exits \
          0 when clean, 1 when corrupt but repairable, 2 on unrepairable \
          damage.")
    Term.(const run_fsck $ repair_arg $ fsck_json_arg $ path_arg)

let probes_arg =
  Arg.(
    value & opt int 32
    & info [ "probes" ] ~doc:"Probe transactions to run." ~docv:"N")

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run a short probe workload against an in-memory copy of the pool \
          and print per-transaction flush/fence/logging attribution plus \
          the telemetry metrics registry.  The image file is not modified.")
    Term.(const run_top $ probes_arg $ path_arg)

let leak_root_arg =
  Arg.(
    required
    & opt
        (some (enum [ ("bank", `Bank); ("kvstore", `Kvstore); ("int", `Int) ]))
        None
    & info [ "root" ]
        ~doc:
          "Root object schema of the image: $(b,bank) (examples/bank.ml), \
           $(b,kvstore) (examples/kvstore_cli.ml) or $(b,int) (a bare \
           persistent int root).  Needed to walk the reference graph; the \
           image itself does not record its root's type."
        ~docv:"SCHEMA")

let leak_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ]
        ~doc:
          "Write a machine-readable report (schema corundum-leak-v1) to \
           $(docv): live/reachable block counts plus leaked and dangling \
           offsets."
        ~docv:"FILE")

let leak_cmd =
  Cmd.v
    (Cmd.info "leak"
       ~doc:
         "Reachability audit: every allocator-live block must be reachable \
          from the root (no leaks), and every reference must point at a \
          live block (no dangling).  Runs recovery on the in-memory copy \
          first; the image file is not modified.  Exits 0 when clean, 1 on \
          leaks or dangling references, 2 when the pool cannot be \
          attached.")
    Term.(const run_leak $ leak_root_arg $ leak_json_arg $ path_arg)

let heap_metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ]
        ~doc:"Also write the heap statistics as JSON to $(docv)."
        ~docv:"FILE")

let heap_cmd =
  Cmd.v
    (Cmd.info "heap"
       ~doc:
         "Report heap occupancy: whole-heap fragmentation plus per-stripe \
          free bytes and per-order free-list depths.  Read-only.")
    Term.(const run_heap $ heap_metrics_arg $ path_arg)

let cmd =
  Cmd.group ~default:info_term
    (Cmd.info "pool_info" ~doc:"Inspect and check a Corundum pool image")
    [ info_cmd; fsck_cmd; top_cmd; heap_cmd; leak_cmd ]

(* Back-compat: [pool_info POOL] (no subcommand) still means [info POOL] —
   a command group would otherwise read the image path as a command name. *)
let () =
  let argv = Sys.argv in
  let argv =
    if
      Array.length argv > 1
      && not
           (List.mem argv.(1)
              [ "info"; "fsck"; "top"; "heap"; "leak"; "--help"; "-h";
                "--version" ])
    then
      Array.append
        [| argv.(0); "info" |]
        (Array.sub argv 1 (Array.length argv - 1))
    else argv
  in
  exit (Cmd.eval ~argv cmd)
