module P = Corundum.Pool_impl
module D = Pmem.Device

type row = {
  op : string;
  ops : int;
  flushes : int;
  fences : int;
  logged_bytes : int;
  sim_ns : float;
}

let measure ?(size = 16 * 1024 * 1024) ?(ops = 64) (module E : Engine_sig.S) =
  let t = E.create ~size () in
  let pool = E.pool t in
  let dev = P.device pool in
  let root =
    E.transaction t (fun tx ->
        let r = E.alloc tx 64 in
        E.set_root tx r;
        r)
  in
  (* [P.stats] walks the allocation table, so both logged-bytes reads
     stay outside the counter window. *)
  let window op f =
    let lb0 = (P.stats pool).P.logged_bytes in
    let s0 = D.stats dev in
    let ns0 = D.simulated_ns dev in
    for i = 1 to ops do
      f i
    done;
    let s1 = D.stats dev in
    let sim_ns = D.simulated_ns dev -. ns0 in
    {
      op;
      ops;
      flushes = s1.D.flush_calls - s0.D.flush_calls;
      fences = s1.D.fences - s0.D.fences;
      logged_bytes = (P.stats pool).P.logged_bytes - lb0;
      sim_ns;
    }
  in
  let update =
    window "update" (fun i ->
        E.transaction t (fun tx -> E.write tx root (Int64.of_int i)))
  in
  let blocks = Array.make ops 0 in
  let alloc =
    window "alloc+write" (fun i ->
        E.transaction t (fun tx ->
            let b = E.alloc tx 64 in
            E.write tx b (Int64.of_int i);
            blocks.(i - 1) <- b))
  in
  let free =
    window "free" (fun i ->
        E.transaction t (fun tx -> E.free tx blocks.(i - 1)))
  in
  [ update; alloc; free ]

(* The canonical raw-pool probe mix: every transaction performs one
   logged 64-byte update of a scratch block; every fourth additionally
   allocates and initialises a fresh 64-byte block (the fresh-allocation
   path); the scratch block is freed in a final transaction.  Shared by
   [pool_info top] and [perf --attr] so both surfaces measure the same
   workload. *)
let probe_pool ?(probes = 32) pool =
  let d = P.device pool in
  let scratch = P.transaction pool (fun tx -> P.tx_alloc tx 256) in
  for i = 1 to probes do
    P.transaction pool (fun tx ->
        P.tx_log tx ~off:scratch ~len:64;
        D.write_int d scratch i;
        if i mod 4 = 0 then begin
          let b = P.tx_alloc tx 64 in
          D.write_int d b i;
          P.tx_add_target tx ~off:b ~len:8
        end)
  done;
  P.transaction pool (fun tx -> P.tx_free tx scratch)

type probe_summary = {
  probe_txs : int;
  flushes_per_tx : float;
  fences_per_tx : float;
  logged_per_tx : float;
}

let probe_summary ?probes pool =
  let d = P.device pool in
  let s0 = D.stats d in
  let p0 = P.stats pool in
  probe_pool ?probes pool;
  let s1 = D.stats d in
  let p1 = P.stats pool in
  let txs =
    p1.P.transactions + p1.P.aborts - p0.P.transactions - p0.P.aborts
  in
  let per v = float_of_int v /. float_of_int (max 1 txs) in
  {
    probe_txs = txs;
    flushes_per_tx = per (s1.D.flush_calls - s0.D.flush_calls);
    fences_per_tx = per (s1.D.fences - s0.D.fences);
    logged_per_tx = per (p1.P.logged_bytes - p0.P.logged_bytes);
  }

let table columns =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %-12s %11s %10s %13s %12s\n" "engine" "op"
       "flushes/op" "fences/op" "logged B/op" "sim ns/op");
  Buffer.add_string buf (String.make 74 '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun (engine, rows) ->
      List.iter
        (fun r ->
          let per x = float_of_int x /. float_of_int (max 1 r.ops) in
          Buffer.add_string buf
            (Printf.sprintf "%-12s %-12s %11.2f %10.2f %13.1f %12.1f\n" engine
               r.op (per r.flushes) (per r.fences) (per r.logged_bytes)
               (r.sim_ns /. float_of_int (max 1 r.ops))))
        rows)
    columns;
  Buffer.contents buf
