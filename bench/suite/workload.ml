(* The four workloads and the two store kinds they run on. *)

module PI = Corundum.Pool_impl
module L = Spans.L

type spec = {
  name : string;
  typed : bool;  (** typed API (Pool.Make + Phashtbl) or raw engine + Kvstore *)
  domains : int;  (** worker domains sharing one pool *)
  pool_mib : int;
  nbuckets : int;
  keys : int;  (** keyspace per domain *)
  preload : int;  (** keys loaded per domain before measuring *)
  theta : float;  (** zipf skew; 0 = uniform *)
  mix : Loadgen.mix;
  sim_ops : int;  (** ops in the deterministic simulated-time phase *)
}

(* Why each workload exists is recorded next to its definition and in
   BENCHMARK.json; the README spells out the predictions. *)
let all =
  [
    (* Commit-heavy on a small heap that fits in cache: journal, flush
       and fence changes show here. *)
    {
      name = "kv-mixed";
      typed = false;
      domains = 1;
      pool_mib = 16;
      nbuckets = 1024;
      keys = 1024;
      preload = 1024;
      theta = 0.99;
      mix = Loadgen.default_mix;
      sim_ops = 600_000;
    };
    (* Read-mostly over a working set larger than L2: bypasses the
       commit path, stresses device loads, chain walks and the
       whole-table recovery scan. *)
    {
      name = "kv-read-large";
      typed = false;
      domains = 1;
      pool_mib = 64;
      nbuckets = 65536;
      keys = 262_144;
      preload = 262_144;
      theta = 0.0;
      mix = { Loadgen.read = 0.95; update = 0.05; insert = 0.0; delete = 0.0 };
      sim_ops = 600_000;
    };
    (* The only workload through group commit, slot binding, cross-domain
       bucket locks and the device mutex.  Keys are partitioned by domain.
       Write-heavy: a read-only transaction skips commit entirely, so with
       half the ops reading, the median would sit on the boundary between
       microsecond reads and millisecond group-commit waits and flip
       between them from run to run; with about 65% writes the median is
       the group-commit wait this workload exists to measure. *)
    {
      name = "kv-shared";
      typed = false;
      domains = 2;
      pool_mib = 64;
      nbuckets = 1024;
      keys = 1024;
      preload = 1024;
      theta = 0.99;
      mix = { Loadgen.read = 0.35; update = 0.40; insert = 0.15; delete = 0.10 };
      sim_ops = 20_000;
    };
    (* The paper's user-facing API: Ptype codecs, Pbox and Phashtbl, with
       a large share of ops allocating or freeing a block. *)
    {
      name = "typed-churn";
      typed = true;
      domains = 1;
      pool_mib = 32;
      nbuckets = 8192;
      keys = 16_384;
      preload = 8192;
      theta = 0.0;
      mix = { Loadgen.read = 0.40; update = 0.20; insert = 0.20; delete = 0.20 };
      sim_ops = 600_000;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

(* Shrink a workload by [f] (the smoke test runs at 1%), keeping the
   preloaded share of the keyspace. *)
let scale f s =
  if f = 1.0 then s
  else
    let sc ~floor n = max floor (int_of_float (Float.round (f *. float_of_int n))) in
    let keys = sc ~floor:64 s.keys in
    {
      s with
      pool_mib = sc ~floor:2 s.pool_mib;
      nbuckets = sc ~floor:16 s.nbuckets;
      keys;
      preload = keys * s.preload / s.keys;
      sim_ops = sc ~floor:(256 * s.domains) s.sim_ops;
    }

(* {1 Stores}

   A store is the three calls an op makes, as closures over one pool
   handle; [traced] wraps the same calls in layer spans. *)

type 'v store = {
  get : int -> 'v option;
  put : int -> 'v -> unit;
  del : int -> bool;
}

(* Everything bound to one open pool handle; rebuilt on re-attach. *)
type 'v handles = {
  plain : 'v store;
  traced : 'v store;
  length : unit -> int;
  check : unit -> (unit, string) result;
}

type 'v inst = {
  mutable pool : PI.t;
  mutable handles : 'v handles;
  batch : (unit -> unit) -> unit;  (** run the thunk as one transaction *)
  reattach : unit -> unit;
      (** power-cycle the device, run recovery, rebind every handle *)
  close : unit -> unit;
}

type 'v kind = {
  create : spec -> 'v inst;  (** a fresh pool holding an empty store *)
  value_of : int -> 'v;  (** the value stored for a random draw *)
  user_bytes : int;  (** key + encoded value *)
}

(* Pool geometry for both kinds: eight journal slots scaled with the
   pool as [Engines.Engine_common.create_pool] scales them, so small
   smoke-test pools stay viable; Optane latencies. *)
let config spec =
  let size = spec.pool_mib lsl 20 in
  { PI.size; nslots = 8; slot_size = max (64 lsl 10) (min (1 lsl 20) (size / 32)) }

(* {2 Raw engine: Corundum_engine + Workloads.Kvstore} *)

module E = Engines.Corundum_engine
module KV = Workloads.Kvstore.Make (E)
module TE = Spans.Timed_engine (E)
module KVT = Workloads.Kvstore.Make (TE)

let kv : int64 kind =
  let create spec =
    let handles pool =
      if spec.domains > 1 then PI.set_group_commit pool true;
      let kv = KV.create ~nbuckets:spec.nbuckets (E.of_pool pool) in
      let kvt = KVT.create ~nbuckets:spec.nbuckets (TE.of_pool pool) in
      let key = Int64.of_int in
      let op f = Spans.span L.op f in
      {
        plain =
          {
            get = (fun k -> KV.get kv (key k));
            put = (fun k v -> KV.put kv (key k) v);
            del = (fun k -> KV.del kv (key k));
          };
        traced =
          {
            get = (fun k -> op (fun () -> KVT.get kvt (key k)));
            put = (fun k v -> op (fun () -> KVT.put kvt (key k) v));
            del = (fun k -> op (fun () -> KVT.del kvt (key k)));
          };
        length = (fun () -> KV.length kv);
        check = (fun () -> Ok ());
      }
    in
    let pool = PI.create ~config:(config spec) ~latency:Pmem.Latency.optane () in
    let rec inst =
      {
        pool;
        handles = handles pool;
        batch = (fun f -> E.transaction (E.of_pool inst.pool) (fun _ -> f ()));
        reattach =
          (fun () ->
            inst.pool <- PI.reopen inst.pool;
            inst.handles <- handles inst.pool);
        close = ignore;
      }
    in
    inst
  in
  { create; value_of = Int64.of_int; user_bytes = 16 }

(* {2 Typed API: Pool.Make + Phashtbl of (int * string[16])} *)

module P = Corundum.Pool.Make ()
module Ph = Corundum.Phashtbl

let vty = Corundum.Ptype.pair Corundum.Ptype.int (Corundum.Ptype.fixed_string 16)

let typed : (int * string) kind =
  let create spec =
    let handles () =
      let h =
        Corundum.Pbox.get
          (P.root ~ty:(Ph.ptype vty) ~init:(fun j -> Ph.make ~vty ~nbuckets:spec.nbuckets j) ())
      in
      let sp = Spans.span in
      let tx f = sp L.tx (fun () -> P.transaction (fun j -> sp L.body (fun () -> f j))) in
      {
        plain =
          {
            get = (fun k -> Ph.find h k);
            put = (fun k v -> P.transaction (fun j -> Ph.add h ~key:k v j));
            del = (fun k -> P.transaction (fun j -> Ph.remove h k j));
          };
        traced =
          {
            get = (fun k -> sp L.op (fun () -> sp L.find (fun () -> Ph.find h k)));
            put =
              (fun k v ->
                sp L.op (fun () -> tx (fun j -> sp L.add (fun () -> Ph.add h ~key:k v j))));
            del =
              (fun k ->
                sp L.op (fun () -> tx (fun j -> sp L.remove (fun () -> Ph.remove h k j))));
          };
        length = (fun () -> Ph.length h);
        check = (fun () -> Ph.check h);
      }
    in
    P.create ~config:(config spec) ~latency:Pmem.Latency.optane ();
    let rec inst =
      {
        pool = P.impl ();
        handles = handles ();
        batch = (fun f -> P.transaction (fun _ -> f ()));
        reattach =
          (fun () ->
            P.crash_and_reopen ();
            inst.pool <- P.impl ();
            inst.handles <- handles ());
        close = P.close;
      }
    in
    inst
  in
  {
    create;
    value_of = (fun n -> (n, Printf.sprintf "%016x" n));
    user_bytes = 8 + Corundum.Ptype.size vty;
  }
