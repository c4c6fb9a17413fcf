module D = Pmem.Device

(* A stable 64-bit string hash (FNV-1a), independent of OCaml's runtime
   hash randomization so pools hash identically across processes. *)
let hash_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let key_ty : (unit Pstring.t, unit) Ptype.t = Pstring.ptype ()

(* Entry block: [hash u64 | next u64 | key (Pstring ptr) | value]. *)
include Hash_core.Make (struct
  type t = string
  type word = int64

  let name = "Pstrmap"
  let meta = 24
  let word = hash_string
  let bucket hv nb = Int64.to_int (Int64.unsigned_rem hv (Int64.of_int nb))
  let stored pool e = D.read_u64 (Pool_impl.device pool) e
  let key pool e = Ptype.read key_ty pool (e + 16)
  let get pool e = Pstring.get (key pool e)

  (* the stored hash first: key bytes are loaded only on a hash hit *)
  let matches pool e hv k = Int64.equal (stored pool e) hv && String.equal (get pool e) k
  let store tx k = Pstring.off (Pstring.make k (Journal.unsafe_of_tx tx))

  let init pool e hv ks =
    D.write_u64 (Pool_impl.device pool) e hv;
    D.write_int (Pool_impl.device pool) (e + 16) ks

  let release tx e =
    Pstring.drop (key (Pool_impl.tx_pool tx) e) (Journal.unsafe_of_tx tx)

  let check pool e =
    let k = get pool e and h = stored pool e in
    if not (Int64.equal h (hash_string k)) then
      Error (Printf.sprintf "stale hash for key %S" k)
    else Ok h

  let to_string = Printf.sprintf "%S"
  let reach pool e = Ptype.reach key_ty pool (e + 16)
end)
