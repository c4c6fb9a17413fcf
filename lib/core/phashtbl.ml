module D = Pmem.Device

(* Entry block: [key i64 | next u64 | value]. *)
include Hash_core.Make (struct
  type t = int
  type word = int

  let name = "Phashtbl"
  let meta = 16
  let word k = k

  (* Fibonacci hashing spreads adversarial integer keys. *)
  let bucket k nb =
    Int64.to_int
      (Int64.unsigned_rem (Int64.mul (Int64.of_int k) 0x9E3779B97F4A7C15L)
         (Int64.of_int nb))

  let stored pool e = D.read_int (Pool_impl.device pool) e
  let matches pool e k _ = stored pool e = k
  let store _ _ = 0
  let init pool e k _ = D.write_int (Pool_impl.device pool) e k
  let release _ _ = ()
  let get = stored
  let check pool e = Ok (stored pool e)
  let to_string = string_of_int
  let reach _ _ = []
end)
