(* splitmix64 (Steele, Lea & Flood) over Int64, surfaced as OCaml ints.
   Chosen over [Random.State] because its sequence is specified by the
   algorithm, not the stdlib version — captured baselines stay valid
   across compiler upgrades. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let next64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = next64 t }

(* Top 62 bits: always fits a non-negative OCaml int. *)
let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to stay exactly uniform: a draw is kept unless
     its block of [bound] consecutive values runs past [max_int] (the
     sum then wraps negative) — only the last, partial block is
     rejected. *)
  let rec go () =
    let v = next t in
    let r = v mod bound in
    if v - r + (bound - 1) < 0 then go () else r
  in
  go ()

let float t =
  (* 53 uniform bits, as the standard double in [0,1). *)
  Int64.to_float (Int64.shift_right_logical (next64 t) 11)
  *. (1.0 /. 9007199254740992.0)
