(* Host clock, sample buffers and the order statistics the suite reports. *)

(* Nanoseconds on CLOCK_MONOTONIC; the stub is [noalloc] and unboxed, so
   reading the clock on the measured path allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable buffer of non-negative ints below 2^31 (host latencies in
   ns), four bytes each in fixed-size chunks: recording one never copies
   what is already stored. *)
module Ibuf = struct
  let chunk = 1 lsl 16

  type t = { mutable chunks : Bytes.t array; mutable len : int }

  let create () = { chunks = [||]; len = 0 }

  let push b v =
    let c = b.len / chunk and i = b.len mod chunk in
    if c = Array.length b.chunks then
      b.chunks <- Array.append b.chunks [| Bytes.create (4 * chunk) |];
    Bytes.set_int32_le b.chunks.(c) (4 * i) (Int32.of_int (min v 0x7FFF_FFFF));
    b.len <- b.len + 1

  let length b = b.len

  let sub b pos len =
    Array.init len (fun k ->
        let j = pos + k in
        Int32.to_int (Bytes.get_int32_le b.chunks.(j / chunk) (4 * (j mod chunk))))
end

(* Nearest-rank quantile of a sorted array. *)
let rank_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "rank_quantile: no samples";
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (r - 1)))

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (its
   default "exclusive" method) computes them, so spreads reported here
   match what an external checker derives from the same values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then invalid_arg "quartiles: need at least two values";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median: no values";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Relative interquartile range: (q3 - q1) / median. *)
let rel_iqr xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

(* Peak resident set size of this process, from the kernel's VmHWM. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
