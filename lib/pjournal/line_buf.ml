(* A reusable buffer of 64-byte line indexes: the one form every commit
   line set takes (logged targets, table marks and clears, a group-commit
   epoch's merged batch, the CoW engine's shadow, publish and clear
   lines).  Entries may repeat; [flush] sorts them in place and issues
   one flush per contiguous run of distinct lines.  The array grows by
   doubling and is never shrunk, so a buffer reused across transactions
   stops allocating once it has seen its largest set. *)

module D = Pmem.Device

let line = 64

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 16 0; n = 0 }
let clear t = t.n <- 0
let is_empty t = t.n = 0

let grow t need =
  if need > Array.length t.a then begin
    let a = Array.make (max need (2 * Array.length t.a)) 0 in
    Array.blit t.a 0 a 0 t.n;
    t.a <- a
  end

(* A line equal to the last one added is skipped: repeated stores into
   one line are the common duplicate, and dropping them here keeps the
   buffer near the size of the set. *)
let add t l =
  if t.n = 0 || t.a.(t.n - 1) <> l then begin
    grow t (t.n + 1);
    t.a.(t.n) <- l;
    t.n <- t.n + 1
  end

let add_range t ~off ~len =
  for l = off / line to (off + len - 1) / line do
    add t l
  done

let append t src =
  grow t (t.n + src.n);
  Array.blit src.a 0 t.a t.n src.n;
  t.n <- t.n + src.n

let remove_lines t ~first ~last =
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    let l = t.a.(i) in
    if l < first || l > last then begin
      t.a.(!k) <- l;
      incr k
    end
  done;
  t.n <- !k

(* In-place heapsort of [a.(0 .. n-1)]: no allocation, O(n log n). *)
let rec sift (a : int array) i n =
  let c = (2 * i) + 1 in
  if c < n then begin
    let c = if c + 1 < n && a.(c + 1) > a.(c) then c + 1 else c in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c n
    end
  end

let sort t =
  let a = t.a and n = t.n in
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for e = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(e);
    a.(e) <- x;
    sift a 0 e
  done

let flush_run dev first last = D.flush dev (first * line) ((last - first + 1) * line)

(* Runs are never merged across a gap: a clean line between two dirty
   ones must not be flushed (it would be a useless flush, and the
   sanitizer says so). *)
let flush dev t =
  if t.n > 0 then begin
    sort t;
    let first = ref t.a.(0) and last = ref t.a.(0) in
    for i = 1 to t.n - 1 do
      let l = t.a.(i) in
      if l = !last + 1 then last := l
      else if l <> !last then begin
        flush_run dev !first !last;
        first := l;
        last := l
      end
    done;
    flush_run dev !first !last
  end
