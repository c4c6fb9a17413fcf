(* An open-addressed table of (key, value) int pairs in one flat array,
   hashed on the key and probed linearly.  Lookups, inserts and removals
   allocate nothing (the probe loops are top-level functions, so no
   closure is built per call); only growth does, by doubling at half
   load.  Removal shifts the rest of the probe run back, so no
   tombstones build up.  Key -1 marks a free entry. *)

type t = { mutable a : int array; mutable count : int }

let initial = 32 (* entries *)
let create () = { a = Array.make (2 * initial) (-1); count = 0 }
let[@inline] mask a = (Array.length a / 2) - 1

let[@inline] home a key =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask a

(* The entry index holding [key] in the run from [i], or -1. *)
let rec index a key i =
  let k = a.(2 * i) in
  if k = key then i else if k = -1 then -1 else index a key ((i + 1) land mask a)

let find t key =
  match index t.a key (home t.a key) with -1 -> -1 | i -> t.a.((2 * i) + 1)

let rec mem_from a key v i =
  let k = a.(2 * i) in
  (k = key && a.((2 * i) + 1) = v) || (k <> -1 && mem_from a key v ((i + 1) land mask a))

let mem t key v = mem_from t.a key v (home t.a key)

let rec insert a key v i =
  if a.(2 * i) = -1 then begin
    a.(2 * i) <- key;
    a.((2 * i) + 1) <- v
  end
  else insert a key v ((i + 1) land mask a)

let add t key v =
  if 4 * (t.count + 1) > Array.length t.a then begin
    let old = t.a in
    let a = Array.make (2 * Array.length old) (-1) in
    for i = 0 to (Array.length old / 2) - 1 do
      let k = old.(2 * i) in
      if k <> -1 then insert a k old.((2 * i) + 1) (home a k)
    done;
    t.a <- a
  end;
  insert t.a key v (home t.a key);
  t.count <- t.count + 1

(* Fill [hole] from the run after it: an entry moves back into the hole
   unless the hole lies before its home. *)
let rec shift a hole j =
  let j = (j + 1) land mask a in
  let k = a.(2 * j) in
  if k = -1 then a.(2 * hole) <- -1
  else if (j - home a k) land mask a >= (j - hole) land mask a then begin
    a.(2 * hole) <- k;
    a.((2 * hole) + 1) <- a.((2 * j) + 1);
    shift a j j
  end
  else shift a hole j

let replace t key v =
  match index t.a key (home t.a key) with
  | -1 -> raise Not_found
  | i -> t.a.((2 * i) + 1) <- v

let remove t key =
  match index t.a key (home t.a key) with
  | -1 -> ()
  | i ->
      t.count <- t.count - 1;
      shift t.a i i

(* Like [Hashtbl.reset]: a table grown by one large set shrinks back,
   so later clears refill [initial] entries, not its peak. *)
let clear t =
  if t.count > 0 then begin
    if Array.length t.a > 2 * initial then t.a <- Array.make (2 * initial) (-1)
    else Array.fill t.a 0 (2 * initial) (-1);
    t.count <- 0
  end
