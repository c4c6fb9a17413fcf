exception Crashed

module PL = Persist_line

let line_size = PL.line_size

type image = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  id : int; (* process-unique; lets subscribers key state per device *)
  size : int;
  nlines : int;
  latency : Latency.t;
  path : string option;
  durable : image; (* what survives a power failure *)
  view : image; (* what loads observe (durable + cached stores) *)
  (* A line's [Persist_line.state], one byte per line in each of two
     arrays.  The unlocked store path only ever writes ['\001'] into
     [dirty], so it cannot lose an update to a flush or a fence racing it
     from another domain: a flush clears [dirty] (under [lock]) before it
     snapshots the line, and only [lock] holders write [queued].  A store
     relies on its view write becoming visible no later than its flag
     write, as x86-64 keeps stores in order. *)
  dirty : Bytes.t; (* stored since the line's last flush *)
  queued : Bytes.t; (* in the write-pending queue *)
  (* The write-pending queue: [wpq_len] queued lines in flush order,
     line [wpq_lines.(i)]'s 64-byte snapshot at [wpq_snaps.(64 i)].
     Both grow by doubling and are never shrunk. *)
  mutable wpq_lines : int array;
  mutable wpq_snaps : Bytes.t;
  mutable wpq_len : int;
  lock : Mutex.t; (* protects the WPQ and [queued]; flushes clear [dirty] under it *)
  mutable rng : Random.State.t;
  mutable crashed : bool;
  mutable crash_countdown : int; (* <= 0 means disabled *)
  mutable torn_write_prob : float; (* chance a failing WPQ line lands torn *)
  persist_pts : int Atomic.t;
  loads : int Atomic.t;
  stores : int Atomic.t;
  flushes : int Atomic.t;
  flush_calls : int Atomic.t;
  fences : int Atomic.t;
  fence_lines : int Atomic.t;
  alloc_steps : int Atomic.t;
  extra_ns : int Atomic.t;
  torn_lines : int Atomic.t;
  corrupted_lines : int Atomic.t;
}

type stats = {
  loads : int;
  stores : int;
  flushes : int;
  flush_calls : int;
  fences : int;
  fence_lines : int;
  alloc_steps : int;
  extra_ns : int;
  torn_lines : int;
  corrupted_lines : int;
}

let round_up_lines size = (size + line_size - 1) / line_size * line_size

let next_id = Atomic.make 0

(* A private mapping of /dev/zero: created in O(1), and a page costs
   memory only once it is written. *)
let zero_image size =
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]))

let create ?(latency = Latency.zero) ?(seed = 0xC0FFEE) ?path ~size () =
  if size <= 0 then invalid_arg "Device.create: size must be positive";
  let size = round_up_lines size in
  {
    id = Atomic.fetch_and_add next_id 1;
    size;
    nlines = size / line_size;
    latency;
    path;
    durable = zero_image size;
    view = zero_image size;
    dirty = Bytes.make (size / line_size) '\000';
    queued = Bytes.make (size / line_size) '\000';
    wpq_lines = Array.make 64 0;
    wpq_snaps = Bytes.create (64 * line_size);
    wpq_len = 0;
    lock = Mutex.create ();
    rng = Random.State.make [| seed |];
    crashed = false;
    crash_countdown = 0;
    torn_write_prob = 0.0;
    persist_pts = Atomic.make 0;
    loads = Atomic.make 0;
    stores = Atomic.make 0;
    flushes = Atomic.make 0;
    flush_calls = Atomic.make 0;
    fences = Atomic.make 0;
    fence_lines = Atomic.make 0;
    alloc_steps = Atomic.make 0;
    extra_ns = Atomic.make 0;
    torn_lines = Atomic.make 0;
    corrupted_lines = Atomic.make 0;
  }

let id t = t.id
let size t = t.size
let latency t = t.latency
let path t = t.path
let is_crashed t = t.crashed

let check_alive t = if t.crashed then raise Crashed

let check_range t off len what =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Device.%s: range [%d, %d) outside [0, %d)" what off
         (off + len) t.size)

(* {1 Accounting} *)

let stats (t : t) =
  {
    loads = Atomic.get t.loads;
    stores = Atomic.get t.stores;
    flushes = Atomic.get t.flushes;
    flush_calls = Atomic.get t.flush_calls;
    fences = Atomic.get t.fences;
    fence_lines = Atomic.get t.fence_lines;
    alloc_steps = Atomic.get t.alloc_steps;
    extra_ns = Atomic.get t.extra_ns;
    torn_lines = Atomic.get t.torn_lines;
    corrupted_lines = Atomic.get t.corrupted_lines;
  }

let reset_stats (t : t) =
  Atomic.set t.loads 0;
  Atomic.set t.stores 0;
  Atomic.set t.flushes 0;
  Atomic.set t.flush_calls 0;
  Atomic.set t.fences 0;
  Atomic.set t.fence_lines 0;
  Atomic.set t.alloc_steps 0;
  Atomic.set t.extra_ns 0;
  Atomic.set t.torn_lines 0;
  Atomic.set t.corrupted_lines 0

let simulated_ns (t : t) =
  let s = stats t and m = t.latency in
  (float_of_int s.loads *. m.Latency.read_ns)
  +. (float_of_int s.stores *. m.Latency.write_ns)
  +. (float_of_int s.flush_calls *. m.Latency.flush_ns)
  +. (float_of_int (max 0 (s.flushes - s.flush_calls)) *. m.Latency.flush_bulk_ns)
  +. (float_of_int s.fences *. m.Latency.fence_base_ns)
  +. (float_of_int s.fence_lines *. m.Latency.fence_per_line_ns)
  +. (float_of_int s.alloc_steps *. m.Latency.alloc_step_ns)
  +. float_of_int s.extra_ns

let charge_ns (t : t) n = ignore (Atomic.fetch_and_add t.extra_ns n)
let charge_alloc_steps (t : t) n = ignore (Atomic.fetch_and_add t.alloc_steps n)

(* {1 Telemetry}

   Probe events fire only when a subscriber is present (one atomic load
   + branch otherwise, and no event construction) and never touch the
   stat counters: [simulated_ns] is a pure fold over them, so reading
   it for the event payload cannot move the clock. *)

module Pr = Ptelemetry.Probe

let probe_store t off len =
  Pr.emit (Pr.Store { dev = t.id; off; len; ns = simulated_ns t })

let[@inline] is_set b l = Bytes.unsafe_get b l <> '\000'

(* Mark every line intersecting [off, off+len) as dirtied by a store
   ([Persist_line.store]): Clean -> Dirty, Wpq -> Wpq_dirty. *)
let mark_dirty t off len =
  for l = off lsr PL.line_shift to (off + len - 1) lsr PL.line_shift do
    Bytes.unsafe_set t.dirty l '\001'
  done

(* {1 Loads} *)

(* The one prologue of every fixed-width load and store: liveness, range,
   counter; a store then dirties its lines and emits its probe. *)
let[@inline] access t off len what =
  check_alive t;
  check_range t off len what

let[@inline] load t off len what =
  access t off len what;
  Atomic.incr t.loads

let[@inline] store t off len what =
  access t off len what;
  Atomic.incr t.stores

let[@inline] stored t off len =
  mark_dirty t off len;
  if Pr.on () then probe_store t off len

(* Unchecked native-endian word primitives: applied directly, the
   compiler keeps the [int64] unboxed, so word loads and stores allocate
   nothing. *)
external get64 : image -> int -> int64 = "%caml_bigstring_get64u"
external set64 : image -> int -> int64 -> unit = "%caml_bigstring_set64u"
external get32 : image -> int -> int32 = "%caml_bigstring_get32u"
external set32 : image -> int -> int32 -> unit = "%caml_bigstring_set32u"
external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] le64 w = if Sys.big_endian then swap64 w else w
let[@inline] le32 w = if Sys.big_endian then swap32 w else w
let[@inline] byte (a : image) i = Bigarray.Array1.unsafe_get a i
let[@inline] set_byte (a : image) i c = Bigarray.Array1.unsafe_set a i c

(* Range copies between images and buffers, a word at a time and then
   the tail byte by byte.  Callers check the ranges. *)
let blit_to_bytes src so dst d len =
  let w = len land lnot 7 in
  for i = 0 to (w / 8) - 1 do
    bytes_set64 dst (d + (8 * i)) (get64 src (so + (8 * i)))
  done;
  for i = w to len - 1 do
    Bytes.unsafe_set dst (d + i) (byte src (so + i))
  done

let blit_from_bytes src so dst d len =
  let w = len land lnot 7 in
  for i = 0 to (w / 8) - 1 do
    set64 dst (d + (8 * i)) (bytes_get64 src (so + (8 * i)))
  done;
  for i = w to len - 1 do
    set_byte dst (d + i) (Bytes.unsafe_get src (so + i))
  done

(* Overlap-safe: a forward copy when the destination starts at or below
   the source, a backward one otherwise. *)
let blit_image src so dst d len =
  let w = len land lnot 7 in
  if src != dst || d <= so then begin
    for i = 0 to (w / 8) - 1 do
      set64 dst (d + (8 * i)) (get64 src (so + (8 * i)))
    done;
    for i = w to len - 1 do
      set_byte dst (d + i) (byte src (so + i))
    done
  end
  else begin
    for i = len - 1 downto w do
      set_byte dst (d + i) (byte src (so + i))
    done;
    for i = (w / 8) - 1 downto 0 do
      set64 dst (d + (8 * i)) (get64 src (so + (8 * i)))
    done
  end

let read_u8 t off =
  load t off 1 "read_u8";
  Char.code (byte t.view off)

let read_u32 t off =
  load t off 4 "read_u32";
  Int32.to_int (le32 (get32 t.view off)) land 0xFFFFFFFF

let read_u64 t off =
  load t off 8 "read_u64";
  le64 (get64 t.view off)

let read_int t off =
  load t off 8 "read_int";
  Int64.to_int (le64 (get64 t.view off))

let read_bytes t off len =
  load t off len "read_bytes";
  let b = Bytes.create len in
  blit_to_bytes t.view off b 0 len;
  b

let read_string t off len = Bytes.unsafe_to_string (read_bytes t off len)

let read_into t off buf len =
  if len > Bytes.length buf then invalid_arg "Device.read_into: buffer too small";
  if len > 0 && PL.line_of off <> PL.line_of (off + len - 1) then
    invalid_arg "Device.read_into: range crosses a line";
  load t off len "read_into";
  blit_to_bytes t.view off buf 0 len

let crc32_fold t crc off len =
  load t off len "crc32_fold";
  let crc = ref crc and view = t.view in
  for i = off to off + len - 1 do
    crc := Crc32.update !crc (Char.code (byte view i))
  done;
  !crc

(* {1 Stores} *)

let write_u8 t off v =
  store t off 1 "write_u8";
  set_byte t.view off (Char.unsafe_chr (v land 0xFF));
  stored t off 1

let write_u32 t off v =
  store t off 4 "write_u32";
  set32 t.view off (le32 (Int32.of_int v));
  stored t off 4

let write_u64 t off v =
  store t off 8 "write_u64";
  set64 t.view off (le64 v);
  stored t off 8

let write_int t off v =
  store t off 8 "write_int";
  set64 t.view off (le64 (Int64.of_int v));
  stored t off 8

(* Ranged stores of zero bytes are checked but not counted. *)
let write_bytes t off b =
  let len = Bytes.length b in
  access t off len "write_bytes";
  if len > 0 then begin
    Atomic.incr t.stores;
    blit_from_bytes b 0 t.view off len;
    stored t off len
  end

let write_string t off s =
  let len = String.length s in
  access t off len "write_string";
  if len > 0 then begin
    Atomic.incr t.stores;
    blit_from_bytes (Bytes.unsafe_of_string s) 0 t.view off len;
    stored t off len
  end

let fill t off len c =
  access t off len "fill";
  if len > 0 then begin
    Atomic.incr t.stores;
    let w = len land lnot 7 and word = Int64.mul 0x0101010101010101L (Int64.of_int (Char.code c)) in
    for i = 0 to (w / 8) - 1 do
      set64 t.view (off + (8 * i)) word
    done;
    for i = w to len - 1 do
      set_byte t.view (off + i) c
    done;
    stored t off len
  end

let copy_within t ~src ~dst ~len =
  access t src len "copy_within(src)";
  check_range t dst len "copy_within(dst)";
  if len > 0 then begin
    Atomic.incr t.loads;
    Atomic.incr t.stores;
    blit_image t.view src t.view dst len;
    stored t dst len
  end

(* {1 Persist points and crash scheduling} *)

(* Replace the survival RNG; used by the failure injector to sample
   several WPQ-survival outcomes at the same crash point. *)
let reseed t seed =
  Mutex.lock t.lock;
  t.rng <- Random.State.make [| seed |];
  Mutex.unlock t.lock

let set_crash_countdown t n =
  Mutex.lock t.lock;
  t.crash_countdown <- n;
  Mutex.unlock t.lock

let set_torn_write_prob t p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Device.set_torn_write_prob: probability outside [0, 1]";
  Mutex.lock t.lock;
  t.torn_write_prob <- p;
  Mutex.unlock t.lock

let torn_write_prob t = t.torn_write_prob

let persist_points t = Atomic.get t.persist_pts

(* Must be called with [t.lock] held.  Counts a persist point and raises
   if the scheduled crash lands on it; the caller's operation must not have
   taken effect yet. *)
let persist_point_locked t =
  Atomic.incr t.persist_pts;
  if t.crash_countdown > 0 then begin
    t.crash_countdown <- t.crash_countdown - 1;
    if t.crash_countdown = 0 then begin
      t.crashed <- true;
      Mutex.unlock t.lock;
      raise Crashed
    end
  end

(* Snapshot line [l] into WPQ slot [i]: a re-flushed [Wpq_dirty] line
   overwrites its own slot, a newly queued one takes the next. *)
let snapshot_line t l i =
  blit_to_bytes t.view (PL.line_start l) t.wpq_snaps (i * line_size) line_size

let wpq_slot t l =
  let i = ref (t.wpq_len - 1) in
  while t.wpq_lines.(!i) <> l do decr i done;
  !i

let wpq_push t l =
  let n = t.wpq_len in
  if n = Array.length t.wpq_lines then begin
    let lines = Array.make (2 * n) 0 and snaps = Bytes.create (2 * n * line_size) in
    Array.blit t.wpq_lines 0 lines 0 n;
    Bytes.blit t.wpq_snaps 0 snaps 0 (n * line_size);
    t.wpq_lines <- lines;
    t.wpq_snaps <- snaps
  end;
  t.wpq_lines.(n) <- l;
  t.wpq_len <- n + 1;
  n

let flush t off len =
  check_alive t;
  check_range t off len "flush";
  if len > 0 then begin
    Mutex.lock t.lock;
    persist_point_locked t;
    Atomic.incr t.flush_calls;
    let first = PL.line_of off and last = PL.line_of (off + len - 1) in
    for l = first to last do
      (* [Persist_line.flush]: Dirty and Wpq_dirty -> Wpq.  [dirty] is
         cleared before the snapshot, with the counter's atomic add in
         between, so a racing store either lands in the snapshot or
         marks the line again. *)
      let dirty = is_set t.dirty l in
      if dirty then Bytes.unsafe_set t.dirty l '\000';
      Atomic.incr t.flushes;
      if dirty then begin
        snapshot_line t l (if is_set t.queued l then wpq_slot t l else wpq_push t l);
        Bytes.unsafe_set t.queued l '\001'
      end
    done;
    Mutex.unlock t.lock;
    if Pr.on () then begin
      let m = t.latency and lines = last - first + 1 in
      let dur_ns =
        m.Latency.flush_ns +. (float_of_int (lines - 1) *. m.Latency.flush_bulk_ns)
      in
      Pr.emit (Pr.Flush { dev = t.id; off; len; ns = simulated_ns t; lines; dur_ns })
    end
  end

(* A fence drains the WPQ in place, in flush order: every queued line
   is distinct, so the order cannot change the durable image. *)
let fence t =
  check_alive t;
  Mutex.lock t.lock;
  persist_point_locked t;
  Atomic.incr t.fences;
  let lines = t.wpq_len in
  for i = 0 to lines - 1 do
    let l = t.wpq_lines.(i) in
    blit_from_bytes t.wpq_snaps (i * line_size) t.durable (PL.line_start l) line_size;
    (* [Persist_line.drain]: Wpq -> Clean, Wpq_dirty -> Dirty *)
    Bytes.unsafe_set t.queued l '\000'
  done;
  ignore (Atomic.fetch_and_add t.fence_lines lines);
  t.wpq_len <- 0;
  Mutex.unlock t.lock;
  if Pr.on () then begin
    let m = t.latency in
    let dur_ns =
      m.Latency.fence_base_ns +. (float_of_int lines *. m.Latency.fence_per_line_ns)
    in
    Pr.emit (Pr.Fence { dev = t.id; ns = simulated_ns t; lines; dur_ns })
  end

let persist t off len =
  flush t off len;
  fence t

let power_cycle t =
  Mutex.lock t.lock;
  (* Lines sitting in the WPQ at power failure may or may not have reached
     media; decide each one independently.  With a torn-write probability
     set, a line's write-back can additionally be interrupted mid-line:
     media guarantees 8-byte atomicity only, so each u64 word of the line
     independently lands new or stays old. *)
  let maybe_drain i =
    let off = PL.line_start t.wpq_lines.(i) and snap = i * line_size in
    if t.torn_write_prob > 0.0 && Random.State.float t.rng 1.0 < t.torn_write_prob
    then begin
      Atomic.incr t.torn_lines;
      for w = 0 to (line_size / 8) - 1 do
        if Random.State.bool t.rng then
          set64 t.durable (off + (8 * w)) (bytes_get64 t.wpq_snaps (snap + (8 * w)))
      done
    end
    else if Random.State.bool t.rng then
      blit_from_bytes t.wpq_snaps snap t.durable off line_size
  in
  (* Ascending line order, not flush order: the survival RNG's draws then
     depend only on which lines are queued, so torn-write injection
     sweeps are bit-reproducible for a given seed. *)
  let order = Array.init t.wpq_len Fun.id in
  Array.sort (fun a b -> compare t.wpq_lines.(a) t.wpq_lines.(b)) order;
  Array.iter maybe_drain order;
  t.wpq_len <- 0;
  (* A Clean line's view already equals its durable bytes (a fence
     drains the snapshot the view held, a store after that snapshot
     leaves the line dirty, and [corrupt_line] rots both), so only the
     other lines are restored.  The flags are scanned a word of eight
     lines at a time. *)
  let restore l =
    if is_set t.dirty l || is_set t.queued l then begin
      blit_image t.durable (PL.line_start l) t.view (PL.line_start l) line_size;
      Bytes.unsafe_set t.dirty l '\000';
      Bytes.unsafe_set t.queued l '\000'
    end
  in
  let words = t.nlines / 8 in
  for i = 0 to words - 1 do
    if Int64.logor (bytes_get64 t.dirty (8 * i)) (bytes_get64 t.queued (8 * i)) <> 0L
    then
      for l = 8 * i to (8 * i) + 7 do
        restore l
      done
  done;
  for l = 8 * words to t.nlines - 1 do
    restore l
  done;
  t.crashed <- false;
  (* The crash countdown is a harness injection knob, not device state:
     it survives the power cycle so a test can arm a crash that fires
     inside the recovery the cycle triggers.  (After a fired crash it is
     already 0, so ordinary crash-and-reopen sequences are unaffected.) *)
  Mutex.unlock t.lock;
  if Pr.on () then Pr.emit (Pr.Power_cycle { dev = t.id })

(* {1 Media corruption (bit rot)} *)

(* Flip one RNG-chosen bit of the durable byte at [off] — a scrub-visible
   media fault, below the cache.  The volatile view only reflects the rot
   when the containing line holds no cached store (a dirty or write-pending
   line masks the media until its next write-back). *)
let corrupt_line t off =
  check_range t off 1 "corrupt_line";
  Mutex.lock t.lock;
  let bit = 1 lsl Random.State.int t.rng 8 in
  let flipped = Char.chr (Char.code (byte t.durable off) lxor bit) in
  set_byte t.durable off flipped;
  (* a Clean line holds no cached store: nothing is dirty or queued *)
  let l = PL.line_of off in
  if not (is_set t.dirty l || is_set t.queued l) then set_byte t.view off flipped;
  Atomic.incr t.corrupted_lines;
  Mutex.unlock t.lock

(* {1 File backing} *)

let magic = "CORUNDUM-PMEM-V1"
let chunk = 1 lsl 16 (* file I/O buffer *)

let save t =
  match t.path with
  | None -> invalid_arg "Device.save: device has no backing path"
  | Some path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc magic;
          let hdr = Bytes.create 8 in
          Bytes.set_int64_le hdr 0 (Int64.of_int t.size);
          output_bytes oc hdr;
          let buf = Bytes.create chunk in
          let rec go off =
            if off < t.size then begin
              let n = min chunk (t.size - off) in
              blit_to_bytes t.durable off buf 0 n;
              output oc buf 0 n;
              go (off + n)
            end
          in
          go 0)

let load ?(latency = Latency.zero) ?(seed = 0xC0FFEE) path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let m = really_input_string ic (String.length magic) in
      if not (String.equal m magic) then
        invalid_arg (Printf.sprintf "Device.load: %s is not a pmem image" path);
      let hdr = Bytes.create 8 in
      really_input ic hdr 0 8;
      let size = Int64.to_int (Bytes.get_int64_le hdr 0) in
      let t = create ~latency ~seed ~path ~size () in
      (* Zero words are skipped, so the image's zero pages stay unmapped. *)
      let buf = Bytes.create chunk in
      let rec go off =
        if off < size then begin
          let n = min chunk (size - off) in
          really_input ic buf 0 n;
          let w = n land lnot 7 in
          for i = 0 to (w / 8) - 1 do
            let word = bytes_get64 buf (8 * i) in
            if word <> 0L then begin
              set64 t.durable (off + (8 * i)) word;
              set64 t.view (off + (8 * i)) word
            end
          done;
          blit_from_bytes buf w t.durable (off + w) (n - w);
          blit_from_bytes buf w t.view (off + w) (n - w);
          go (off + n)
        end
      in
      go 0;
      t)
