(* The word machine: the one persist-state model every crash-model
   family ({!Mjournal}, {!Mcow}) runs on, and the crash clock their
   recovery mirrors tick.

   Memory is an array of WORDS (one word = one 8-byte atomic unit of the
   media), grouped into LINES of 8 words (one line = one 64-byte flush
   unit).  The machine mirrors {!Pmem.Device} exactly at that
   granularity:

   - a store updates the volatile [view] and dirties its line;
   - a flush snapshots every changed word of a dirty line into the
     write-pending queue [wpq];
   - a fence drains the whole [wpq] to [durable];
   - a crash keeps [durable] plus an arbitrary SUBSET of the pending
     words — each 8-byte word of an in-flight line lands independently
     (this is the union of the device's per-line survival and per-word
     torn-write outcomes, i.e. every torn-word outcome of the in-flight
     line set).

   The machine is polymorphic in the word value ['v]: each family stores
   structured values of its own, so checksums need no bit-level model —
   a sealed header records the exact body words its CRC covered, and
   verification is "every recorded word still reads back identically",
   precisely what a salted CRC certifies (modulo collisions, which the
   model ignores by construction). *)

let words_per_line = 8

type 'v mem = {
  durable : 'v array;
  view : 'v array;  (* what reads observe (durable + cached stores) *)
  line_dirty : bool array;
  wpq : (int, 'v) Hashtbl.t;  (* word -> flushed-but-unfenced snapshot *)
}

(* A durable image (a ['v array]) is the unit of crash-branch
   deduplication; [boot] powers the machine up on one. *)
let boot s =
  {
    durable = Array.copy s;
    view = Array.copy s;
    line_dirty =
      Array.make ((Array.length s + words_per_line - 1) / words_per_line) false;
    wpq = Hashtbl.create 16;
  }

let read m w = m.view.(w)

let store m w v =
  m.view.(w) <- v;
  m.line_dirty.(w / words_per_line) <- true

let enqueue m w =
  if m.view.(w) <> m.durable.(w) then Hashtbl.replace m.wpq w m.view.(w)
  else Hashtbl.remove m.wpq w

(* Flush the lines containing [ws]: whole-line capture, exactly like the
   device — every word of a dirty line is snapshotted, including words
   the caller did not mean to persist yet.  Words whose view equals
   durable are dropped from the queue (landing them is a no-op). *)
let flush_words m ws =
  let lines = List.sort_uniq compare (List.map (fun w -> w / words_per_line) ws) in
  List.iter
    (fun l ->
      if m.line_dirty.(l) then begin
        let lo = l * words_per_line in
        for w = lo to min (lo + words_per_line) (Array.length m.view) - 1 do
          enqueue m w
        done;
        m.line_dirty.(l) <- false
      end)
    lines

(* Word-granular flush: capture ONLY the listed words, leaving the rest
   of their (still dirty) lines out of the queue.  No correct protocol
   uses it — the journal's Term_before_body fault variant models an
   entry whose body lines are missing from the seal's flush range with
   it (the tiny geometry packs what would be distinct lines of a real
   slot into one). *)
let flush_words_only m ws = List.iter (enqueue m) ws

let fence m =
  Hashtbl.iter (fun w v -> m.durable.(w) <- v) m.wpq;
  Hashtbl.reset m.wpq

(* {1 Crash outcomes} *)

let wpq_words m =
  List.sort compare (Hashtbl.fold (fun w _ acc -> w :: acc) m.wpq [])

let max_branch_words = 16

(* The durable image if the crash lands exactly the words selected by
   [mask] (bit i = i-th word of [wpq_words], ascending). *)
let crash_state m ~mask =
  let d = Array.copy m.durable in
  List.iteri
    (fun i w -> if mask land (1 lsl i) <> 0 then d.(w) <- Hashtbl.find m.wpq w)
    (wpq_words m);
  d

let snapshot_durable m = Array.copy m.durable

(* {1 Crash clock}

   Modeled recovery ticks the clock before every flush and every fence —
   exactly the device's crash points — so the explorer can also crash
   recovery at each of ITS persist points and re-run it. *)

type clock = { mutable points : int; mutable stop_at : int }

exception Crash_now

let no_crash () = { points = 0; stop_at = -1 }
let crash_at k = { points = 0; stop_at = k }

let tick c =
  if c.stop_at >= 0 && c.points = c.stop_at then raise Crash_now;
  c.points <- c.points + 1

(* One clocked persist: flush [ws], then fence, each a crash point. *)
let persist clk m ws =
  tick clk;
  flush_words m ws;
  tick clk;
  fence m
