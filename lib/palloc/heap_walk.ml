type block = { off : int; size : int }

let live_blocks buddy =
  let table = Buddy.table buddy in
  let acc = ref [] in
  Alloc_table.iter_allocated table (fun ~idx ~order ->
      acc :=
        {
          off = Alloc_table.offset_of_index table idx;
          size = Buddy.size_of_order order;
        }
        :: !acc);
  List.rev !acc

let live_count buddy =
  let n = ref 0 in
  Alloc_table.iter_allocated (Buddy.table buddy) (fun ~idx:_ ~order:_ -> incr n);
  !n

let live_bytes buddy =
  let n = ref 0 in
  Alloc_table.iter_allocated (Buddy.table buddy) (fun ~idx:_ ~order ->
      n := !n + Buddy.size_of_order order);
  !n

type report = {
  blocks : int;
  bytes_used : int;
  bytes_free : int;
  largest_free : int;
  fragmentation : float;
}

let report buddy =
  let largest =
    Buddy.fold_free buddy ~init:0 ~f:(fun acc ~idx:_ ~order ->
        max acc (Buddy.size_of_order order))
  in
  let free = Buddy.free_bytes buddy in
  {
    blocks = live_count buddy;
    bytes_used = Buddy.used_bytes buddy;
    bytes_free = free;
    largest_free = largest;
    fragmentation =
      (if free = 0 then 0.0 else 1.0 -. (float_of_int largest /. float_of_int free));
  }

(* The allocated and free blocks, sorted by index as [(idx lsl 6) lor
   order], must tile [0, nblocks): one sweep with the end reached so
   far finds the lowest hole, overlap or bad block, in
   O((live + free) log) time and no per-block state. *)
let check buddy =
  let table = Buddy.table buddy in
  let nblocks = Alloc_table.nblocks table in
  let blocks = ref [] in
  Alloc_table.iter_allocated table (fun ~idx ~order ->
      blocks := ((idx lsl 6) lor order) :: !blocks);
  let blocks =
    Buddy.fold_free buddy ~init:!blocks ~f:(fun acc ~idx ~order ->
        ((idx lsl 6) lor order) :: acc)
  in
  let hole i = Error (Printf.sprintf "index %d is neither free nor allocated" i) in
  let rec sweep reach = function
    | [] -> if reach < nblocks then hole reach else Ok ()
    | b :: rest ->
        let idx = b asr 6 and order = b land 63 in
        let len = 1 lsl order in
        if idx > reach then hole reach
        else if idx land (len - 1) <> 0 then
          Error (Printf.sprintf "block %d at order %d is misaligned" idx order)
        else if idx + len > nblocks then
          Error (Printf.sprintf "block %d at order %d overflows the heap" idx order)
        else if idx < reach then Error (Printf.sprintf "blocks overlap at index %d" idx)
        else sweep (idx + len) rest
  in
  sweep 0 (List.sort Int.compare blocks)
