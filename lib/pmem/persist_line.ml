let line_size = 64
let line_shift = 6
let line_of off = off lsr line_shift
let line_start l = l lsl line_shift

type state = Clean | Dirty | Wpq | Wpq_dirty

let store = function Clean -> Dirty | Wpq -> Wpq_dirty | (Dirty | Wpq_dirty) as s -> s
let flush = function Dirty | Wpq_dirty -> Some Wpq | Clean | Wpq -> None
let drain = function Wpq -> Clean | Wpq_dirty -> Dirty | (Clean | Dirty) as s -> s
let pending = function Wpq | Wpq_dirty -> true | Clean | Dirty -> false

module Shadow = struct
  type line = {
    mutable st : state;
    mutable dirty_owners : int list;
    mutable pending_owners : int list;
  }

  type t = {
    lines : (int, line) Hashtbl.t; (* absent = Clean *)
    mutable queued : int list; (* pending lines, each once *)
  }

  let create () = { lines = Hashtbl.create 256; queued = [] }
  let state t l = match Hashtbl.find_opt t.lines l with Some ln -> ln.st | None -> Clean
  let add_owner who owners = if List.mem who owners then owners else who :: owners

  let store t ~who ~off ~len =
    if len > 0 then
      for l = line_of off to line_of (off + len - 1) do
        match Hashtbl.find_opt t.lines l with
        | None ->
            Hashtbl.replace t.lines l
              { st = store Clean; dirty_owners = [ who ]; pending_owners = [] }
        | Some ln ->
            ln.st <- store ln.st;
            ln.dirty_owners <- add_owner who ln.dirty_owners
      done

  let flush t ~off ~len =
    let newly = ref [] in
    if len > 0 then
      for l = line_of (off + len - 1) downto line_of off do
        match Hashtbl.find_opt t.lines l with
        | Some ln -> (
            match flush ln.st with
            | Some st ->
                if not (pending ln.st) then t.queued <- l :: t.queued;
                ln.st <- st;
                ln.pending_owners <-
                  List.fold_right add_owner ln.dirty_owners ln.pending_owners;
                ln.dirty_owners <- [];
                newly := l :: !newly
            | None -> ())
        | None -> ()
      done;
    !newly

  let pending_count t = List.length t.queued

  let fence t =
    let n = pending_count t in
    List.iter
      (fun l ->
        let ln = Hashtbl.find t.lines l in
        ln.st <- drain ln.st;
        ln.pending_owners <- [];
        if ln.st = Clean then Hashtbl.remove t.lines l)
      t.queued;
    t.queued <- [];
    n

  let owners f t l = match Hashtbl.find_opt t.lines l with Some ln -> f ln | None -> []
  let dirty_owners = owners (fun ln -> ln.dirty_owners)
  let pending_owners = owners (fun ln -> ln.pending_owners)

  let reset t =
    Hashtbl.reset t.lines;
    t.queued <- []
end
