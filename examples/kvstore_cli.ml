(* A persistent key-value store with a command-line interface — the kind
   of small application the paper's KVStore microbenchmark models.  Keys
   and values are strings; the store survives process restarts through
   its pool file.

     dune exec examples/kvstore_cli.exe -- put lang ocaml
     dune exec examples/kvstore_cli.exe -- put paper corundum
     dune exec examples/kvstore_cli.exe -- get lang
     dune exec examples/kvstore_cli.exe -- list
     dune exec examples/kvstore_cli.exe -- del lang *)

open Corundum
module P = Pool.Make ()

(* Buckets of association chains: entry = (key, value, next). *)
type entry = {
  key : P.brand Pstring.t;
  value : P.brand Pstring.t;
  next : (link, P.brand) Prefcell.t;
}

and link = (entry, P.brand) Pbox.t option

let rec entry_ty_l : (entry, P.brand) Ptype.t Lazy.t =
  lazy
    (Ptype.record3 ~name:"kv-entry"
       ~inj:(fun key value next -> { key; value; next })
       ~proj:(fun e -> (e.key, e.value, e.next))
       (Pstring.ptype ()) (Pstring.ptype ())
       (Prefcell.ptype (Ptype.option (Pbox.ptype_rec entry_ty_l))))

let entry_ty = Lazy.force entry_ty_l
let link_ty = Ptype.option (Pbox.ptype_rec entry_ty_l)

let nbuckets = 64
let root_ty = Ptype.array nbuckets (Prefcell.ptype link_ty)

let bucket_of key = Hashtbl.hash key mod nbuckets

let find_entry buckets key =
  let rec go link =
    match Prefcell.borrow link with
    | None -> None
    | Some b ->
        let e = Pbox.get b in
        if String.equal (Pstring.get e.key) key then Some e else go e.next
  in
  go buckets.(bucket_of key)

(* Insert a fresh binding at the bucket head; the caller removes any
   previous binding first (put = del + insert, atomically in one tx). *)
let insert buckets key value j =
  let cell = buckets.(bucket_of key) in
  let entry =
    Pbox.make ~ty:entry_ty
      {
        key = Pstring.make key j;
        value = Pstring.make value j;
        next = Prefcell.make ~ty:link_ty None;
      }
      j
  in
  let old = Prefcell.replace cell (Some entry) j in
  Prefcell.set (Pbox.get entry).next old j

let del buckets key j =
  let rec unlink link =
    match Prefcell.borrow link with
    | None -> false
    | Some b when String.equal (Pstring.get (Pbox.get b).key) key ->
        let succ = Prefcell.replace (Pbox.get b).next None j in
        Prefcell.set link succ j;
        true
    | Some b -> unlink (Pbox.get b).next
  in
  unlink buckets.(bucket_of key)

let iter buckets f =
  Array.iter
    (fun cell ->
      let rec go link =
        match Prefcell.borrow link with
        | None -> ()
        | Some b ->
            let e = Pbox.get b in
            f (Pstring.get e.key) (Pstring.get e.value);
            go e.next
      in
      go cell)
    buckets

(* Instrumentation flags ([--trace FILE], [--metrics FILE], [--psan],
   [--psan-json FILE]) are stripped first, so any command can run
   instrumented. *)
let instrument, argv = Harness.Instrument.strip (Array.to_list Sys.argv)

let run () =
  P.load_or_create "kvstore.pool";
  let root =
    P.root ~ty:root_ty
      ~init:(fun _ -> Array.init nbuckets (fun _ -> Prefcell.make ~ty:link_ty None))
      ()
  in
  let buckets = Pbox.get root in
  (match argv with
  | [ _; "put"; k; v ] ->
      P.transaction (fun j ->
          ignore (del buckets k j : bool) (* replace = delete + insert *);
          insert buckets k v j);
      Printf.printf "put %s\n" k
  | [ _; "get"; k ] -> (
      match find_entry buckets k with
      | Some e -> print_endline (Pstring.get e.value)
      | None ->
          prerr_endline "(not found)";
          exit 1)
  | [ _; "del"; k ] ->
      let existed = P.transaction (fun j -> del buckets k j) in
      if not existed then begin
        prerr_endline "(not found)";
        exit 1
      end
  | [ _; "list" ] -> iter buckets (fun k v -> Printf.printf "%s=%s\n" k v)
  | _ ->
      prerr_endline
        "usage: kvstore_cli [--trace FILE] [--metrics FILE] [--psan] \
         [--psan-json FILE] (put K V | get K | del K | list)";
      exit 2);
  P.close ()

let () =
  let (), clean = Harness.Instrument.run instrument run in
  if not clean then exit 1
