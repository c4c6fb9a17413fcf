module J = Ptelemetry.Json

type rule = Upper of { rel : float; abs : float } | Lower | Band of float

let pass rule ~base cur =
  match rule with
  | Upper { rel; abs } -> cur <= (base *. (1.0 +. rel)) +. abs
  | Lower -> cur >= base
  | Band rel -> Float.abs (cur -. base) <= rel *. Float.max (Float.abs base) 1.0

let rule_to_string = function
  | Upper { rel; abs } ->
      "upper"
      ^ (if rel > 0.0 then Printf.sprintf "+%g%%" (100.0 *. rel) else "")
      ^ if abs > 0.0 then Printf.sprintf "+%g" abs else ""
  | Lower -> "lower"
  | Band rel -> Printf.sprintf "band%g%%" (100.0 *. rel)

type verdict = Ok | New | Regress | Missing
type row = { key : string; rule : rule; base : float option; cur : float option }

let verdict r =
  match (r.base, r.cur) with
  | None, _ -> New
  | Some _, None -> Missing
  | Some base, Some cur -> if pass r.rule ~base cur then Ok else Regress

let failed r = match verdict r with Regress | Missing -> true | Ok | New -> false

let num = function
  | None -> "-"
  | Some v when Float.is_integer v -> Printf.sprintf "%.0f" v
  | Some v -> Printf.sprintf "%.4f" v

let report ~gate rows =
  List.iter
    (fun r ->
      let v =
        match verdict r with
        | Ok -> "OK"
        | New -> "NEW"
        | Regress -> "REGRESS"
        | Missing -> "MISSING"
      in
      Printf.printf "%-7s %s %s %s (%s %s)\n" v gate r.key (num r.cur)
        (rule_to_string r.rule) (num r.base))
    rows;
  not (List.exists failed rows)

(* --- rows from JSON documents ------------------------------------------- *)

type metric = { path : string list; base_path : string list; rule : rule }

let metric ?base path rule =
  { path; base_path = Option.value base ~default:path; rule }

let elem_name i = function
  | J.Obj kvs -> (
      match List.find_map (fun (_, v) -> J.str v) kvs with
      | Some s -> s
      | None -> string_of_int i)
  | _ -> string_of_int i

(* The numeric leaves at [path], each with the names its "*"s matched. *)
let rec select path doc =
  let under name rest v = List.map (fun (c, x) -> (name :: c, x)) (select rest v) in
  match (path, doc) with
  | [], J.Num v -> [ ([], v) ]
  | [], _ -> []
  | "*" :: rest, J.Obj kvs -> List.concat_map (fun (k, v) -> under k rest v) kvs
  | "*" :: rest, J.List xs ->
      List.concat (List.mapi (fun i x -> under (elem_name i x) rest x) xs)
  | k :: rest, _ -> (
      match J.mem k doc with Some v -> select rest v | None -> [])

let rec fill path caps =
  match (path, caps) with
  | "*" :: rest, c :: caps -> c :: fill rest caps
  | k :: rest, caps -> k :: fill rest caps
  | [], _ -> []

let rows metrics ~base ~cur =
  List.concat_map
    (fun m ->
      let keyed path doc =
        List.map
          (fun (caps, v) -> (String.concat "/" (fill m.path caps), v))
          (select path doc)
      in
      let b = keyed m.base_path base and c = keyed m.path cur in
      let row key =
        { key; rule = m.rule; base = List.assoc_opt key b; cur = List.assoc_opt key c }
      in
      List.map (fun (k, _) -> row k) b
      @ List.filter_map
          (fun (k, _) -> if List.mem_assoc k b then None else Some (row k))
          c)
    metrics

let read path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | doc -> doc
  | exception (Sys_error msg | Failure msg) ->
      Printf.eprintf "gate: %s: %s\n" path msg;
      exit 2

let check ~gate metrics ~baseline cur =
  let rows = rows metrics ~base:(read baseline) ~cur in
  if not (List.exists (fun r -> r.base <> None) rows) then begin
    Printf.eprintf "%s gate: no baseline rows in %s\n" gate baseline;
    exit 2
  end;
  if not (report ~gate rows) then begin
    Printf.eprintf "%s gate: regression against %s\n" gate baseline;
    exit 1
  end

let files ?(flags = ("--json", "--baseline")) ~gate metrics ~current ~baseline =
  match (baseline, current) with
  | None, _ -> ()
  | Some _, None ->
      Printf.eprintf "%s requires %s FILE for the current run\n" (snd flags)
        (fst flags);
      exit 2
  | Some baseline, Some current -> check ~gate metrics ~baseline (read current)

(* --- the rule tables ----------------------------------------------------- *)

let bench =
  List.map
    (fun m -> metric [ "engines"; "*"; "ops"; "*"; m ] (Upper { rel = 0.10; abs = 0.01 }))
    [ "flushes_per_op"; "fences_per_op" ]

let pprof =
  List.map
    (fun m -> metric [ "engines"; "*"; "*"; m ] (Upper { rel = 0.0; abs = 0.01 }))
    [ "waste_flushes_per_op"; "waste_fences_per_op" ]

let openloop =
  List.map
    (fun p -> metric ("merged" :: p) (Band 0.10))
    [
      [ "throughput_ops_per_s" ];
      [ "response"; "p50" ];
      [ "response"; "p99" ];
      [ "response"; "p999" ];
      [ "service"; "p50" ];
      [ "service"; "p99" ];
    ]

let openloop_shared =
  List.map
    (fun m ->
      metric ~base:[ "shared"; "max_" ^ m ] [ "shared"; m ] (Upper { rel = 0.0; abs = 0.0 }))
    [ "fences_per_op"; "flushes_per_op" ]

let recovery_p99 = Upper { rel = 0.0; abs = 0.0 }

let pmodel =
  [ metric [ "crash_branches" ] Lower; metric [ "families"; "*"; "crash_branches" ] Lower ]
