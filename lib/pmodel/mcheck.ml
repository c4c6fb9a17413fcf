(* The crash-state explorer: one driver for every model family.

   A family ({!Mjournal} with {!Mrecovery}, {!Mcow}) describes one
   persistence protocol: its word layout and values, its bounded
   programs, their expansion into persist-granular schedules, a
   step-for-step mirror of its recovery, and what a recovered image must
   look like.  [Make] turns it into a checker over the {!Mstate}
   machine.  For every (config, program) pair the checker expands the
   writer schedule, crashes it before every persist point, enumerates
   EVERY torn-word outcome of the in-flight line set (all subsets of the
   write-pending queue), runs modeled recovery on each distinct durable
   image, and asserts durable linearizability:

   - I-ATOMIC: the recovered state equals SOME transactional
     composition (each transaction fully applied or fully rolled back);
   - I-COMMITTED-DURABLE: a transaction past its durable commit is
     applied;
   - I-UNCOMMITTED-ROLLED-BACK: a transaction that never reached its
     commit point is rolled back (between the commit point and the
     retirement both outcomes are legal: committed-but-unacknowledged);
   - I-TABLE-LIVENESS: allocation-table codes (and, for CoW, the root
     word) agree with the chosen composition;
   - the family's quiescence invariant (I-QUIESCENT-LOG,
     I-QUIESCENT-INTENT): recovery leaves no log residue behind;
   - I-IDEMPOTENT-RECOVERY: running recovery again changes nothing.

   Crashes at persist points INSIDE recovery are enumerated too
   (depth 1), each followed by a full re-recovery.  The crash-free end
   state is checked as well, recovered first when the family leaves an
   unfenced tail in flight at the end of a run.

   A violation becomes a counterexample whose repro spec [replay]
   re-runs: VARIANT:PREFIX:PROG:POINT:MASK[:RPOINT:RMASK], where PREFIX
   is the family's config ([NSLOTS:SPLIT] for the journal, [cow] for
   CoW) and POINT -1 names the crash-free end state. *)

module Ms = Mstate

(* {1 Schedule steps} *)

type marker = M_start of int | M_commit_point of int | M_retired of int

type 'v act =
  | St of int * 'v
  | Fl of int list  (* line-granular flush (the real primitive) *)
  | Flw of int list  (* word-granular flush (fault variants only) *)
  | Fence
  | Mark of marker

type 'v step = { act : 'v act; lbl : string }

let is_persist_point s =
  match s.act with Fl _ | Flw _ | Fence -> true | St _ | Mark _ -> false

(* {1 Transaction status and outcomes} *)

type status = NotStarted | InFlight | Window | Retired
type outcome = Applied | Rolled_back

(* Every outcome assignment [choices_of i statuses.(i)] allows. *)
let compositions choices_of statuses =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (List.concat_map
           (fun o -> List.map (fun tl -> o :: tl) acc)
           (choices_of i statuses.(i)))
  in
  List.map Array.of_list (go (Array.length statuses - 1) [ [] ])

let pp_outcomes ppf sigma =
  Array.iteri
    (fun i o ->
      Format.fprintf ppf "%stx%d:%s"
        (if i > 0 then " " else "")
        (i + 1)
        (match o with Applied -> "applied" | Rolled_back -> "rolled-back"))
    sigma

(* {1 Families} *)

module type FAMILY = sig
  val name : string  (* stats label and JSON key *)
  val variants : Mvariant.t list  (* the protocol variants it runs *)
  val heading : string  (* counterexample heading qualifier *)

  type cfg

  val cfgs : cfg list
  val spec_prefix : cfg -> string

  val parse_prefix : string list -> (cfg * string list) option
  (* the config fields a repro spec starts with (after the variant) *)

  type value

  val blank : value  (* a formatted word; left out of printed images *)
  val name_width : int
  val word_name : cfg -> int -> string
  val pp_value : Format.formatter -> value -> unit

  type program

  val programs : cfg -> program list
  val describe : cfg -> program -> string
  val tx_names : program -> string list
  val initial_state : cfg -> program -> value array
  val schedule : cfg -> Mvariant.t -> program -> value step list
  val recover : cfg -> Mvariant.t -> Ms.clock -> value Ms.mem -> unit

  val recover_end_state : bool
  (* whether the crash-free end state goes through recovery before it is
     checked (an unfenced tail may legitimately still be in flight) *)

  val allowed_outcomes : program -> int -> status -> outcome list
  (* the legal outcomes of transaction [i] at a crash with that status *)

  val matches :
    cfg -> program -> outcome array -> value array -> heap_only:bool -> bool
  (* the image realizes the composition (heap words only, or with the
     table and root words too); free blocks' heap words are dead *)

  val quiescent : cfg -> value array -> (unit, string * string) result
  val liveness_detail : string
end

(* {1 Statistics, reports, counterexamples} *)

type stats = {
  mutable programs : int;
  mutable crash_points : int;
  mutable crash_branches : int;
  mutable distinct_states : int;
  mutable recovery_runs : int;
  mutable nested_points : int;
  mutable nested_branches : int;
}

let fresh_stats () =
  {
    programs = 0;
    crash_points = 0;
    crash_branches = 0;
    distinct_states = 0;
    recovery_runs = 0;
    nested_points = 0;
    nested_branches = 0;
  }

let stats_fields s =
  [
    ("programs", s.programs);
    ("crash_points", s.crash_points);
    ("crash_branches", s.crash_branches);
    ("distinct_states", s.distinct_states);
    ("recovery_runs", s.recovery_runs);
    ("nested_points", s.nested_points);
    ("nested_branches", s.nested_branches);
  ]

type ('cfg, 'prog, 'v) cex = {
  variant : Mvariant.t;
  cfg : 'cfg;
  pidx : int;  (* index into the family's [programs cfg] *)
  prog : 'prog;
  point : int;  (* writer persist point crashed before; -1 = crash-free *)
  mask : int;  (* which in-flight words landed *)
  nested : (int * int) option;
      (* recovery persist point crashed before, and its landed-word mask *)
  invariant : string;
  detail : string;
  crash : 'v array;  (* the durable image recovery was given *)
  recovered : 'v array;
}

type ('cfg, 'prog, 'v) report = {
  variant : Mvariant.t;
  stats : stats;
  cex : ('cfg, 'prog, 'v) cex option;
}

module type S = sig
  type cfg
  type program
  type value
  type nonrec cex = (cfg, program, value) cex

  val name : string
  val variants : Mvariant.t list
  val run : ?nested:bool -> Mvariant.t -> (cfg, program, value) report
  val repro_string : cex -> string
  val pp_cex : Format.formatter -> cex -> unit

  val owns : string -> bool
  (* the spec carries this family's config prefix *)

  val replay : string -> (cex option, string) result
end

module Make (F : FAMILY) :
  S with type cfg = F.cfg and type program = F.program and type value = F.value =
struct
  type cfg = F.cfg
  type program = F.program
  type value = F.value
  type nonrec cex = (cfg, program, value) cex

  let name = F.name
  let variants = F.variants

  (* {2 Schedule execution} *)

  type run = {
    m : value Ms.mem;
    statuses : status array;
    crashed : bool;
    points : int;  (* persist points executed (= total on a full run) *)
  }

  let exec_schedule cfg prog sched ~stop_at =
    let m = Ms.boot (F.initial_state cfg prog) in
    let statuses = Array.make (List.length (F.tx_names prog)) NotStarted in
    let points = ref 0 in
    let rec go = function
      | [] -> false
      | s :: tl ->
          if is_persist_point s && !points = stop_at then true
          else begin
            if is_persist_point s then incr points;
            (match s.act with
            | St (w, v) -> Ms.store m w v
            | Fl ws -> Ms.flush_words m ws
            | Flw ws -> Ms.flush_words_only m ws
            | Fence -> Ms.fence m
            | Mark (M_start u) -> statuses.(u - 1) <- InFlight
            | Mark (M_commit_point u) -> statuses.(u - 1) <- Window
            | Mark (M_retired u) -> statuses.(u - 1) <- Retired);
            go tl
          end
    in
    let crashed = go sched in
    { m; statuses; crashed; points = !points }

  (* {2 The check} *)

  let recovered cfg variant st =
    let m = Ms.boot st in
    F.recover cfg variant (Ms.no_crash ()) m;
    Ms.snapshot_durable m

  (* [Error (invariant, detail)] if the recovered durable image [st]
     violates durable linearizability for the given statuses. *)
  let check_recovered cfg variant prog statuses st =
    let matches ~heap_only sigma = F.matches cfg prog sigma st ~heap_only in
    let legal = compositions (F.allowed_outcomes prog) statuses in
    if List.exists (matches ~heap_only:false) legal then
      (* a legal composition; now the log must be quiescent and recovery
         idempotent *)
      match F.quiescent cfg st with
      | Error _ as e -> e
      | Ok () ->
          if recovered cfg variant st <> st then
            Error
              ( "I-IDEMPOTENT-RECOVERY",
                "re-running recovery changed the durable image" )
          else Ok ()
    else
      (* not legal — classify.  Relax to ALL compositions first: if some
         composition matches, the defect is an outcome forced the wrong
         way; otherwise the state is not transactional at all. *)
      let relaxed = compositions (fun _ _ -> [ Applied; Rolled_back ]) statuses in
      match List.find_opt (matches ~heap_only:false) relaxed with
      | Some sigma ->
          let detail =
            Format.asprintf "state realizes [%a] which the statuses forbid"
              pp_outcomes sigma
          in
          let forced i o =
            o = Applied && F.allowed_outcomes prog i statuses.(i) = [ Rolled_back ]
          in
          if Array.exists Fun.id (Array.mapi forced sigma) then
            Error ("I-UNCOMMITTED-ROLLED-BACK", detail)
          else Error ("I-COMMITTED-DURABLE", detail)
      | None ->
          if List.exists (matches ~heap_only:true) relaxed then
            Error ("I-TABLE-LIVENESS", F.liveness_detail)
          else
            Error
              ( "I-ATOMIC",
                "state matches no transactional composition (partial effects)"
              )

  (* {2 The explorer} *)

  exception Found of cex

  (* Run modeled recovery to completion on [st] (unless [recover] is
     false) and check the result. *)
  let recover_and_check ?(recover = true) stats variant cfg pidx prog statuses
      st ~point ~mask ~nested =
    let final =
      if recover then begin
        stats.recovery_runs <- stats.recovery_runs + 1;
        recovered cfg variant st
      end
      else st
    in
    match check_recovered cfg variant prog statuses final with
    | Ok () -> ()
    | Error (invariant, detail) ->
        raise
          (Found
             {
               variant;
               cfg;
               pidx;
               prog;
               point;
               mask;
               nested;
               invariant;
               detail;
               crash = st;
               recovered = final;
             })

  (* The crash-free run: natural outcomes, quiescent log. *)
  let check_end_state stats variant cfg pidx prog full =
    recover_and_check ~recover:F.recover_end_state stats variant cfg pidx prog
      full.statuses (Ms.snapshot_durable full.m) ~point:(-1) ~mask:0
      ~nested:None

  (* The machine of a recovery crashed before its persist point [rk]. *)
  let crash_recovery cfg variant st rk =
    let m = Ms.boot st in
    match F.recover cfg variant (Ms.crash_at rk) m with
    | () -> None
    | exception Ms.Crash_now -> Some m

  (* [f mask image] for every subset of [m]'s in-flight words. *)
  let branches m f =
    let n = List.length (Ms.wpq_words m) in
    assert (n <= Ms.max_branch_words);
    for mask = 0 to (1 lsl n) - 1 do
      f mask (Ms.crash_state m ~mask)
    done

  let check_program stats variant cfg pidx prog ~nested =
    let sched = F.schedule cfg variant prog in
    stats.programs <- stats.programs + 1;
    let full = exec_schedule cfg prog sched ~stop_at:(-1) in
    assert (not full.crashed);
    check_end_state stats variant cfg pidx prog full;
    let seen = Hashtbl.create 1024 in
    let fresh st statuses =
      let key = Marshal.to_string (st, statuses) [ Marshal.No_sharing ] in
      let fresh = not (Hashtbl.mem seen key) in
      if fresh then begin
        Hashtbl.add seen key ();
        stats.distinct_states <- stats.distinct_states + 1
      end;
      fresh
    in
    for k = 0 to full.points - 1 do
      let r = exec_schedule cfg prog sched ~stop_at:k in
      assert r.crashed;
      stats.crash_points <- stats.crash_points + 1;
      branches r.m (fun mask st ->
          stats.crash_branches <- stats.crash_branches + 1;
          if fresh st r.statuses then begin
            recover_and_check stats variant cfg pidx prog r.statuses st
              ~point:k ~mask ~nested:None;
            if nested then begin
              (* crash recovery itself at each of ITS persist points *)
              let clk = Ms.no_crash () in
              F.recover cfg variant clk (Ms.boot st);
              stats.recovery_runs <- stats.recovery_runs + 1;
              for rk = 0 to clk.Ms.points - 1 do
                stats.nested_points <- stats.nested_points + 1;
                branches (Option.get (crash_recovery cfg variant st rk))
                  (fun rmask st2 ->
                    stats.nested_branches <- stats.nested_branches + 1;
                    if fresh st2 r.statuses then
                      recover_and_check stats variant cfg pidx prog r.statuses
                        st2 ~point:k ~mask ~nested:(Some (rk, rmask)))
              done
            end
          end)
    done

  let run ?(nested = true) variant =
    let stats = fresh_stats () in
    try
      List.iter
        (fun cfg ->
          List.iteri
            (fun pidx prog -> check_program stats variant cfg pidx prog ~nested)
            (F.programs cfg))
        F.cfgs;
      { variant; stats; cex = None }
    with Found c -> { variant; stats; cex = Some c }

  (* {2 Counterexample printing} *)

  let pp_step cfg ppf s =
    let names ws = String.concat "," (List.map (F.word_name cfg) ws) in
    (match s.act with
    | St (w, v) ->
        Format.fprintf ppf "st   %-*s <- %a" F.name_width (F.word_name cfg w)
          F.pp_value v
    | Fl ws -> Format.fprintf ppf "fl   %s" (names ws)
    | Flw ws -> Format.fprintf ppf "flw  %s" (names ws)
    | Fence -> Format.fprintf ppf "fence"
    | Mark (M_start u) -> Format.fprintf ppf "-- tx%d begins" u
    | Mark (M_commit_point u) -> Format.fprintf ppf "-- tx%d commit point" u
    | Mark (M_retired u) -> Format.fprintf ppf "-- tx%d retired" u);
    if s.lbl <> "" then Format.fprintf ppf "   [%s]" s.lbl

  let pp_schedule cfg ppf sched =
    let pt = ref 0 in
    List.iter
      (fun s ->
        if is_persist_point s then begin
          Format.fprintf ppf "  p%-3d %a@." !pt (pp_step cfg) s;
          incr pt
        end
        else Format.fprintf ppf "       %a@." (pp_step cfg) s)
      sched

  let pp_state cfg ppf st =
    Array.iteri
      (fun w v ->
        if v <> F.blank then
          Format.fprintf ppf "  %-*s = %a@." F.name_width (F.word_name cfg w)
            F.pp_value v)
      st

  let repro_string (c : cex) =
    let base =
      Printf.sprintf "%s:%s:%d:%d:%d" (Mvariant.name c.variant)
        (F.spec_prefix c.cfg) c.pidx c.point c.mask
    in
    match c.nested with
    | Some (rk, rm) -> Printf.sprintf "%s:%d:%d" base rk rm
    | None -> base

  let pp_cex ppf (c : cex) =
    Format.fprintf ppf "counterexample (%svariant %s):@." F.heading
      (Mvariant.name c.variant);
    Format.fprintf ppf "  program   %s@." (F.describe c.cfg c.prog);
    if c.point < 0 then Format.fprintf ppf "  crash     none (crash-free run)@."
    else
      Format.fprintf ppf
        "  crash     before writer persist point p%d, landed-word mask 0x%x@."
        c.point c.mask;
    Option.iter
      (fun (rk, rm) ->
        Format.fprintf ppf
          "  nested    recovery crashed before its persist point %d, mask 0x%x@."
          rk rm)
      c.nested;
    Format.fprintf ppf "  violates  %s: %s@." c.invariant c.detail;
    Format.fprintf ppf "  tx status %s@."
      (String.concat ", "
         (List.mapi
            (fun i name -> Printf.sprintf "tx%d %s" (i + 1) name)
            (F.tx_names c.prog)));
    Format.fprintf ppf "  replay    --repro '%s'@." (repro_string c);
    Format.fprintf ppf "  crash image:@.%a" (pp_state c.cfg) c.crash;
    Format.fprintf ppf "  recovered image:@.%a" (pp_state c.cfg) c.recovered;
    Format.fprintf ppf "  persist schedule:@.%a" (pp_schedule c.cfg)
      (F.schedule c.cfg c.variant c.prog)

  (* {2 Replay} *)

  let split spec =
    match String.split_on_char ':' spec with
    | vname :: fields ->
        Option.map (fun (cfg, rest) -> (vname, cfg, rest)) (F.parse_prefix fields)
    | [] -> None

  let owns spec = split spec <> None

  (* Re-run one branch from its repro spec through the very check the
     explorer ran on it. *)
  let replay spec =
    let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let parsed =
      match split spec with
      | None -> None
      | Some (vname, cfg, rest) -> (
          match List.map int_of_string rest with
          | [ pidx; point; mask ] -> Some (vname, cfg, pidx, point, mask, None)
          | [ pidx; point; mask; rk; rm ] ->
              Some (vname, cfg, pidx, point, mask, Some (rk, rm))
          | _ -> None
          | exception Failure _ -> None)
    in
    match parsed with
    | None -> fail "malformed repro spec %S" spec
    | Some (vname, cfg, pidx, point, mask, nested) -> (
        let progs = F.programs cfg in
        match Mvariant.of_name vname with
        | None -> fail "unknown variant %S" vname
        | Some _ when pidx < 0 || pidx >= List.length progs ->
            fail "program index %d out of range" pidx
        | Some variant -> (
            let prog = List.nth progs pidx in
            let r =
              exec_schedule cfg prog (F.schedule cfg variant prog) ~stop_at:point
            in
            let stats = fresh_stats () in
            let found check =
              match check () with () -> Ok None | exception Found c -> Ok (Some c)
            in
            let check st () =
              recover_and_check stats variant cfg pidx prog r.statuses st ~point
                ~mask ~nested
            in
            if point = -1 then
              if mask <> 0 || nested <> None then
                fail "the crash-free point -1 takes mask 0 and no nested crash"
              else found (fun () -> check_end_state stats variant cfg pidx prog r)
            else if not r.crashed then fail "persist point %d out of range" point
            else
              let st = Ms.crash_state r.m ~mask in
              match nested with
              | None -> found (check st)
              | Some (rk, rmask) -> (
                  match crash_recovery cfg variant st rk with
                  | None -> fail "recovery point %d out of range" rk
                  | Some rm -> found (check (Ms.crash_state rm ~mask:rmask)))))
end
