(* The model families the explorer runs, and which protocol variants
   each one runs: every seeded bug mutates exactly one family's
   protocol; the correct protocol runs in all of them. *)

module Journal = Mcheck.Make (struct
  include Mjournal

  let name = "journal"

  let variants =
    Mvariant.
      [
        Correct;
        Term_before_body;
        Truncate_before_clears;
        Trust_advisory;
        Partial_merge;
      ]

  let recover = Mrecovery.recover
  let quiescent = Mrecovery.quiescent
end)

module Cow = Mcheck.Make (struct
  include Mcow

  let name = "cow"
  let variants = Mvariant.[ Correct; Swap_before_flush ]
end)

type t = (module Mcheck.S)

let all : t list = [ (module Journal); (module Cow) ]

(* The families a variant runs in. *)
let running v = List.filter (fun (module F : Mcheck.S) -> List.mem v F.variants) all

(* The family whose config prefix a repro spec carries. *)
let of_spec spec = List.find_opt (fun (module F : Mcheck.S) -> F.owns spec) all
