(** Pool image verification and repair — the [pmempool check]-style
    fsck.  One walk of the image serves both: {!check_device} records
    what it finds, {!repair} fixes what it can as it goes.  Without
    running recovery it validates:

    - the header (magic, version, layout arithmetic, checksum);
    - every journal slot (header fields, spill chain, checksum-verified
      entries targeting the pool, a sealed tail matching the advisory
      count, a drop area within capacity holding verifying records);
    - the allocation table (orders valid, heads aligned to their order,
      blocks inside the heap, no phantom heads inside an extent);
    - heap tiling (free space plus allocated blocks cover the heap);
    - the root pointer (must be the head of a live block when set);
    - the CoW root cells (live pointers, plausible intents, none
      pending).

    A pool that crashed mid-transaction is still {e consistent} here —
    an [Active] journal is well-formed state that recovery will resolve —
    so the check passes on crash images; it fails only on genuine
    corruption (torn metadata, wild offsets, overlapping blocks). *)

type finding = { where : string; problem : string }

type report = {
  findings : finding list;
  slots_checked : int;
  entries_checked : int;
  blocks_checked : int;
}

val ok : report -> bool

val check_device : Pmem.Device.t -> report
val check_file : string -> report
val pp : Format.formatter -> report -> unit

(** {1 Repair}

    The repairing walk fixes each problem where it meets it, without
    touching committed data:

    - re-seals a stale header checksum when the layout fields are sane;
    - seals a journal slot's undo log at its checksum-verified prefix
      (the same "treat a torn entry as never written" rule recovery
      applies), reconciles its advisory counts, and resets slots whose
      own header fields or spill chain are implausible;
    - quarantines allocation-table bytes claiming impossible blocks;
    - resolves surviving CoW intent records as recovery would;
    - does {e not} repair a wild root pointer — the data it named is
      gone; it is reported in [unrepairable] and the pool remains
      openable only with [~mode:Read_only].

    Every write is persisted and idempotent, so a crash mid-repair is
    answered by running repair again. *)

type repair_action = { where : string; action : string }

type repair_report = {
  actions : repair_action list;  (** what was fixed, in walk order *)
  entries_truncated : int;  (** undo entries dropped from journal slots *)
  drops_truncated : int;  (** drop records removed from drop areas *)
  blocks_quarantined : int;  (** alloc-table bytes cleared *)
  unrepairable : finding list;  (** problems the walk has no fix for *)
  post : report;  (** [check_device] re-run after the repairs *)
}

val repair : Pmem.Device.t -> repair_report

val repaired : repair_report -> bool
(** No unrepairable findings and the post-repair check is clean. *)

val pp_repair : Format.formatter -> repair_report -> unit
