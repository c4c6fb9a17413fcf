(** Read-only pool introspection — the [pmempool info]-style tooling.

    Everything here reads the media without attaching, recovering, or
    bumping the generation, so inspecting a pool image (e.g. one captured
    after a crash, before recovery has run) does not disturb it. *)

type slot_state = Idle | Active of int | Committing of int
(** Journal slot as found on media; the payload counts entries. *)

type info = {
  magic_ok : bool;
  version : int;
  generation : int;
  root_off : int;
  root_ty_hash : int;
  nslots : int;
  slot_size : int;
  journal_base : int;
  table_base : int;
  heap_base : int;
  heap_len : int;
  device_size : int;
  slots : slot_state list;
  slot_epochs : int list;
  (** Per-slot persisted epoch counter (logs retired through the slot).
      On a shared pool each registered domain owns one slot, so the
      epochs show how commits were distributed across domains. *)
  live_blocks : int;
  live_bytes : int;
  largest_block : int;
  lifetime_tx : int;  (** committed transactions folded at last save *)
  lifetime_aborts : int;
  cow_cells : Cow_root.cell_info list;
      (** CoW root cells ({!Cow_root.inspect}): generation, active
          pointer and surviving intent records per cell — a pending
          intent on an image is a half-committed swap recovery will
          resolve at the next open *)
}

val inspect_device : Pmem.Device.t -> info
(** Read the header, journal slot states and allocation table. *)

val pp : Format.formatter -> info -> unit
(** Human-readable rendering (used by [bin/pool_info.exe]). *)
