(** Whole-heap introspection: live-block enumeration and integrity checks.

    Used by the leak checker ({!Crashtest.Leak_check}) to compare the
    allocator's notion of live blocks against the set of blocks reachable
    from a pool's root object, and by tests to validate that the volatile
    free lists and the persistent allocation table tile the heap exactly. *)

type block = { off : int; size : int }

val live_blocks : Buddy.t -> block list
(** Every allocated block, in address order. *)

val live_count : Buddy.t -> int
val live_bytes : Buddy.t -> int

type report = {
  blocks : int;
  bytes_used : int;
  bytes_free : int;
  largest_free : int;  (** size of the largest free block *)
  fragmentation : float;
      (** 1 - largest_free/bytes_free; 0 when the free space is one block *)
}

val report : Buddy.t -> report

val check : Buddy.t -> (unit, string) result
(** Structural integrity: free-list blocks must be aligned, in range,
    disjoint from each other and from allocated blocks, and together with
    the allocated blocks must tile the heap exactly.  Returns [Error msg]
    describing the violation at the lowest block index.  It keeps no
    per-index state: memory is O(allocated + free blocks). *)
