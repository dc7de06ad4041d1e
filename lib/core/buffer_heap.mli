(** First-fit allocator over the CAB data memory.

    "Buffer space for messages is allocated from a common heap ... shared
    among all mailboxes on the CAB" (paper §3.3).  Offsets are byte
    positions in the CAB data-memory region; blocks are 4-byte aligned.
    Frees must match allocations exactly; adjacent free blocks coalesce.

    The heap manages the whole of a {!Nectar_util.Region} and is the only
    thing that grows it: {!alloc} backs each block before returning its
    offset, so every block handed out — and every block since freed — lies
    inside the region's backing.  Placement depends only on the heap's
    size, never on how much is backed. *)

type t

exception Corrupt of string
(** Raised by {!check_invariants} when the heap's internal structure is
    inconsistent (overlap, coverage gap, uncoalesced free list). *)

val create : Nectar_util.Region.t -> t
(** A heap over the whole region, offsets [0 .. size region - 1]. *)

val uid : t -> int
(** Unique id of this heap instance (for the vet checkers' event stream). *)

val region : t -> Nectar_util.Region.t
val size : t -> int

val alloc : t -> int -> int option
(** [alloc t n] returns the offset of a fresh [n]-byte block, or [None] when
    no free block fits. *)

val free : t -> int -> unit
(** Release the block at this offset.  Raises [Invalid_argument] when the
    offset is not a live allocation. *)

val block_size : t -> int -> int
(** The allocated size of a live block (rounded to alignment). *)

val set_fault_hook : t -> (int -> bool) option -> unit
(** Allocation-failure injection: the hook sees each requested (rounded)
    size and returns [true] to make that {!alloc} report [None] as if no
    free block fit.  Callers already tolerate [None] (it is how a full
    heap degrades), so injection exercises exactly those paths. *)

val failed_allocs : t -> int
(** Allocations refused by the fault hook. *)

val live_blocks : t -> int
val allocated_bytes : t -> int
val free_bytes : t -> int

val largest_free_block : t -> int
(** For fragmentation reporting. *)

val check_invariants : t -> unit
(** Validate internal consistency (no overlap, full coverage); used by the
    property tests and the vet heap sanitizer.  Raises {!Corrupt} on
    corruption. *)
