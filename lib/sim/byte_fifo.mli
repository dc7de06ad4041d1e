(** Bounded byte-occupancy FIFO with blocking producers and consumers.

    Models the CAB's fiber FIFOs (paper §2.2): only *occupancy* flows through
    it — actual packet contents travel in frame records — but the level,
    capacity and blocking behaviour reproduce the hardware's low-level flow
    control (a full FIFO stalls the link; an empty one stalls the DMA). *)

type t

val create : Engine.t -> capacity:int -> name:string -> t
(** [name] is not kept: nothing reads it.  The label survives only for
    source compatibility with existing callers. *)

val capacity : t -> int
val level : t -> int

val push : t -> int -> unit
(** Block until [n] bytes fit, then add them.  [n] must be <= capacity. *)

val pop : t -> int -> unit
(** Block until [n] bytes are present, then remove them. *)

val try_push : t -> int -> bool
val try_pop : t -> int -> bool

val max_level : t -> int
(** High-water mark, for tests and stats. *)
