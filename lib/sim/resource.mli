(** Counted FIFO resource (capacity-1 by default: a mutex with queueing).

    Models exclusively-held hardware such as the VME bus, HUB output ports
    and DMA channels.  Grants are strictly first-come first-served. *)

type t

val create : Engine.t -> ?capacity:int -> unit -> t

val acquire : t -> unit
(** Block until one unit is available, then take it. *)

val try_acquire : t -> bool

val release : t -> unit

val use : t -> Sim_time.span -> unit
(** [acquire], hold for a simulated duration, [release]. *)

val with_held : t -> (unit -> 'a) -> 'a
(** Run a function while holding the resource, releasing on exception too. *)

val in_use : t -> int

val queue_length : t -> int

val busy_time : t -> Sim_time.span
(** Total time the resource has spent with at least one unit held; used for
    utilisation reporting in the benches. *)
