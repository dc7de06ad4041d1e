(** Simulated time.

    Absolute times and spans are nanoseconds represented as [int] (63-bit on
    this platform: good for ~292 years of simulation, far beyond any run
    here).  Keeping a plain [int] makes times directly comparable and
    arithmetic cheap in the event loop. *)

type t = int
(** Absolute time: nanoseconds since simulation start. *)

type span = int
(** Duration in nanoseconds. *)

val zero : t

val ns : int -> span
val us : int -> span
val ms : int -> span
val s : int -> span

val to_us : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)

val to_string : t -> string
