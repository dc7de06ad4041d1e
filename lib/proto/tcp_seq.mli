(** 32-bit TCP sequence-number arithmetic with wrap-around (RFC 793 §3.3).
    All values are in [0, 2^32). *)

val mask : int -> int
val add : int -> int -> int
val diff : int -> int -> int
(** [diff a b] is the signed distance a - b, in [-2^31, 2^31). *)

val lt : int -> int -> bool
val le : int -> int -> bool
val gt : int -> int -> bool
val ge : int -> int -> bool

val in_window : int -> lo:int -> len:int -> bool
(** Is a sequence number within [lo, lo+len)? *)
