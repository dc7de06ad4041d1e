(** A zero-filled byte region backed on demand.

    A region has a fixed logical size — a CAB's data memory is 1 Mbyte —
    but only a prefix of it is backed by host memory.  The backing starts
    empty and grows by doubling (from at least 4 KB, capped at the logical
    size) when {!back} asks for more; growth copies the bytes already there
    and zero-fills the rest, so every byte reads as zero until written,
    exactly as an eagerly zeroed region would.

    Growth replaces the backing [Bytes.t].  Anything that keeps a reference
    beyond the current step must hold the region, never the bytes: a stale
    backing silently stops seeing writes to the live one.  {!bytes} is for
    immediate use only.

    Growth is simulator bookkeeping: it charges no simulated time and is not
    a payload copy in the {!Copy_meter} sense. *)

type t

val create : int -> t
(** [create size] is a growable region of logical size [size] with nothing
    backed yet.  Raises [Invalid_argument] when [size] is negative. *)

val of_bytes : Bytes.t -> t
(** A fixed region over [b]: its logical size is [Bytes.length b], all of it
    is backed, and it never grows (host-side bytes a frame or DMA touches). *)

val size : t -> int
(** The logical size. *)

val resident_bytes : t -> int
(** Bytes currently backed: a prefix of the region, [<= size]. *)

val back : t -> int -> unit
(** [back t n] makes the first [n] bytes resident.  Raises
    [Invalid_argument] when [n] is negative or beyond the logical size. *)

val bytes : t -> Bytes.t
(** The current backing, of length {!resident_bytes}.  Valid only until the
    next {!back}: index it right away and drop it. *)
