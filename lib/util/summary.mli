(** A latency distribution: a growable buffer of integer samples (ns),
    read by rank.  The tree's one recorder of a distribution; nothing
    keeps running moments. *)

type t

val create : unit -> t
(** Empty; the buffer is allocated on the first {!add} (64 slots) and
    doubles when full. *)

val add : t -> int -> unit
val count : t -> int

val samples : t -> int array
(** A fresh copy of the samples, in no particular order: {!percentile}
    permutes the buffer. *)

val percentile : t -> float -> float
(** [percentile t 0.99]: the sample at fractional rank [p * (n - 1)],
    interpolated linearly between the two ranks around it.  Permutes the
    buffer in place (a selection per rank, no sort).
    @raise Invalid_argument if empty or [p] is outside [\[0,1\]]. *)

val select_rank : int array -> int -> int
(** [select_rank a p] is the [p]th percentile ([p] in [0..100]) of [a]
    by nearest rank: what a sorted copy holds at [(n - 1) * p / 100]; 0
    when [a] is empty.  A selection, not a sort: it permutes [a] in place
    and allocates nothing, and calls for several ranks may share one
    array.  No interpolation, so integer latencies stay integers.
    @raise Invalid_argument if [p] is outside [\[0,100\]]. *)
