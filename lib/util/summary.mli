(** Running summary of a series of observations, optionally keeping every
    sample so percentiles can be reported.  The one Welford implementation
    in the tree: [Stats.Summary] is an alias, and {!Metrics}' owned
    histograms are summaries. *)

type t

val create : ?keep_samples:bool -> unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float

val min : t -> float
(** @raise Invalid_argument on an empty summary. *)

val max : t -> float
(** @raise Invalid_argument on an empty summary. *)

val stddev : t -> float
(** Population standard deviation, computed with Welford's online
    algorithm so large-offset samples don't cancel. *)

val percentile : t -> float -> float
(** [percentile t 0.99]; requires [keep_samples].
    @raise Invalid_argument if empty or [p] is outside [\[0,1\]]. *)

val merge : into:t -> t -> unit
(** Fold [src] into [into] with the parallel Welford combine: exact
    count/sum/mean/m2 and min/max, stable at large offsets.  An empty
    side never disturbs the other (the empty-summary sentinels are not
    mixed in).  Kept samples concatenate when [into] keeps samples. *)

val reset : t -> unit
