(** A unified metrics registry.

    The repo grew one-off counters in every layer — [Copy_meter] sites,
    datalink [drops_bad_len], mailbox [overflow_drops], RMP
    [failed_sends], Rx [completion_batches], CPU [owners_report] — each
    with its own accessor.  [Metrics] puts them behind one
    {!snapshot}/{!render} API so benches, chaos campaigns, and the CLI
    report from a single source of truth.

    Counters and gauges are registered as thunks reading the component's
    existing state (no double bookkeeping, always current); histograms
    are owned by the registry and fed with {!observe}. *)

type t

type value =
  | Count of int  (** monotonic event count *)
  | Gauge of float  (** instantaneous level *)
  | Hist of { n : int; mean : float; stddev : float; min : float; max : float }

val create : unit -> t

val counter : t -> string -> (unit -> int) -> unit
(** Register a monotonic counter read via the thunk.
    @raise Invalid_argument if the name is already registered. *)

val gauge : t -> string -> (unit -> float) -> unit

val histogram : t -> string -> unit
(** Register an owned histogram; feed it with {!observe}. *)

val observe : t -> string -> float -> unit
(** @raise Invalid_argument if the name is not a registered histogram. *)

val merge : t -> t -> unit
(** [merge t src] folds [src]'s owned histograms into [t]: same-named
    histograms combine with the parallel Welford rule (exact n/mean/m2
    and min/max, stable at large offsets), names absent from [t] are
    created.  Merging an empty histogram into a populated one (or vice
    versa) preserves the populated side's moments and extrema.
    Thunk-backed counters and gauges read live owner state and are
    skipped.
    @raise Invalid_argument if a histogram name is registered in [t] as a
    counter or gauge. *)

val snapshot : t -> (string * value) list
(** All metrics, sorted by name; thunks are read at call time. *)

val render : t -> string
(** The snapshot as aligned [name value] lines, one per metric. *)
