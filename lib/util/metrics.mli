(** A unified metrics registry.

    The repo grew one-off counters in every layer — [Copy_meter] sites,
    datalink [drops_bad_len], mailbox [overflow_drops], RMP
    [failed_sends], Rx [completion_batches], CPU [owners_report] — each
    with its own accessor.  [Metrics] puts them behind one
    {!snapshot}/{!render} API so benches, chaos campaigns, and the CLI
    report from a single source of truth.

    Counters and gauges are registered as thunks reading the component's
    existing state (no double bookkeeping, always current).  A latency
    distribution is a {!Summary}, not a metric. *)

type t

type value =
  | Count of int  (** monotonic event count *)
  | Gauge of float  (** instantaneous level *)
  | Hist of { n : int; mean : float; stddev : float; min : float; max : float }
      (** produced by nothing: the registry holds counters and gauges only *)

val create : unit -> t

val counter : t -> string -> (unit -> int) -> unit
(** Register a monotonic counter read via the thunk.
    @raise Invalid_argument if the name is already registered. *)

val gauge : t -> string -> (unit -> float) -> unit

val snapshot : t -> (string * value) list
(** All metrics, sorted by name; thunks are read at call time. *)

val render : t -> string
(** The snapshot as aligned [name value] lines, one per metric. *)
