(** Synthetic fleet workloads: deterministic per-node traffic schedules
    for the 256-1024-CAB worlds.

    Three patterns — incast fan-in (every non-sink node sends to a small
    set of sinks), all-to-all (round-robin over every peer), and Zipfian
    hotspot skew (destinations drawn from a Zipf distribution, node 0
    hottest) — each in closed-loop form (a think gap after the previous
    send {e completes}, so senders self-clock against fabric
    backpressure) or open-loop form (absolute Poisson due times; a sender
    that falls behind sends immediately on catching up, so offered load
    is independent of fabric state).

    Every schedule is a pure function of [(seed, node)] via keyed Rng
    streams: identical at every partition count and on every re-run —
    the fleet bench's double-run determinism gate depends on it. *)

type pattern =
  | Incast of { sinks : int }
      (** nodes [0..sinks-1] only receive; every other node spreads its
          messages across them *)
  | All_to_all
  | Hotspot of { alpha : float }
      (** Zipf([alpha]) destination skew; rank [k] is node [k] *)

type arrivals =
  | Closed of { think_ns : int }
      (** per-send gap drawn uniform in [think/2, 3*think/2] *)
  | Open of { interval_ns : int }
      (** Poisson arrivals with this mean interarrival *)

type t = {
  pattern : pattern;
  arrivals : arrivals;
  msgs_per_node : int;
  seed : int;
}

val make :
  pattern:pattern -> arrivals:arrivals -> msgs_per_node:int -> seed:int -> t
(** @raise Invalid_argument on nonsense parameters. *)

val is_open : t -> bool
val pattern_name : t -> string

val is_sender : t -> nodes:int -> node:int -> bool
val sender_count : t -> nodes:int -> int

val total_messages : t -> nodes:int -> int
(** Aggregate sends: [sender_count * msgs_per_node]. *)

type send = {
  at : int;  (** closed loop: gap before this send; open loop: due time *)
  dst : int;
}

val plan : t -> nodes:int -> node:int -> send array
(** The node's full schedule ([[||]] for a pure sink).  Pure function of
    [(seed, node)]. *)

val plans : t -> nodes:int -> send array array
(** Every node's {!plan}, indexed by node, with the hotspot CDF built
    once for all of them.  Nothing in the result is ever written, so
    partitions on other domains may share it. *)

val zipf_cdf : alpha:float -> int -> float array
(** Normalised Zipf CDF over ranks [0..n-1] (weight of rank [k] is
    [1/(k+1)^alpha]).  The tail is clamped to exactly [1.0] so boundary
    draws can never fall out of range.  Exposed for property tests. *)

val zipf_draw : float array -> float -> int
(** First rank whose CDF value is [>= u] (binary search).  Total on
    [u <= 1.0] for any {!zipf_cdf} array: [u = 0.0] lands on rank 0,
    [u = 1.0] on the last rank.
    @raise Invalid_argument on an empty CDF. *)
