(** The live route database: a {!Policy.t} compiled on demand against the
    current topology, invalidated and recompiled when links transition.

    The paper's deployments configure source routes by hand, once; this
    module replaces that with a compile-on-lookup cache over the policy.
    On an all-up topology under the default policy every compiled route is
    the empty policy's BFS answer (index 0 of the lexicographic
    shortest-path enumeration *is* the BFS first-visit path, the
    lexicographically smallest shortest port list), so static scenarios —
    every paper table — are unchanged.  This BFS is the only code that
    builds a source route.

    Failure model: a link transition is detected 100 us after it happens
    and recomputed tables are in service 25 us later.
    Inside that window a sender either blackholes on the wire (stale
    cached route — the fabric counts it in [link_down_drops]) or gets a
    typed {!Route_down} refusal (fresh compile against the live
    topology); after it, flows re-route onto surviving paths or keep
    getting typed refusals until the link returns.  Retransmission
    machinery (RMP retry, rpc retry, TCP RTO) absorbs both, which bounds
    the application-visible blackout by
    detection + recompute + one retransmission interval. *)

type t

exception Route_down of { src : int; dst : int }
(** The pair is connected in the static topology but the policy yields no
    live path right now (downed link, or every preferred path dead). *)

exception No_route of { src : int; dst : int }
(** The pair is partitioned in the static topology: no sequence of trunks
    joins their HUBs at all. *)

val create : ?policy:Policy.t -> Nectar_hub.Network.t -> t
(** Build a router over [net] and register its link-state monitor
    ([Network.on_link_change]).  Default: empty policy (pure shortest
    path).  Creation schedules no engine events; only a real link
    transition does. *)

val lookup : t -> src:int -> dst:int -> proto:int -> int list
(** The source route for a flow, compiled and cached on first use.
    Raises {!Route_down} or {!No_route} (and counts the refusal) when the
    policy yields nothing.  [Invalid_argument] when [src = dst], or when
    a component is outside the cache key's range: [src] 30 bits, [dst]
    12 bits, [proto] 8 bits. *)

(** {1 Verification}

    Obligations checked at compile time (the [failover/route-verify]
    registry entry runs {!verify} after building a topology) and after every recompute:
    reachability — every pair connected in the live topology has a route;
    loop-freedom — no route revisits a HUB; and no cached route crosses a
    downed port. *)

type verify_error =
  | Unreachable of { src : int; dst : int; proto : int }
      (** the pair is connected in the live topology but the policy
          yields no path (planted dead-end rules land here) *)
  | Looping of { src : int; dst : int; proto : int; path : int list }
      (** the compiled route revisits a HUB (e.g. a looping pinned
          [Static] route) *)
  | Crosses_down of { src : int; dst : int; proto : int; hub : int; port : int }
      (** a *cached* route crosses a downed port — legal only inside the
          detection window *)
  | Malformed of { src : int; dst : int; proto : int; reason : string }

val verify : t -> verify_error list
(** Audit every ordered node pair for protocol 0.  Read-only: fresh
    compiles, never touches the cache.  Pairs whose endpoints are down or
    physically partitioned in the live topology are skipped — that is the
    fabric's fault, not the policy's. *)

val string_of_error : verify_error -> string

(** {1 Recompute control} *)

val generation : t -> int
(** Incremented on every recompute/flush. *)

val blackout_bound_ns : rto_ns:Nectar_sim.Sim_time.span -> Nectar_sim.Sim_time.span
(** The guaranteed blackout bound for a flow with a surviving alternate
    path: detection + recompute + one retransmission interval. *)

(** {1 Introspection and accounting} *)

val network : t -> Nectar_hub.Network.t
val policy : t -> Policy.t

val table_lines : t -> string list
(** One line per node pair (protocol 0): the compiled route, or the typed
    refusal it would get ([ROUTE-DOWN] / [NO-ROUTE]).  Fresh compiles;
    cache untouched. *)

val compiles : t -> int
val recomputes : t -> int
val invalidated : t -> int

val route_down_refusals : t -> int
(** Lookups refused with {!Route_down}: sends that never reached the wire
    because the database knew the path was dead. *)

val no_route_refusals : t -> int
val verify_failures : t -> int
(** Verify errors found by post-recompute audits (campaigns assert 0). *)

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit
(** Register the compile/recompute/refusal counters as
    [<prefix>route.*]. *)
