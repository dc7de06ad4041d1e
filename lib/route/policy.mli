(** Declarative routing policy for the HUB mesh.

    A policy is an ordered rule list.  Each rule pairs a predicate over
    (src node, dst node, datalink protocol) with a ranked list of path
    preferences; the first rule whose predicate matches the flow governs
    it, and within the rule the first preference that yields at least one
    live loop-free path is used (ranked fallback).  A flow matched by no
    rule falls back to plain shortest-path — so the empty policy
    {!default} reproduces the hand-configured routes of the paper's
    deployments exactly.

    A matched rule whose preferences ALL fail to produce a live path is a
    policy-declared dead end: the router refuses the flow with a typed
    error and the verifier reports the pair as unreachable.  There is no
    silent fall-through past a matching rule. *)

type predicate =
  | Any
  | Src of int  (** source node id *)
  | Dst of int  (** destination node id *)
  | Proto of int  (** datalink protocol number *)
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

type preference =
  | Shortest  (** lexicographically-smallest shortest live path *)
  | Avoid_hubs of int list
      (** shortest live path that transits none of the listed HUBs
          (endpoints' own attachment HUBs are exempt) *)
  | Avoid_links of (int * int) list
      (** shortest live path crossing none of the listed [(hub, port)]
          output ports *)
  | Static of int list
      (** an operator-pinned source route (one output port per HUB).  It
          is used only if it walks to the destination over live ports;
          loop-freedom is deliberately NOT enforced here — that is the
          verifier's job, so a looping pinned route is a rejectable
          policy, not a silent fallback. *)
  | Ecube of { rows : int; cols : int }
      (** dimension-ordered (e-cube) routing on a [rows] x [cols] torus
          whose trunks follow the directional port convention (east 15,
          west 14, south 13, north 12): correct the column first on the
          east/west trunks, then the row on the south/north trunks, never
          crossing a wrap link.

          Why a dedicated preference and not [Shortest]: the HUB fabric is
          {e cut-through} — a transfer holds every output port of its
          circuit for the whole frame.  On a torus, BFS-shortest routes use
          the wrap trunks, and a ring of concurrent circuits around a
          dimension can then each hold its upstream port while waiting for
          the next one: a cycle in the port waits-for graph, i.e. deadlock.
          The witness: BFS-shortest routes hang the 64-CAB 8x2 torus
          (4 CABs per HUB, 1024-byte frames to uniformly random peers)
          that the parallel scaling sweep drives, which drains under
          e-cube routes.
          E-cube routes traverse each directional channel class
          monotonically (all 15s, then all 14s, then 13s, then 12s, and
          column classes strictly before row classes), so any waits-for
          chain descends a fixed class order and can never cycle — the
          classic e-cube deadlock-freedom argument, at the price of
          forgoing wrap shortcuts (worst-case path [cols-1 + rows-1]
          hops).  The verifier accepts these routes like any other: they
          are walkable, loop-free and live-port-only by construction. *)

val ecube_route : rows:int -> cols:int -> src_hub:int -> dst_hub:int -> int list
(** The dimension-ordered hub-to-hub port list (excluding the destination
    node's attachment port, which depends on the seat, not the grid).
    Pure arithmetic on grid coordinates: partitioned fleet worlds use it
    directly for global routes that cross partition boundaries.
    @raise Invalid_argument if a hub lies outside the grid. *)

type rule = { where : predicate; prefer : preference list; ecmp : bool }
(** [ecmp] splits flows across all equal-cost paths of the winning
    preference (deterministically, keyed by the flow tuple) instead of
    always taking the lexicographically smallest. *)

type t = rule list

val default : t
(** The empty policy: every flow routes shortest-path, byte-identical to
    [Network.route]. *)

val matches : predicate -> src:int -> dst:int -> proto:int -> bool

val rule_for : t -> src:int -> dst:int -> proto:int -> rule
(** First matching rule, or the implicit shortest-path rule. *)

val rule_shortest : rule
(** The implicit catch-all: [{ where = Any; prefer = [Shortest];
    ecmp = false }]. *)

val predicate_to_string : predicate -> string
val preference_to_string : preference -> string
val rule_to_string : rule -> string
val to_string : t -> string
