(** Parameterized fleet topologies: generators for the multi-HUB fabrics
    the fleet benches drive at 256-1024 CABs.

    A {!spec} names a shape; {!build} turns it into a trunk list plus the
    routing state the shape needs.  Three shapes:

    - {b Torus}: a [rows] x [cols] wrapped grid, [seats] CABs per HUB on
      ports [0..seats-1], trunks on the directional convention (east 15,
      west 14, south 13, north 12).  Constant degree, clean contiguous
      row-block partitions for the parallel engine.
    - {b Fat tree}: [leaves] edge HUBs each linked to all [spines] core
      HUBs (leaf [l] to spine [s] on leaf port [15-s] into spine port
      [15-l]); CABs sit on leaf ports below the uplink band.  Any leaf
      pair has [spines] two-hop paths.
    - {b Irregular}: a seeded random connected mesh — a uniform random
      spanning tree plus extra random edges up to an average trunk degree
      of [degree], each HUB's trunk ports allocated downward from 15.
      A pure function of [seed] (keyed Rng streams), so every partition
      and every re-run generates the identical fabric.

    {b Deadlock safety.}  The HUB fabric is cut-through: a transfer holds
    every output port of its circuit for the whole frame, so routes must
    keep the port waits-for graph of concurrent circuits acyclic.
    {!route} therefore returns, per shape: e-cube dimension-ordered
    routes on the torus (see {!Nectar_route.Policy.Ecube} for the full
    argument); up-then-down spine routes on the fat tree (all up-links
    are crossed before all down-links — two acyclic classes); and
    up*/down* routes along the generation spanning tree on the irregular
    mesh (climb toward the root to the lowest common ancestor, then
    descend — every circuit crosses child-to-parent edges strictly before
    parent-to-child edges, the same two-class argument).  BFS-shortest
    routes are {e not} safe on the torus (wrap rings of concurrent
    circuits deadlock; {!Nectar_route.Policy.Ecube} records the
    witness). *)

module Net = Nectar_hub.Network
module Policy = Nectar_route.Policy

type spec =
  | Torus of { rows : int; cols : int; seats : int }
      (** [seats] CABs per HUB on ports [0..seats-1] (must stay below the
          trunk band, i.e. [seats <= 12]) *)
  | Fat_tree of { leaves : int; spines : int; seats : int }
      (** [seats] CABs per leaf on ports [0..seats-1];
          [seats + spines <= 16] *)
  | Irregular of { hubs : int; degree : int; seed : int; seats : int }
      (** seeded connected mesh with average trunk degree [degree];
          [seats] CABs per HUB ([seats <= 14], leaving two trunk ports) *)

val torus_of_cabs : int -> spec option
(** The 4-seat torus of each fleet size the benches and the CLI run:
    64 (4x4), 256 (8x8), 512 (16x8) and 1024 (16x16) CABs; [None] for
    any other count. *)

type trunk = (int * int) * (int * int)
(** A hub-to-hub link as [((hub_a, port_a), (hub_b, port_b))]. *)

type t
(** A built topology. *)

val build : spec -> t
(** @raise Invalid_argument on out-of-range parameters. *)

val spec : t -> spec
val hub_count : t -> int

val node_count : t -> int
(** Total CAB count ([hubs * seats]; leaf hubs only on the fat tree). *)

val trunks : t -> trunk list

val wire : Net.t -> t -> unit
(** Connect every trunk on a freshly created network of {!hub_count}
    HUBs.  Node attachment is separate (see {!attach_all}); stack-level
    worlds pass {!trunks} to {!World.build} instead. *)

val attachment : t -> int -> int * int
(** [(hub, port)] seat of a node: node [n] sits at hub [n / seats], port
    [n mod seats]. *)

val attach_all : t -> Net.t -> (int -> Net.sink) -> unit
(** Attach all {!node_count} nodes at their {!attachment} seats, in node
    order, on a network with no nodes yet (so network node ids equal
    fleet node ids). *)

val route : t -> src:int -> dst:int -> int list
(** Deadlock-safe source route (one output port per HUB, ending with the
    destination's attachment port) — see the module preamble.  Pure:
    partitioned fleet worlds use the same global port list at every
    domain count.
    @raise Invalid_argument if [src = dst]. *)

val policy : t -> Policy.t
(** A routing policy the route verifier accepts, matching {!route}'s
    choices where the policy language can express them: [Ecube] (then
    shortest, for link failures) on the torus; ECMP-shortest on the fat
    tree; per-pair pinned up*/down* routes (then shortest) on the
    irregular mesh.  The irregular policy is O(nodes^2) rules — meant for
    stack-level worlds (tests, chaos campaigns), not the wire-level
    driver, which calls {!route} directly. *)

val spanning_tree : t -> root:int -> int array
(** A node-level spanning tree for collective operations, rooted at node
    [root]: entry [n] is [n]'s parent node id ([-1] at the root).
    Derived from the trunk list alone (BFS over hub adjacency,
    deterministic neighbour order), so it exists on every shape; on the
    irregular mesh it parallels the generation spanning tree the
    up*/down* routes walk.  Within a hub the lowest-numbered seated node
    is the hub's delegate; its siblings hang off it, and delegates chain
    toward the root along seated ancestor hubs (fat-tree spines, which
    seat no CABs, are skipped).  Tree edges are therefore always between
    nodes whose hubs are BFS-adjacent or equal — one or two fabric hops
    on the torus, at most one spine crossing on the fat tree.
    @raise Invalid_argument on a bad root or a disconnected trunk list. *)

(** {1 Trunk lists, for {!World.build}} *)

val chain_trunks : hubs:int -> trunk list
(** Hub [h]'s port 15 into hub [h+1]'s port 14: one path per pair. *)

val ring_trunks : hubs:int -> trunk list
(** {!chain_trunks} closed by the last hub's port 15 into hub 0's 14
    ([hubs >= 3]): every pair gets two edge-disjoint arcs, so one trunk
    outage forces a reroute instead of a partition. *)

val torus_trunks : rows:int -> cols:int -> trunk list
(** The {b Torus} trunks: hub [(r, c)] is index [r*cols + c], east 15
    into 14, south 13 into 12.  Seats go below port 12. *)

val fat_tree_trunks : leaves:int -> spines:int -> trunk list
(** The {b Fat tree} trunks: leaves are hubs [0..leaves-1], spines
    [leaves..]; leaf [l] to spine [s] on port [15-s] into [15-l].  Seats
    go on leaf ports [<= 15-spines]. *)
