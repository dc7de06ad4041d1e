(** CAB-resident collective primitives: barrier, reduce, and broadcast
    running entirely in CAB memory over mailboxes and RMP.

    The paper's §5.3 communication-engine argument — protocol work
    belongs on the CAB, not the host — extends naturally to collective
    operations: arrivals combine hop by hop along a spanning tree of
    CABs (per-CAB arrival counters and reduce accumulators, broadcast
    fan-out along tree children), and the host is woken {e exactly once}
    per operation, by a single end-of-collective interrupt at the root
    (latched through {!Nectar_cab.Interrupts.post_coalesced}, so racing
    completion signals still dispatch once).

    The spanning tree comes from {!Nectar_fleet.Topology.spanning_tree}
    — the same trunk lists the deadlock-safe routes walk — so tree edges
    are short fabric paths on every shape.

    A host-driven baseline ships alongside ({!host_barrier} and
    friends): every participant sends its arrival straight to the root,
    where each one crosses to the host (one wakeup {e per participant},
    plus host-side service time) before the host issues the release —
    the design the CAB-resident path is measured against in
    [bench coll].

    Collectives are issued in the same order on every endpoint of a
    communicator, one outstanding operation at a time per endpoint (the
    usual MPI-style discipline); the combine function must be
    associative and commutative. *)

module Tree : sig
  (** A validated spanning tree over the fleet's nodes. *)

  type t

  val of_parents : root:int -> int array -> t
  (** Build from a parent array (entry [n] is [n]'s parent; [-1] at
      [root]).  Validates shape: every entry in range, [root]'s entry
      [-1], and every node reaching [root] by parent pointers — i.e. the
      graph is connected, acyclic and covers all nodes.
      @raise Invalid_argument otherwise. *)

  val of_topology : Nectar_fleet.Topology.t -> root:int -> t
  (** {!Nectar_fleet.Topology.spanning_tree} + {!of_parents}. *)

  val size : t -> int
  val root : t -> int

  val parent : t -> int -> int
  (** [-1] at the root. *)

  val children : t -> int -> int array
  val depth : t -> int -> int
  val max_depth : t -> int
  val max_fanout : t -> int
end

type t
(** A per-CAB collective endpoint, bound to a {!Nectar_proto.Stack}. *)

val port : int
(** The well-known mailbox port collective traffic arrives on. *)

val attach :
  ?combine:(int -> int -> int) -> Nectar_proto.Stack.t -> tree:Tree.t -> t
(** Bind node [Stack.node_id stack]'s endpoint: creates the collective
    mailbox on {!port}, starts the combining daemon thread, and registers
    the [coll] service on the stack (so double attachment fails and
    [Stack.register_metrics] picks up the collective counters).
    [combine] (default [(+)]) folds reduce contributions; it must agree
    across all endpoints.  Each {e baseline} arrival costs the root's
    host one IRQ dispatch plus one syscall before it can issue the
    release. *)

val rank : t -> int
val tree : t -> Tree.t

(** {1 CAB-resident operations} (single host wakeup per operation) *)

val barrier : Nectar_core.Ctx.t -> t -> unit
(** Block until every endpoint has entered the same barrier. *)

val reduce : Nectar_core.Ctx.t -> t -> int -> int
(** Contribute a value; every endpoint returns the tree-wide combine. *)

val bcast : Nectar_core.Ctx.t -> t -> string option -> string
(** Root passes [Some payload]; every endpoint returns the payload.  The
    root returns only after every CAB holds the payload (ack wave).
    @raise Invalid_argument on a payload mismatch with the caller's
    role. *)

(** {1 Host-driven baseline} (one host wakeup per participant) *)

val host_barrier : Nectar_core.Ctx.t -> t -> unit
val host_reduce : Nectar_core.Ctx.t -> t -> int -> int
val host_bcast : Nectar_core.Ctx.t -> t -> string option -> string

(** {1 Introspection} *)

val ops_completed : t -> int
(** Operations this endpoint has returned from (both kinds). *)

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit

(** {1 Worlds} *)

module World : sig
  (** A stack-level fleet with a collective endpoint on every CAB —
      shared by [bench coll], the CLI and the tests. *)

  type coll = t

  type t = {
    eng : Nectar_sim.Engine.t;
    net : Nectar_hub.Network.t;
    topo : Nectar_fleet.Topology.t;
    tree : Tree.t;
    stacks : Nectar_proto.Stack.t array;
    colls : coll array;
  }

  val build :
    ?root:int -> ?combine:(int -> int -> int) -> Nectar_fleet.Topology.spec -> t
  (** {!Nectar_fleet.World.build} on the topology's trunks and seats (the
      paper's 1 MB of CAB data memory each, backed only as used), every
      stack sharing one router compiled from the topology's deadlock-safe
      policy, and an endpoint attached per node. *)

  val run :
    ?tracer:Nectar_sim.Trace.t ->
    t ->
    ops:int ->
    host:bool ->
    Nectar_util.Summary.t * Nectar_util.Summary.t * Nectar_util.Summary.t
  (** Every CAB loops barrier, reduce and bcast [ops] times — the
      host-driven baseline when [host] — and the engine runs to
      quiescence.  Returns the root's barrier, reduce and bcast latency
      samples (simulated ns).  [tracer], if given, is installed by the
      root at the start of the last iteration and uninstalled when the
      run ends, also when it raises.
      @raise Failure on a wrong reduce or bcast result. *)
end
