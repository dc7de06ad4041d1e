(** The fleet driver: wire-level worlds of 256-1024 CABs built from a
    {!Topology} spec, loaded by a {!Workload}, and run through the
    conservative parallel engine.

    Every frame carries its send time in its first 8 payload bytes (the
    stamp survives the boundary-trunk payload snapshot), so delivery
    latency needs no side table; per-source delivered counts and
    completion times give the goodput fairness spread.
    This is the one partitioned-world builder: torus row blocks with
    cut-crossing trunks as store-and-forward remote links whose latency
    is exactly the lookahead.  Fat-tree and irregular
    fleets have no contiguous cuts and run single-domain (still through
    [Parallel.run], on the code path the paper tables pin).

    Deterministic at a fixed domain count — {!deterministic_eq} is the
    double-run gate the fleet bench asserts. *)

type config = {
  topo : Topology.spec;
  workload : Workload.t;
  domains : int;
  lookahead_ns : int;  (** boundary-trunk latency = scheduler lookahead *)
  frame_bytes : int;  (** >= 16, for the 8-byte send stamp *)
  fifo_capacity : int;
}

val config :
  ?domains:int ->
  ?lookahead_ns:int ->
  ?frame_bytes:int ->
  ?fifo_capacity:int ->
  topo:Topology.spec ->
  workload:Workload.t ->
  unit ->
  config
(** Defaults: 1 domain, 20us lookahead, 256-byte frames.
    @raise Invalid_argument if [domains > 1] on a non-torus shape or
    torus rows don't divide into row blocks. *)

type result = {
  nodes : int;
  total_msgs : int;  (** offered load: senders x msgs_per_node *)
  d_sent : int array;  (** these four: per partition *)
  d_delivered : int array;
  d_handed_off : int array;
  d_injected : int array;
  finals : Nectar_sim.Sim_time.t array;
  windows : int;
  crossed : int;
  conserved : bool;
      (** per-partition wire conservation:
          [sent + injected = delivered + handed_off] everywhere *)
  per_sender : int array;  (** delivered, indexed by source node *)
  per_sender_last : int array;  (** latest delivery sim-time per source *)
  spread : float;
      (** goodput fairness: goodput_i = delivered_i / completion time_i,
          spread = (max-min)/mean over senders.  Counts alone are
          trivially equal once a closed loop drains, so completion
          times carry the signal. *)
  lat_p50 : int;  (** send-to-delivery latency percentiles, ns *)
  lat_p99 : int;
  lat_max : int;
  port_waits : int;  (** HUB circuit setups that queued on a busy port *)
  port_wait_ns : int;
}

val run : config -> result

val sent : result -> int
val delivered : result -> int
val handed_off : result -> int
val injected : result -> int

val deterministic_eq : result -> result -> bool
(** Equality over everything a re-run at the same domain count must
    reproduce (counters, finals, windows, crossings, per-sender counts
    and completion times, latency percentiles) — not wall-clock. *)

type world
(** A built, unrun single-domain world: its engine, network, sinks and
    spawned senders. *)

val build : config -> world
(** Build the world {!run} would run on one domain (ignores
    [config.domains]).  The benches measure the per-node build
    footprint as the heap reachable from it. *)
