(** Seeded, deterministic fault-injection campaigns over every layer of the
    simulated machine: wire drop and burst corruption (the HUB fault hook),
    link flap and CAB crash-and-restart (attachment ports going dark), VME
    transient bus errors, buffer-heap allocation failures, and host
    signal-queue loss.

    A {!Plan.t} is a scripted schedule of fault actions; rate-based actions
    draw per-event from the sim's splitmix64 PRNG, so the same seed yields
    the same faults and the same trace.  Each {!campaign} builds its own
    world, installs a plan, drives traffic whose threads catch the typed
    transport errors, and reports end-of-run invariant violations; the
    runner wraps it in the vet checkers, so a campaign also fails on heap
    leaks, two-phase protocol violations or deadlocks. *)

(** {1 Fault plans} *)

module Plan : sig
  type action =
    | Wire_faults of { drop : float; corrupt : float; burst : int }
        (** Per-frame PRNG faults: drop with probability [drop], corrupt
            [burst] contiguous bytes with probability [corrupt]. *)
    | Wire_ok  (** Remove the wire fault hook. *)
    | Link of { hub : int; port : int; up : bool }
        (** Take a HUB port down or up; frames routed through a dark port
            are blackholed (and counted as link-down drops). *)
    | Node_power of { node : int; up : bool }
        (** Crash or warm-restart a CAB by stack index: its attachment link
            goes dark both ways, in-flight DMA still completes. *)
    | Vme_errors of { node : int; rate : float }
        (** Transient VME bus errors on the node's host backplane (the node
            must have a host attached via {!add_host}). *)
    | Alloc_failures of { node : int; rate : float }
        (** Make the node's buffer-heap [alloc] fail with probability
            [rate]. *)
    | Signal_outage of { node : int; span : Nectar_sim.Sim_time.span }
        (** Swallow every host-CAB signal for [span] from the step time. *)

  type step = { at : Nectar_sim.Sim_time.t; act : action }

  type t = { seed : int; steps : step list }

  val step : Nectar_sim.Sim_time.t -> action -> step
end

(** {1 Worlds} *)

type world = {
  eng : Nectar_sim.Engine.t;
  net : Nectar_hub.Network.t;
  stacks : Nectar_proto.Stack.t array;
  mutable drivers : (int * Nectar_host.Cab_driver.t) list;
}

val build_world :
  ?hubs:int ->
  ?cabs:int ->
  ?stack_opts:(Nectar_core.Runtime.t -> Nectar_proto.Stack.t) ->
  unit ->
  world
(** A chain of [hubs] HUBs (default 1) with [cabs] full protocol stacks
    (default 2) attached round-robin. *)

val build_ring :
  hubs:int ->
  at:(int * int) list ->
  ?stack_opts:(Nectar_core.Runtime.t -> Nectar_proto.Stack.t) ->
  unit ->
  world
(** A closed ring of [hubs] HUBs (>= 3; each trunk port 15 to the next
    hub's 14) with one CAB per [(hub, port)] seat in [at].  Rings give
    every pair two edge-disjoint trunk arcs — the topology failover
    campaigns and benches use, where one trunk outage forces a reroute
    instead of a partition. *)

val build_torus :
  rows:int ->
  cols:int ->
  at:(int * int) list ->
  ?stack_opts:(Nectar_core.Runtime.t -> Nectar_proto.Stack.t) ->
  unit ->
  world
(** A [rows] x [cols] (both >= 2) wrapped grid of HUBs; hub [(r, c)] is
    index [r*cols + c], east trunks on ports 15->14, south trunks on
    13->12, so node seats must use ports below 12.  Constant trunk
    degree 4 — the scaling bench's fleet shape, partitioning into
    contiguous row blocks with exactly [2*cols] boundary trunks per
    cut. *)

val build_fat_tree :
  leaves:int ->
  spines:int ->
  at:(int * int) list ->
  ?stack_opts:(Nectar_core.Runtime.t -> Nectar_proto.Stack.t) ->
  unit ->
  world
(** A two-level fat tree: [leaves] edge HUBs (indices [0..leaves-1])
    each trunked to all [spines] core HUBs (indices [leaves..]); leaf
    [l] reaches spine [s] on port [15-s] (into spine port [15-l]).
    Node seats must sit on leaf hubs at ports [<= 15-spines].  Every
    leaf pair gets [spines] edge-disjoint two-hop paths — the
    multipath fan the route verifier exercises. *)

val add_host : world -> int -> Nectar_host.Cab_driver.t
(** Attach a host to the CAB at stack index [i] (required before a
    [Vme_errors] step can name it). *)

val install : world -> Plan.t -> unit
(** Arm the plan: steps at or before the current simulation time apply
    immediately, later ones are scheduled.  Call after building the world
    and before [Engine.run]. *)

(** {1 Campaigns} *)

type outcome = {
  name : string;
  seed : int;
  stats : (string * int) list;
  failures : string list;  (** violated end-of-run invariants *)
  findings : Nectar_vet.Vet.finding list;
}

type campaign = {
  cname : string;
  about : string;
  quiesced : bool;
      (** whether a normal return means the world quiesced (vet leak
          checks apply) *)
  body : seed:int -> (string * int) list * string list;
}

val campaigns : campaign list
(** The standard battery, one per fault class. *)

val run_campaign : ?seed:int -> campaign -> outcome
(** Run one campaign under every vet checker (default seed 1990). *)

val outcome_equal : outcome -> outcome -> bool
(** Determinism comparison: stats, failures, and finding kinds.  Finding
    messages are excluded — they can embed process-global message uids
    that differ between same-seed runs in one process. *)

val clean : outcome -> bool
(** No invariant violations and no vet finding above [Info]. *)
