(** Convenience assembly: the full protocol stack of paper §4 on one CAB —
    datalink, IP (with ICMP, UDP, TCP registered) and the three
    Nectar-specific transports. *)

type t = {
  rt : Nectar_core.Runtime.t;
  router : Nectar_route.Router.t;
  dl : Datalink.t;
  ip : Ipv4.t;
  icmp : Icmp.t;
  udp : Udp.t;
  tcp : Tcp.t;
  dgram : Dgram.t;
  rmp : Rmp.t;
  reqresp : Reqresp.t;
  mutable services : (string * (Nectar_util.Metrics.t -> unit)) list;
      (** registered stack services, newest first (use
          {!register_service}) *)
}

val create :
  Nectar_core.Runtime.t ->
  ?tcp_checksum:bool ->
  ?mtu:int ->
  ?tcp_mss:int ->
  ?tcp_input_mode:[ `Thread | `Interrupt ] ->
  ?rpc_rto:Nectar_sim.Sim_time.span ->
  ?rpc_retries:int ->
  ?rmp_window:int ->
  ?rmp_rto:Nectar_sim.Sim_time.span ->
  ?router:Nectar_route.Router.t ->
  unit ->
  t
(** [rmp_window] selects the beyond-the-paper sliding-window RMP (see
    {!Rmp.create}); the default keeps the paper's stop-and-wait.
    [rmp_rto] sets its retransmission interval — wide fan-in (many senders
    converging on one CAB, e.g. the collective baselines) needs a patient
    RTO, or every sender's retransmissions amplify the incast.  UDP always
    checksums.

    [router] shares an existing route database across stacks; otherwise
    {!Datalink.create} builds a private one with the empty policy — plain
    shortest path, byte-identical to the empty policy's BFS answer (see
    {!Nectar_route.Router.create}). *)

val node_id : t -> int
val addr : t -> Ipv4.addr

val register_service : t -> name:string -> (Nectar_util.Metrics.t -> unit) -> unit
(** Attach a named service layered above the stack (the collective engine
    of [lib/coll] is one): the thunk contributes the service's metrics to
    every later {!register_metrics} call, and a duplicate attachment of
    the same service name is refused — a service that binds a well-known
    mailbox port registers here so double-binding fails at attach time
    with a clear error rather than at mailbox creation.
    @raise Invalid_argument if [name] is already registered. *)

val register_metrics : t -> Nectar_util.Metrics.t -> unit
(** Register this node's datalink/RMP/rpc/TCP/Rx counters and CPU gauges
    into the registry, prefixed with the CAB's name, then each registered
    service's metrics (in attachment order). *)
