(** ICMP echo (paper §4.1: "ICMP is implemented as a mailbox upcall").

    The ICMP input mailbox has a reader upcall attached, so request
    processing happens as a local call inside IP's end-of-data interrupt
    context — no thread is involved. *)

type t

val create : Ipv4.t -> t

val ping :
  Nectar_core.Ctx.t ->
  t ->
  dst:Ipv4.addr ->
  ?payload_bytes:int ->
  unit ->
  Nectar_sim.Sim_time.span option
(** Echo round trip; [None] when no reply comes within 100 ms. *)

val port_unreachable :
  Nectar_core.Ctx.t -> t -> orig:Nectar_core.Message.t -> unit
(** Emit a Destination Unreachable (port) for a received datagram whose
    message still carries its IP header — called by UDP for unbound ports,
    as 1990 BSD did.  Best-effort (dropped when the transmit pool is
    full). *)

val echoes_answered : t -> int
val bad_checksums : t -> int

val unreachables_received : t -> int
(** Destination-unreachable messages this node has received. *)
