(** Network-device mode (paper §5.1): the CAB as a conventional network
    interface, with all protocol processing on the host.

    "The driver and the server share a pool of buffers: to send a packet the
    driver writes the packet into a free buffer in the output pool and
    notifies the server ...; when a packet is received the server finds a
    free input buffer, receives the packet into the buffer, and informs the
    driver."

    This is the paper's slow baseline (6.4 Mbit/s in Figure 8; the UNIX
    socket latency of the §1 factor-of-5 claim): every packet pays host
    socket/transport/IP costs, a programmed-I/O copy across VME, a CAB
    interrupt and relay thread on the way out, and the mirror image on the
    way in — with a 1500-byte MTU.

    The service here is a UDP-style datagram socket; the reliable stream
    used by the throughput bench is layered on it by {!Host_stream}. *)

type t

val mtu : int

val create : Cab_driver.t -> t
(** Builds its own datalink layer on the driver's CAB. *)

val bind : t -> port:int -> unit

val send_datagram :
  Nectar_core.Ctx.t -> t -> dst_cab:int -> port:int -> string -> unit
(** Host transmit path for one datagram (must fit in the MTU). *)

val recv_datagram : Nectar_core.Ctx.t -> t -> port:int -> string
(** Block (in the driver) until a datagram arrives on [port]. *)
