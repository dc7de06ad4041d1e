(** IPv4 on the CAB (paper §4.1).

    Real 20-byte headers with a real one's-complement header checksum,
    fragmentation and reassembly, and the paper's processing structure:

    - All input processing runs at interrupt time.  The start-of-data
      upcall sanity-checks the header while the rest of the packet is still
      arriving; the end-of-data upcall queues fragments for reassembly and
      transfers complete datagrams to the registered higher protocol's
      input mailbox with the zero-copy [enqueue].
    - [output] takes a partially filled "header template" (the protocol
      field and addresses), completes the remaining fields (id, length,
      TTL, checksum) and hands the frame to the datalink layer, fragmenting
      when the datagram exceeds the MTU.

    Datagrams are enqueued to higher protocols *with the IP header still in
    front* so they can verify pseudo-header checksums; they strip it with
    [Message.adjust_head (header_bytes)].

    Addressing: the Nectar deployment maps CAB node ids into 10.1.0.0/16;
    routing is that inverse map (one LAN, no gateways — matching the
    paper's single-site network). *)

type addr = int

val header_bytes : int

val addr_of_cab : int -> addr
val cab_of_addr : addr -> int
val string_of_addr : addr -> string

val proto_icmp : int
val proto_tcp : int
val proto_udp : int

type t

val create : Datalink.t -> ?mtu:int -> ?ttl:int -> unit -> t
(** [mtu] (default 65535) is the IP datagram limit before fragmentation;
    set it low (e.g. 1500) to exercise the fragmentation path. *)

val datalink : t -> Datalink.t
val local_addr : t -> addr
val mtu : t -> int

val register : t -> proto:int -> Nectar_core.Mailbox.t -> unit
(** "Higher-level protocols are required to provide an input mailbox to IP;
    this mailbox constitutes the entire receive interface." *)

val alloc : Nectar_core.Ctx.t -> t -> int -> Nectar_core.Message.t
(** Allocate a transmit buffer for an [n]-byte transport segment, with
    datalink + IP headroom reserved. *)

val output :
  Nectar_core.Ctx.t ->
  t ->
  ?src:addr ->
  dst:addr ->
  proto:int ->
  Nectar_core.Message.t ->
  unit
(** Complete the header and send.  Consumes the message: its buffer is
    freed once transmitted (or immediately, for the copied fragments of an
    over-MTU datagram). *)

(** {1 Parsed header view (for transports and tests)} *)

type header = {
  total_len : int;
  id : int;
  more_fragments : bool;
  frag_off : int;  (** in bytes *)
  ttl : int;
  proto : int;
  src : addr;
  dst : addr;
}

val read_header : Nectar_core.Message.t -> header option
(** [None] when the header is malformed or its checksum is wrong. *)

val pseudo_checksum :
  Bytes.t -> pos:int -> len:int -> src:addr -> dst:addr -> proto:int -> int
(** RFC 1071 checksum of a transport segment plus the IPv4 pseudo-header
    (used by both UDP and TCP). *)

val fragments_out : t -> int
val reassembled : t -> int
val drops_reassembly : t -> int

val route_drops : t -> int
(** Datagrams and fragments dropped locally on a typed route refusal
    ([Route_down]/[No_route]) — IP is best-effort, so these never raise;
    TCP's RTO recovers on its own clock. *)
