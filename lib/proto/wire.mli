(** On-the-wire formats shared by the protocol modules.

    The datalink header is Nectar-specific (the paper leaves its exact
    layout unspecified; this is a faithful reconstruction carrying what the
    paper's datalink needs: a protocol discriminator for input-mailbox
    dispatch, the payload length for buffer allocation at start-of-packet
    time, and source/destination CAB ids). *)

(** {1 Datalink header (12 bytes)} *)

val dl_header_bytes : int

(** Protocol discriminators (the datalink dispatch key). *)

val proto_ip : int
val proto_dgram : int
val proto_rmp : int
val proto_reqresp : int

val proto_netdev : int
(** Raw packets relayed for network-device mode (paper §5.1). *)

val write_dl :
  Bytes.t ->
  pos:int ->
  proto:int ->
  payload_len:int ->
  src_cab:int ->
  dst_cab:int ->
  unit
(** Write a datalink header in place at [pos] (flags 0, reserved 0). *)

(** Fields of the datalink header at [pos], read in place. *)

val dl_proto : Bytes.t -> int -> int
val dl_payload_len : Bytes.t -> int -> int
val dl_src_cab : Bytes.t -> int -> int
val dl_dst_cab : Bytes.t -> int -> int

(** {1 Port numbers}

    Well-known mailbox ports on every CAB's runtime (the (cab, port) pair is
    the paper's network-wide mailbox address). *)

val port_ip_input : int
val port_tcp_input : int
val port_udp_input : int
val port_tcp_send_request : int
val port_first_user : int
