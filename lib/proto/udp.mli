(** UDP on the CAB (paper §4.1: UDP has "its own server thread").

    Real 8-byte headers and a real pseudo-header checksum, computed in
    software on the CAB CPU (charged per byte, like TCP's).  A system
    thread drains the UDP input mailbox and demultiplexes datagrams into
    per-port delivery mailboxes with the zero-copy [enqueue]; delivered
    messages carry the payload only. *)

type t

val header_bytes : int

val create : Ipv4.t -> ?checksum:bool -> ?icmp:Icmp.t -> unit -> t
(** With [icmp], datagrams to unbound ports answer with ICMP port
    unreachable (1990 BSD behaviour). *)

val bind : t -> port:int -> Nectar_core.Mailbox.t -> unit
(** Deliver datagrams addressed to [port] into the given mailbox. *)

val alloc : Nectar_core.Ctx.t -> t -> int -> Nectar_core.Message.t

val send :
  Nectar_core.Ctx.t ->
  t ->
  src_port:int ->
  dst:Ipv4.addr ->
  dst_port:int ->
  Nectar_core.Message.t ->
  unit

val send_string :
  Nectar_core.Ctx.t ->
  t ->
  src_port:int ->
  dst:Ipv4.addr ->
  dst_port:int ->
  string ->
  unit

val datagrams_delivered : t -> int
val drops_no_port : t -> int
