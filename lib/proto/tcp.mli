(** TCP on the CAB (paper §4.2).

    Structure follows the paper: TCP runs "almost entirely in system
    threads, rather than at interrupt time", protecting shared state with
    mutual-exclusion locks.  The *input thread* blocks on the TCP input
    mailbox, checksums the segment, runs the state machine and passes data
    to the user's receive mailbox with the zero-copy [enqueue]; the *send
    thread* services the send-request mailbox (how hosts hand data to TCP);
    CAB-resident senders call {!send} directly "without involving the TCP
    send thread".

    The protocol itself is era-appropriate (pre-congestion-avoidance):
    3-way handshake, cumulative ACKs, sliding window bounded by the peer's
    advertised window, retransmission on an adaptive RTO (SRTT + 4*RTTVAR,
    exponential backoff), orderly FIN teardown with TIME_WAIT, RST on
    unknown connections.  Out-of-order segments are dropped (the fabric
    delivers in order; loss comes only from fault injection and buffer
    exhaustion) and there is no SACK or delayed ACK.

    The software checksum — a real one's-complement sum over the segment
    plus pseudo-header, charged per byte on the CAB CPU — can be disabled
    per instance, reproducing Figure 7's "TCP w/o checksum" curve.

    For experimentation (the paper §3.1 plan to compare interrupt-time
    against thread-based input processing), [input_mode] selects where
    input processing runs: [`Thread] (the paper's implementation) or
    [`Interrupt] (processing in IP's end-of-data upcall context). *)

type t

type conn

exception Connection_refused
exception Connection_timed_out
exception Connection_reset

val create :
  Ipv4.t ->
  ?software_checksum:bool ->
  ?mss:int ->
  ?window:int ->
  ?input_mode:[ `Thread | `Interrupt ] ->
  unit ->
  t

val listen : t -> port:int -> on_accept:(conn -> unit) -> unit
(** Accept connections on [port]; [on_accept] runs in the input-processing
    context when a connection reaches Established. *)

val connect :
  Nectar_core.Ctx.t -> t -> dst:Ipv4.addr -> dst_port:int -> ?src_port:int ->
  unit -> conn
(** Active open; blocks until Established.  Raises {!Connection_refused} on
    RST, {!Connection_timed_out} after SYN retries. *)

val send : Nectar_core.Ctx.t -> conn -> string -> unit
(** Queue bytes on the connection; blocks while the send buffer is full.
    Raises {!Connection_reset} if the peer tore the connection down, or
    {!Connection_timed_out} if our own retransmission budget expired (the
    timer retried with exponential backoff capped at 2 s until the budget
    ran out with no ACK progress, then aborted the connection). *)

val failure : conn -> [ `None | `Reset | `Timed_out ]
(** How the connection died, if it did: [`Reset] by the peer,
    [`Timed_out] by the local retransmission budget. *)

val recv_mailbox : conn -> Nectar_core.Mailbox.t
(** In-order received data lands here as messages (payload only). *)

val recv_string : Nectar_core.Ctx.t -> conn -> string
(** Take the next data message (blocking). *)

val close : Nectar_core.Ctx.t -> conn -> unit
(** Send FIN after pending data; returns once the FIN is acknowledged. *)

val state_name : conn -> string
val remote : conn -> Ipv4.addr * int

(** {1 Stats (for the benches)} *)

val segments_in : t -> int
val segments_out : t -> int
val retransmissions : t -> int
val bad_checksums : t -> int
val send_request_mailbox : t -> Nectar_core.Mailbox.t
val conn_by_id : t -> int -> conn option
val conn_id : conn -> int

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit
(** Register segment/retransmission counters as [<prefix>tcp.*]. *)
