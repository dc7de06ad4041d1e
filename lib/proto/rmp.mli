(** RMP: the Nectar-specific reliable message protocol (paper §4, §6.2) —
    "a simple stop-and-wait protocol".

    By default ([window = 1]) one message is outstanding per channel (a
    (destination CAB, port) pair); the sender blocks until the receiver's
    acknowledgement, with timeout-driven retransmission.  No software
    checksum is computed — reliability rides on the hardware CRC (that is
    the Figure 7 point: RMP reaches ~90 Mbit/s where checksumming TCP
    cannot).

    [create ~window:n] with [n > 1] enables a beyond-the-paper sliding
    window: up to [n] unacknowledged messages per channel, cumulative
    acknowledgements (one per arriving data frame) and a per-channel
    retransmit daemon (head-of-window only — the receiver stashes
    out-of-order frames, so one head retransmission repairs a loss).
    Windowed {!send} returns once the message is admitted to the window
    and transmitted; use {!flush} to wait for acknowledgement of
    everything sent.

    Delivery semantics at every window size: exactly-once, in order, per
    channel; duplicate frames from retransmissions are acknowledged but
    not re-delivered. *)

type t

val header_bytes : int

exception Delivery_timeout of { dst_cab : int; dst_port : int }

val create :
  Datalink.t -> ?rto:Nectar_sim.Sim_time.span -> ?window:int -> unit -> t
(** [rto] (default 5 ms) is the retransmission interval; a message is
    retransmitted at most 8 times.  [window] (default 1) is the
    per-channel limit on unacknowledged messages; 1 is the paper's
    stop-and-wait, byte-for-byte. *)

val alloc : Nectar_core.Ctx.t -> t -> int -> Nectar_core.Message.t

val send :
  Nectar_core.Ctx.t ->
  t ->
  dst_cab:int ->
  dst_port:int ->
  Nectar_core.Message.t ->
  unit
(** Reliable send.  The message is RMP's from here on: it is disposed
    once, when its exchange ends — acknowledged, given up, or refused.
    With [window = 1]: blocks until the message is acknowledged and
    raises {!Delivery_timeout} after the retry budget.  With
    [window > 1]: blocks only while the window is full; acknowledgement,
    retransmission and disposal happen asynchronously, and a channel
    whose retry budget was exhausted raises {!Delivery_timeout} on this
    and every later send (the failure latches — see {!flush}).  At every
    window a statically partitioned destination raises
    [Router.No_route] at once, with nothing sent or retried; a
    [Router.Route_down] refusal is retried like a lost frame.
    Concurrent senders on one channel are serialised FIFO. *)

val flush : Nectar_core.Ctx.t -> t -> dst_cab:int -> dst_port:int -> unit
(** Block until every message sent on the channel has been acknowledged.
    Raises {!Delivery_timeout} if the channel's retry budget was exhausted
    (messages still unacknowledged at that point are dropped and counted
    in {!failed_sends}).  No-op at [window = 1]. *)

val send_string :
  Nectar_core.Ctx.t -> t -> dst_cab:int -> dst_port:int -> string -> unit

val window : t -> int

val rto : t -> Nectar_sim.Sim_time.span
(** The retransmission interval: the interval between send (or previous
    retransmission) and the next retry while unacknowledged.  Failover
    campaigns use it to bound the blackout window. *)

val delivered : t -> int
val duplicates : t -> int
val retransmits : t -> int

val failed_sends : t -> int
(** Messages abandoned by a windowed channel whose retry budget ran out.
    Always 0 at [window = 1] (the failure is raised at the blocked sender
    instead). *)

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit
(** Register delivered/duplicates/retransmits/failed_sends as
    [<prefix>rmp.*]. *)
