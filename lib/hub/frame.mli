(** A Nectar fiber frame: the unit the HUB network transports between CABs.

    A frame's bytes are scatter/gather extents over the sender's live
    buffers: one inline extent (for the zero-copy CAB path, the mailbox
    buffer holding the datalink frame itself, so transmit never snapshots
    payload), plus a tail list only when a layer prepends a freshly built
    header to payload sliced out of another message (IP fragmentation).

    The trailing CRC-32 the CAB hardware appends on the wire is modelled by
    {!wire_crc}, computed over the extents when the frame is latched for
    transmission (a {!create}d frame takes it at its first read instead).
    Because extents alias memory a reliable sender may
    retransmit, fault injection first privatises the frame's bytes and
    corrupts the snapshot, so the receiving CAB's hardware
    CRC check ({!crc_ok}) fails exactly like a real line error while the
    sender's buffer stays intact.

    One record carries a CAB frame from the sender's descriptor to the
    receiver's completion interrupt: the transmit side's route, header
    size and {!owner} (what backs the extents, and what to do when the
    descriptor completes and when the frame dies), and the receive side's
    arrival counters, the waker of the receive DMA waiting on it and the
    receiver's per-frame state ({!rx}).

    Whoever ends a frame's life — the receiving CAB once its rx DMA has
    drained it, or the network when a fault or downed link swallows it —
    must call {!release} exactly once; that drops the sender-side buffer
    references backing the extents. *)

type extent = { ereg : Nectar_util.Region.t; eoff : int; elen : int }
(** An extent names its region, not the region's current bytes: the
    sender's heap may grow the region while the frame is in flight, and
    every read must see the live backing. *)

(** What backs a frame's extents: a value and the two things its sender
    does with it, both static per sender so a frame carries no closure.
    [release] drops the buffer references (once, from {!release} or
    when {!corrupt} privatises the frame); [sent] runs when the transmit descriptor completes (from
    {!sent}, the CAB's tx-done interrupt). *)
type owner = Unowned | Owner : { value : 'a; ops : 'a ops } -> owner

and 'a ops = { release : 'a -> unit; sent : 'a -> unit }

type rx = ..
(** The receiver's per-frame state, defined by the receive engine. *)

type rx += Idle  (** not being received (every new frame) *)

type t = {
  mutable id : int;  (** unique per network, for tracing; latched *)
  src : int;  (** source node id *)
  mutable reg : Nectar_util.Region.t;  (** the inline extent *)
  mutable off : int;
  mutable len : int;
  mutable tail : extent list;  (** further extents; [] unless scatter/gather *)
  mutable crc_memo : int;
      (** the wire CRC once taken; read it through {!wire_crc}, which
          takes a {!create}d frame's CRC on the first read *)
  mutable bits : int;  (** life-cycle flags and the header size *)
  route : int list;  (** the source route, for a CAB frame *)
  mutable owner : owner;
  mutable rx : rx;
  mutable arrived : int;  (** bytes pushed into the receiver's FIFO *)
  mutable consumed : int;  (** bytes the receiver popped from it *)
  mutable waiter : Nectar_sim.Engine.waker;
      (** the receive DMA parked until more bytes arrive, or
          {!Nectar_sim.Engine.no_waker} *)
}

val create : id:int -> src:int -> data:Bytes.t -> t
(** Single-extent frame over all of [data] (wrapped in a fixed region),
    unowned — for callers owning private bytes (tests, diagnostics, the
    wire-level fleet).  Its CRC is taken at the first read ({!wire_crc},
    {!crc_ok}, {!corrupt}), not here, so [data] must not change while the
    frame is live: a change before that read is sent as good bytes, and
    only a change after it is a wire corruption. *)

val of_wire : id:int -> src:int -> wire_crc:int -> data:Bytes.t -> t
(** Like {!create}, but keeping the sender's [wire_crc] instead of
    computing one: a frame rebuilt on the far side of a partition cut
    from its payload snapshot, whose bytes fault injection may have
    damaged before the cut. *)

val filler : t
(** An unowned 1-byte frame that never travels: it fills the vacated
    cells of frame rings, so a ring keeps no sent frame alive.  Shared by
    every ring and never written. *)

val outgoing :
  src:int ->
  route:int list ->
  header_bytes:int ->
  Nectar_util.Region.t ->
  off:int ->
  len:int ->
  tail:extent list ->
  owner ->
  t
(** A CAB transmit descriptor: extents not yet checked, no id and no CRC
    until {!latch}.  [header_bytes] (>= 1) times the receiver's
    start-of-packet event. *)

val latch : t -> id:int -> unit
(** Transmit DMA dequeue: check that every extent lies inside its region's
    current backing ([Invalid_argument] otherwise), take the id and
    compute the hardware CRC over the bytes as they are now. *)

val header_bytes : t -> int
val length : t -> int

val wire_crc : t -> int
(** The CRC the sender put on the wire: {!latch}'s snapshot, the far
    side's value for {!of_wire}, and for a {!create}d frame the CRC of
    its bytes at the first call (later calls return the same value). *)

val crc_ok : t -> bool
(** Receiver-side hardware CRC check: recompute over the extents and
    compare with {!wire_crc}. *)

val set_crc_verdict : t -> bool -> unit
(** The receive DMA latches {!crc_ok} here before it releases the
    frame, for the completion interrupt to read with {!crc_verdict}. *)

val crc_verdict : t -> bool

val inline_bytes : t -> pos:int -> len:int -> Bytes.t
(** The inline extent's current backing when frame range
    [\[pos, pos + len)] lies inside it, else [Bytes.empty]: an in-place
    read, reported to vet like every read of the extents, that allocates
    nothing.  The range starts at [t.off + pos] in the result. *)

val blit : t -> pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit

val corrupt : ?burst:int -> t -> unit
(** Fault injection: privatise the frame (take a pending {!wire_crc},
    copy the extents into fresh bytes and release the source-buffer
    references at once; a later {!release} is still required), then flip
    one bit in each of [burst] contiguous bytes centred mid-frame. *)

val release : t -> unit
(** End of the frame's life: drop the owner's buffer references.  Exactly
    once per frame — a second call raises [Invalid_argument]. *)

val released : t -> bool

val sent : t -> unit
(** The transmit descriptor completed: run the owner's [sent]. *)
