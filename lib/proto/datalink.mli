(** The CAB datalink layer (paper §4.1).

    Receive: the start-of-packet interrupt handler reads the datalink
    header, finds the protocol binding, allocates space in the protocol's
    input mailbox (non-blocking: no space means the frame is dropped, like
    any link layer), and programs receive DMA.  The binding's
    [start_of_data] upcall fires once the protocol header has arrived —
    "so that useful work can be done while the remainder of the packet is
    being received" — and [end_of_data] fires, at interrupt level, with the
    complete message (datalink header stripped, state [Writing]): the
    protocol decides whether to [end_put] it, [enqueue] it elsewhere, or
    drop it.  Frames failing the hardware CRC are freed and counted.

    Transmit: [output] prepends the datalink header into the message's
    reserved headroom and hands the frame to the CAB transmit DMA.  The
    frame holds a reference on the buffer from the start of [output] until
    it dies, so a sender may dispose at any time, even from another
    context while [output] is still running; [~free:true] is the
    paper's "free the data area once sent" flag (the datalink disposes at
    transmit-done), [~free:false] leaves the buffer with the sender. *)

type t

type binding = {
  input_mailbox : Nectar_core.Mailbox.t;
  proto_header_len : int;
  start_of_data : (Nectar_core.Ctx.t -> unit) option;
  end_of_data :
    Nectar_core.Ctx.t -> Nectar_core.Message.t -> src_cab:int -> unit;
}

val create : ?router:Nectar_route.Router.t -> Nectar_core.Runtime.t -> t
(** [router] is the live route database every transmit consults (shared
    across CABs when passed explicitly, e.g. by [Stack.create]); by
    default a private router with the empty policy is built, which
    compiles exactly the empty policy's BFS answer: the lexicographically
    smallest shortest path. *)

val runtime : t -> Nectar_core.Runtime.t

val router : t -> Nectar_route.Router.t

val register : t -> proto:int -> binding -> unit

val alloc_frame :
  Nectar_core.Ctx.t -> t -> int -> Nectar_core.Message.t option
(** Allocate a transmit buffer with datalink headroom already reserved: the
    returned message (if the transmit pool has space) has length [n] and its
    data start positioned at the transport layer's first header byte. *)

exception No_buffer

val alloc_frame_blocking : Nectar_core.Ctx.t -> t -> int -> Nectar_core.Message.t
(** Like {!alloc_frame} but blocks until transmit-pool space is available.
    From a non-blocking context (interrupt level) it cannot wait: it raises
    {!No_buffer} when the pool is momentarily full, which callers treat as a
    droppable-frame condition (retransmission recovers). *)

val output :
  Nectar_core.Ctx.t ->
  t ->
  dst_cab:int ->
  proto:int ->
  msg:Nectar_core.Message.t ->
  free:bool ->
  unit
(** Send a message (allocated with headroom, e.g. by [alloc_frame]) to a
    remote CAB.  Zero-copy: the frame references the message's buffer in
    place, and that reference keeps the bytes live until the frame's life
    ends (the receiver drains it or the wire swallows it), however early
    the sender disposes.  The reference is taken once the route is found,
    before [output] does any work, so it covers the whole of [output]:
    another context (an interrupt, a higher-priority thread) may dispose
    the message while [output] is still running.  [free] is the paper's "free the data area once
    sent" flag: [true] hands the message over, and it is disposed at
    interrupt level when the transmit descriptor completes; [false] leaves
    it with the caller, which keeps it (a reliable sender re-sends the
    same message) and disposes it once, when its exchange ends.
    Loopback to the local CAB is not supported: Nectar CABs talk to
    themselves through local mailboxes, never the fabric.

    Raises [Router.Route_down] when the route database currently has no
    live path for the flow, and [Router.No_route] when the pair is
    statically partitioned — both *before* touching the message, so the
    caller's view and refcounts are unchanged, the message is still the
    caller's to dispose whatever [free] says, and the same buffer can be
    re-sent after reconvergence.  Reliable transports absorb [Route_down]
    into their retransmission machinery and raise [No_route] to their
    caller. *)

val output_sg :
  Nectar_core.Ctx.t ->
  t ->
  dst_cab:int ->
  proto:int ->
  msg:Nectar_core.Message.t ->
  tail:Nectar_core.Message.Slice.t list ->
  free:bool ->
  unit
(** Like {!output} but the wire payload is [msg] (headers) followed by the
    [tail] slices, as scatter/gather extents — IP fragmentation sends a
    small header message plus a slice of the original payload without
    copying it.  Ownership of the [tail] slices transfers to the frame:
    they are released when the frame's life ends, so pass fresh slices per
    transmission. *)

val drops_no_buffer : t -> int
val drops_bad_proto : t -> int

val drops_bad_len : t -> int
(** Frames whose datalink header claimed a payload length different from
    the physical frame length.  Receive buffers are sized from the header
    claim, so trusting it would let a malformed frame overrun its buffer;
    such frames are dropped whole. *)

val drops_crc : t -> int

val frames_out : t -> int

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit
(** Register the frame/drop counters as [<prefix>dl.*]. *)
