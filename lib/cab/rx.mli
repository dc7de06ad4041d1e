(** CAB receive engine: input FIFO, start-of-packet interrupt and receive
    DMA (paper §2.2, §4.1).

    The network fabric pushes frame bytes into the CAB's input FIFO; the
    first chunk triggers a start-of-packet interrupt carrying a {!pending}
    descriptor.  The datalink handler reads the header with {!read_bytes},
    then either programs {!dma_to_memory} — which copies the rest of the
    frame into CAB memory as it arrives, firing *watch* callbacks when given
    frame offsets have landed (the start-of-data upcall) and a completion
    callback with the hardware CRC verdict (the end-of-data upcall) — or
    {!discard}s the frame. *)

type t

type pending

val create :
  Nectar_sim.Engine.t ->
  Interrupts.t ->
  fifo:Nectar_sim.Byte_fifo.t ->
  ?coalesce_ns:Nectar_sim.Sim_time.span ->
  name:string ->
  unit ->
  t
(** [coalesce_ns] (default 0) enables receive-completion interrupt
    coalescing: completion callbacks arriving within [coalesce_ns] of the
    first unflushed one are delivered in a single interrupt, paying one
    dispatch charge for the whole batch.  0 keeps the paper's
    one-interrupt-per-frame behaviour exactly. *)

val set_coalesce_ns : t -> Nectar_sim.Sim_time.span -> unit
(** Adjust the coalescing window at run time (like a NIC's interrupt
    moderation register); takes effect from the next completion. *)

val set_frame_handler : t -> (Interrupts.ctx -> pending -> unit) -> unit
(** Interrupt-level handler for start-of-packet; it receives the pending
    frame with at least the first chunk arrived. *)

val sink : t -> Nectar_hub.Network.sink
(** What to register with {!Nectar_hub.Network.attach_node}. *)

val frame : pending -> Nectar_hub.Frame.t
val arrived : pending -> int
val total : pending -> int

val read_bytes : t -> pending -> int -> Bytes.t
(** Pop the next [n] arrived bytes out of the FIFO (CPU header read) into a
    fresh [Bytes.t] — a software copy, metered at the [rxread] site.  The
    caller charges its own CPU cost.  Raises if the bytes have not arrived
    yet — callers read only within the first chunk from the start-of-packet
    handler. *)

val read_view : t -> pending -> int -> Bytes.t * int
(** Like {!read_bytes}, but zero-copy: returns a borrowed view (backing
    store and offset) of the popped span inside the frame's scatter/gather
    extents — for frames on the zero-copy path, that is the sending CAB's
    mailbox buffer itself.  The datalink header decode runs per frame at
    interrupt level, so it allocates only the returned pair.  When the span
    straddles an extent boundary (it never does for the datalink header,
    which leads the first extent) the implementation falls back to a
    metered copy.  The view aliases the frame buffer: decode from it
    immediately, before the frame is recycled. *)

val dma_to_memory :
  t ->
  pending ->
  dst:Nectar_util.Region.t ->
  dst_pos:int ->
  ?watch:(int * (Interrupts.ctx -> unit)) list ->
  on_complete:(Interrupts.ctx -> crc_ok:bool -> unit) ->
  unit ->
  unit
(** Program receive DMA for the rest of the frame.  Returns immediately;
    the copy tracks arrival.  Each [(frame_offset, fn)] watch fires (at
    interrupt level) once bytes up to [frame_offset] have been copied;
    [on_complete] fires (at interrupt level) after the last byte, with the
    hardware CRC check result.  Each arriving span lands in [dst]'s backing
    as of its arrival, so the destination region may grow meanwhile.  The
    drained frame is {!Nectar_hub.Frame.release}d
    (the receiver is its last holder), returning the sender-side buffer
    references behind its extents. *)

val discard : t -> pending -> unit
(** Drain the rest of the frame from the FIFO without storing it, then
    release the frame like {!dma_to_memory} does. *)

val dropped_frames : t -> int
(** Frames discarded (for the datalink's statistics). *)

val completion_batches : t -> int
(** Coalesced completion batches flushed so far; 0 unless [coalesce_ns]
    was set. *)

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit
(** Register dropped_frames/completion_batches as [<prefix>rx.*]. *)
