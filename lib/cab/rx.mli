(** CAB receive engine: input FIFO, start-of-packet interrupt and receive
    DMA (paper §2.2, §4.1).

    The network fabric pushes frame bytes into the CAB's input FIFO; the
    first chunk triggers a start-of-packet interrupt carrying the frame.
    The datalink handler reads the header in place with {!read_view}, then
    either programs receive DMA — which copies the rest of the frame into
    CAB memory as it arrives, raising at most one *watch* interrupt once a
    given frame offset has landed (the start-of-data upcall) and a
    completion interrupt with the hardware CRC verdict (the end-of-data
    upcall) — or {!discard}s the frame.

    The frame record itself carries the receive state: its arrival
    counters, the waker of the DMA waiting on it, and the client's value
    ({!receive}), so a received frame costs the receiver one record for
    that value and one process per DMA and per interrupt. *)

type t

val create :
  Nectar_sim.Engine.t ->
  Interrupts.t ->
  fifo:Nectar_sim.Byte_fifo.t ->
  name:string ->
  t

val set_coalesce_ns : t -> Nectar_sim.Sim_time.span -> unit
(** Receive-completion interrupt coalescing, set at run time like a NIC's
    interrupt moderation register (from the next completion on):
    completions arriving within the window of the first unflushed one are
    delivered in a single interrupt, paying one dispatch charge for the
    whole batch.  0, the default, keeps the paper's one interrupt per
    frame exactly. *)

val set_frame_handler :
  t -> (Interrupts.ctx -> Nectar_hub.Frame.t -> unit) -> unit
(** Interrupt-level handler for start-of-packet; it receives the frame
    with at least the first chunk arrived. *)

val sink : t -> Nectar_hub.Network.sink
(** What to register with {!Nectar_hub.Network.attach_node}. *)

val arrived : Nectar_hub.Frame.t -> int
val total : Nectar_hub.Frame.t -> int

val read_view : t -> Nectar_hub.Frame.t -> int -> Bytes.t
(** Pop the next [n] arrived bytes out of the FIFO (the CPU's header
    read) without copying: returns the backing store of the popped span,
    which starts at {!view_offset} in it — for frames on the zero-copy
    path, the sending CAB's mailbox buffer itself.  The datalink header
    decode runs per frame at interrupt level, so this allocates nothing.
    When the span does not lie in the frame's inline extent (it always
    does for the datalink header, which leads it) the implementation falls
    back to a metered copy.  The view aliases the frame buffer: decode
    from it immediately, before the frame is recycled.  Raises if the
    bytes have not arrived yet. *)

val view_offset : t -> int
(** Where the span of the last {!read_view} starts in its result. *)

type ('c, 'a) client = {
  watched : Interrupts.ctx -> Nectar_hub.Frame.t -> 'c -> 'a -> unit;
      (** a watch interrupt ("rx-watch") *)
  completed : Interrupts.ctx -> Nectar_hub.Frame.t -> 'c -> 'a -> unit;
      (** the completion interrupt ("rx-done"); the hardware CRC verdict
          is {!Nectar_hub.Frame.crc_verdict} *)
}
(** A receiver of DMA'd frames: static handlers, given a context the
    receiver keeps (the datalink's protocol binding, say) and the
    frame's own value (its receive buffer). *)

val receive :
  t ->
  Nectar_hub.Frame.t ->
  dst:Nectar_util.Region.t ->
  dst_pos:int ->
  watch_at:int ->
  ('c, 'a) client ->
  'c ->
  'a ->
  unit
(** Program receive DMA for the rest of the frame.  Returns immediately;
    the copy tracks arrival.  Once bytes up to frame offset [watch_at]
    ([max_int]: none) have been copied, the client's [watched] runs once
    at interrupt level; [completed] runs at interrupt level after the last
    byte.  Each arriving span lands in [dst]'s backing as of its arrival,
    so the destination region may grow meanwhile.  The drained frame is
    {!Nectar_hub.Frame.release}d (the receiver is its last holder),
    returning the sender-side buffer references behind its extents. *)

val discard : t -> Nectar_hub.Frame.t -> unit
(** Drain the rest of the frame from the FIFO without storing it, then
    release the frame like {!receive} does. *)

val dropped_frames : t -> int
(** Frames discarded (for the datalink's statistics). *)

val completion_batches : t -> int
(** Coalesced completion batches flushed so far; 0 unless
    {!set_coalesce_ns} opened a window. *)

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit
(** Register dropped_frames/completion_batches as [<prefix>rx.*]. *)
