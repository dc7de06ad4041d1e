(** A CAB: the Nectar Communication Accelerator Board (paper §2.2).

    Assembles the CPU model, data memory with protection, input/output
    FIFOs, transmit and receive DMA, hardware CRC (in {!Nectar_hub.Frame}),
    the interrupt controller and the VME interface, attached to a HUB port.

    The transmit path mirrors the hardware pipeline: {!send_frame} enqueues
    a descriptor whose scatter/gather extents reference CAB memory in place
    (zero-copy); the DMA engine reads the frame out of memory into the
    output FIFO (after which [on_done] fires at interrupt level — the
    descriptor is complete, and the frame's [release] callback frees the
    retained buffer references once the frame's life ends); a fiber process
    drains the FIFO onto the wire through the HUB circuit, stalling on FIFO
    underrun or destination backpressure.  The CPU is never charged for any
    of this — the paper's central hardware point. *)

type t

val create :
  ?data_bytes:int ->
  Nectar_hub.Network.t ->
  hub:int ->
  port:int ->
  name:string ->
  t
(** [data_bytes] sizes the board's data memory (default
    {!Costs.data_memory_bytes}, 1 MB).  Host memory backs only the bytes
    the buffer heap has handed out (see {!Memory}), so a thousand-board
    world at the default costs a few KB of data memory per board. *)

val name : t -> string
val node_id : t -> Nectar_hub.Network.node_id
val engine : t -> Nectar_sim.Engine.t
val cpu : t -> Nectar_sim.Cpu.t
val memory : t -> Memory.t
val irq : t -> Interrupts.t
val rx : t -> Rx.t
val network : t -> Nectar_hub.Network.t

val vme : t -> Vme.t option
val attach_vme : t -> Vme.t -> unit
(** Plug the board into a host's VME backplane. *)

(** {1 Crash and restart (fault injection)} *)

val crash : t -> unit
(** Tear the board off the fabric mid-flight: its attachment link goes
    down, so everything it sends or is sent is lost until {!restart}.
    Already-queued transmit descriptors still complete their DMA (their
    [on_done] fires and sender buffers are released — no leaks); the
    frames die on the dark fiber.  Peers observe timeouts and recover. *)

val restart : t -> unit
(** Bring the board back (a warm restart: runtime state survived). *)

val powered : t -> bool

val send_frame :
  t ->
  route:int list ->
  header_bytes:int ->
  ?release:(unit -> unit) ->
  extents:(Nectar_util.Region.t * int * int) list ->
  on_done:(Interrupts.ctx -> unit) ->
  unit ->
  unit
(** Queue a frame for transmission as scatter/gather [extents] referencing
    CAB memory directly — no snapshot is taken; the zero-copy tx path.
    Returns immediately; [on_done] runs at interrupt level once transmit
    DMA has finished reading the data (the *descriptor* is then done — but
    with the frame aliasing the sender's buffer, the bytes themselves are
    pinned until the frame dies, which is what [release] observes).
    [release] fires exactly once when the frame's life ends: after the
    receiving CAB drains it, or on the wire for dropped/blackholed frames;
    callers drop their retained buffer references there.  [header_bytes] is
    the size of the frame's headers, used to time the receiver's
    start-of-packet event. *)

val frames_tx : t -> int

val in_fifo_level : t -> int
(** Bytes currently sitting in the input FIFO (0 once receive DMA or a
    discard has drained every arrived frame). *)
