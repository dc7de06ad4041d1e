(** A CAB: the Nectar Communication Accelerator Board (paper §2.2).

    Assembles the CPU model, data memory with protection, input/output
    FIFOs, transmit and receive DMA, hardware CRC (in {!Nectar_hub.Frame}),
    the interrupt controller and the VME interface, attached to a HUB port.

    The transmit path mirrors the hardware pipeline: {!send} enqueues a
    descriptor — the frame record itself, whose extents reference CAB
    memory in place (zero-copy) — on a ring; the DMA engine latches the
    frame's id and CRC, reads it out of memory into the output FIFO (after
    which the owner's [sent] runs at interrupt level — the descriptor is
    complete, and the owner's [release] frees the retained buffer
    references once the frame's life ends) and passes the frame on a
    second ring to a fiber process, which drains the FIFO onto the wire
    through the HUB circuit, stalling on FIFO underrun or destination
    backpressure.  The CPU is never charged for any of this — the paper's
    central hardware point. *)

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
    owners' [sent] runs, and sender buffers are released when the frames
    die on the dark fiber — no leaks).  Peers observe timeouts and
    recover. *)

val restart : t -> unit
(** Bring the board back (a warm restart: runtime state survived). *)

val powered : t -> bool

val send : t -> Nectar_hub.Frame.t -> unit
(** Queue a frame built with {!Nectar_hub.Frame.outgoing} from this CAB's
    {!node_id}.  Returns immediately; the frame's owner [sent] runs at
    interrupt level once transmit DMA has finished reading the data (the
    *descriptor* is then done — but with the frame aliasing the sender's
    buffer, the bytes themselves are pinned until the frame dies, which is
    what the owner's [release] observes).  [release] runs exactly once when
    the frame's life ends: after the receiving CAB drains it, or on the
    wire for dropped/blackholed frames.  Raises [Invalid_argument] for an
    empty frame or a header size below 1. *)

val frames_tx : t -> int

val in_fifo_level : t -> int
(** Bytes currently sitting in the input FIFO (0 once receive DMA or a
    discard has drained every arrived frame). *)
