(** The Nectar network fabric: fiber links and HUB crossbar switches
    (paper §2.1).

    A network is built from HUBs (16x16 crossbars with a controller) and
    nodes (CABs) attached to HUB ports; HUB-to-HUB links join ports of two
    HUBs.  CABs address each other with *source routes* — the list of output
    ports to take at each HUB along the path — exactly as in the paper; the
    route database a real deployment configures by hand is compiled by the
    routing layer (lib/route) with a BFS over the topology accessors below.

    Transfer model: cut-through circuit switching.  [transmit] (called from
    the sending CAB's fiber-output process) walks the source route in
    place, in route order: at each HUB a controller command
    ({!hub_setup_ns}), then that HUB's output port, held while it waits
    for the next.  With the whole path held it streams the frame in
    chunks ({!chunk_bytes}) at fiber rate ({!fiber_ns_per_byte}) directly
    into the destination node's input FIFO, then releases the ports in
    reverse route order, the destination side's first.  A full
    destination FIFO blocks the stream — the HUB's low-level flow
    control — and, transitively, any traffic contending for the held
    ports.  Nothing is allocated per hop or per chunk.

    The fabric's hardware constants are defined here and nowhere else. *)

type t

type node_id = int

(** What a CAB registers so the fabric can deliver to it.  [on_frame_start]
    fires after the frame's first chunk has been pushed into [in_fifo]
    (the hardware's start-of-packet event); [on_chunk] after every chunk,
    with cumulative [arrived] bytes.  Both are called outside any process
    and must not block. *)
type sink = {
  in_fifo : Nectar_sim.Byte_fifo.t;
  on_frame_start : Frame.t -> unit;
  on_chunk : Frame.t -> arrived:int -> last:bool -> unit;
}

type fault_verdict = [ `Deliver | `Drop | `Corrupt | `Corrupt_burst of int ]
(** Per-frame fault-hook verdict: [`Corrupt] flips a single bit,
    [`Corrupt_burst k] flips a bit in each of [k] contiguous bytes (a
    noise burst); both are caught by the receiver's hardware CRC. *)

(** {1 Fabric constants (paper section 2.1)} *)

val ports_per_hub : int
(** paper: a HUB is a 16x16 crossbar. *)

val fiber_ns_per_byte : int
(** paper: 100 Mbit/s fiber. *)

val hub_setup_ns : int
(** paper: 700 ns connection setup per HUB. *)

val hop_latency_ns : int
(** Propagation through one HUB once its circuit is set up. *)

val chunk_bytes : int
(** Event granularity of streamed transfers. *)

val create : Nectar_sim.Engine.t -> hubs:int -> unit -> t

val engine : t -> Nectar_sim.Engine.t

val connect_hubs : t -> int * int -> int * int -> unit
(** [connect_hubs t (hub_a, port_a) (hub_b, port_b)] joins two HUBs with a
    bidirectional fiber pair. *)

(** {1 Partition boundaries}

    Under the parallel engine (lib/sim Parallel) a topology is split
    across several networks, one per domain; a trunk whose two ends land
    in different partitions becomes a {e remote link}: each half is a
    [connect_remote] port carrying an opaque [link] id, and the frame's
    journey is split in two.  The sending side runs [transmit] as usual
    up to the boundary port, serializes the frame, then calls the
    installed {!set_remote_forward} hook with a payload snapshot — an
    immutable string, the one sanctioned cross-domain copy — plus the
    sender-side [wire_crc] and the remainder of the source route.  The
    receiving side calls {!inject}, which rebuilds the frame with that
    CRC (so corruption before the cut still fails the far receiver's
    {!Frame.crc_ok}) and finishes delivery from the entry hub under that
    partition's own contention.

    A remote trunk is store-and-forward with a fixed [latency_ns]
    (the parallel scheduler's lookahead must be <= the minimum such
    latency), unlike the cut-through local circuit. *)

val connect_remote : t -> int * int -> link:int -> latency_ns:int -> unit
(** [connect_remote t (hub, port) ~link ~latency_ns] marks a port as the
    local half of a partition-boundary trunk.  [link] identifies the
    trunk to the forward hook; [latency_ns] (positive) is the one-way
    boundary latency added to the hand-off timestamp. *)

val set_remote_forward :
  t ->
  (link:int ->
  at:Nectar_sim.Sim_time.t ->
  route:int list ->
  src:node_id ->
  frame_id:int ->
  wire_crc:int ->
  payload:string ->
  unit)
  option ->
  unit
(** Install the boundary hand-off hook (the parallel harness wires this
    to [Parallel]'s [send]).  [at] is the simulated arrival time at the
    far side; [route] is the not-yet-walked tail of the source route,
    to be resolved from the far half's hub.  A frame reaching a remote
    port with no hook installed raises [Invalid_argument]. *)

val inject :
  ?header_bytes:int ->
  t ->
  hub:int ->
  src:node_id ->
  frame_id:int ->
  wire_crc:int ->
  route:int list ->
  string ->
  unit
(** Continue a frame that crossed a partition boundary: rebuild it from
    the payload snapshot and the sender's [wire_crc] (no CRC is
    recomputed) and deliver along [route] starting at the entry [hub].
    Spawns its own process (call it from a timer at the hand-off [at]
    time); [src] and [frame_id] are the sender-partition values, so
    traces and dedup keys survive the crossing.  [header_bytes] (default
    32) must be at least 1, as for {!transmit}.  The route may cross a
    further remote port — multi-partition paths chain hand-offs. *)

val attach_node : t -> hub:int -> port:int -> sink -> node_id
(** Attach a CAB to a HUB port; returns its node id (dense, from 0). *)

val node_count : t -> int

(** {1 Topology introspection}

    Read-only accessors the routing-policy compiler (lib/route) builds
    source routes from. *)

type port_peer =
  | Free
  | To_node of node_id
  | To_hub of int * int
  | To_remote of int
(** What the far end of a HUB port is wired to: nothing, a node's
    attachment fiber, [(hub, port)] of the peer HUB, or — under the
    parallel engine — a trunk whose far end lives in another partition's
    network, identified by an opaque link id (see {!connect_remote}). *)

val hub_count : t -> int
val peer : t -> hub:int -> port:int -> port_peer
val port_up : t -> hub:int -> port:int -> bool
val node_attachment : t -> node_id -> int * int
(** [(hub, port)] a node is attached to. *)

val transmit :
  ?header_bytes:int -> t -> src:node_id -> route:int list -> Frame.t -> unit
(** Stream a frame along [route].  Blocks the calling process for connection
    setup, serialization, port contention and destination-FIFO backpressure;
    returns once the last byte has entered the destination FIFO.  Dropped
    frames (fault injection or a downed link) still consume wire time and
    are {!Frame.release}d here — the receiver will never drain them, so the
    network is their last holder; delivered frames are released by the
    receiving CAB's rx engine instead.  [header_bytes] (default 32) sizes
    the first chunk so the receiver's start-of-packet event fires as soon
    as the headers are in; it must be at least 1 ([Invalid_argument]
    otherwise, before anything is sent: a 0-byte first chunk would never
    advance the stream). *)

val set_fault_hook : t -> (Frame.t -> fault_verdict) option -> unit
(** Fault injection for loss/corruption tests.  [`Corrupt] flips a bit in
    the frame payload so the receiver's hardware CRC check fails;
    [`Corrupt_burst k] damages [k] contiguous bytes.  {!Frame.corrupt}
    privatises the frame first, so the damage lands on a private
    snapshot, never on the sender's (possibly retransmitted) buffer. *)

(** {1 Link faults}

    Every port carries an up/down flag (default up).  A frame whose path
    crosses any downed port — the source node's attachment, a HUB-to-HUB
    trunk, or the destination attachment — is blackholed: it consumes
    wire time but is never delivered, and is counted in
    {!link_down_drops}. *)

val set_link_up : t -> hub:int -> port:int -> bool -> unit
(** Transition-only: setting a port to its current state is a no-op
    (double-down / double-up are idempotent) and does not notify
    watchers. *)

val on_link_change : t -> (hub:int -> port:int -> up:bool -> unit) -> unit
(** Register a watcher called on every real up/down transition of any
    port ({!set_link_up} and {!set_node_up}).  Called synchronously from
    the caller's context; must not block. *)

val set_node_up : t -> node_id -> bool -> unit
(** Take a node's attachment link down/up — how a link flap or a crashed
    CAB looks to the fabric (the board neither sends nor receives). *)

val node_up : t -> node_id -> bool

val next_frame_id : t -> int

(** {1 Wire accounting}

    Conservation invariant (asserted by the chaos campaigns), per
    network: [frames_sent + remote_injections
    = frames_delivered + fault_drops + link_down_drops
      + remote_handoffs].
    On a single-partition world the remote terms are zero and this is
    the original invariant. *)

val frames_sent : t -> int
val bytes_sent : t -> int
val frames_delivered : t -> int
val fault_drops : t -> int
val frames_corrupted : t -> int
val link_down_drops : t -> int

val remote_handoffs : t -> int
(** Frames that left this partition through a remote port. *)

val remote_injections : t -> int
(** Frames that entered this partition via {!inject}. *)

val port_waits : t -> int
(** Circuits whose setup took longer than the unavoidable
    per-hop controller time — i.e. that queued behind another circuit on
    some HUB controller or output port. *)

val port_wait_ns : t -> int
(** Total simulated time circuits spent queued during setup (beyond the
    per-hop controller service time), summed over all transfers — the
    fleet bench's HUB port-contention measure. *)

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit
(** Register the wire accounting counters as [<prefix>net.*]. *)
