(** A Nectar fiber frame: the unit the HUB network transports between CABs.

    A frame is a scatter/gather list of [(region, off, len)] extents over the
    sender's live buffers — typically one extent pointing straight into the
    mailbox buffer holding the datalink frame, so transmit never snapshots
    payload.  Multi-extent frames let a layer prepend a freshly built header
    to payload sliced out of another message (IP fragmentation).

    The trailing CRC-32 the CAB hardware appends on the wire is modelled by
    [wire_crc], computed over the extents at creation.  Because extents
    alias memory a reliable sender may retransmit, fault injection first
    {!detach}es the frame (privatising the bytes) and corrupts the snapshot,
    so the receiving CAB's hardware CRC check ({!crc_ok}) fails exactly like
    a real line error while the sender's buffer stays intact.

    Whoever ends a frame's life — the receiving CAB once its rx DMA has
    drained it, or the network when a fault or downed link swallows it —
    must call {!release} exactly once; that drops the sender-side buffer
    references backing the extents. *)

type t = {
  id : int;  (** unique per network, for tracing *)
  src : int;  (** source node id *)
  mutable extents : extent list;
  total : int;
  wire_crc : int;
  mutable on_release : unit -> unit;
  mutable released : bool;
}

and extent = { ereg : Nectar_util.Region.t; eoff : int; elen : int }
(** An extent names its region, not the region's current bytes: the
    sender's heap may grow the region while the frame is in flight, and
    every read must see the live backing. *)

val create : id:int -> src:int -> data:Bytes.t -> t
(** Single-extent frame over all of [data] (wrapped in a fixed region),
    with a no-op release — for callers owning private bytes (tests,
    diagnostics). *)

val of_wire : id:int -> src:int -> wire_crc:int -> data:Bytes.t -> t
(** Like {!create}, but keeping the sender's [wire_crc] instead of
    computing one: a frame rebuilt on the far side of a partition cut
    from its payload snapshot, whose bytes fault injection may have
    damaged before the cut. *)

val create_sg :
  id:int ->
  src:int ->
  extents:(Nectar_util.Region.t * int * int) list ->
  on_release:(unit -> unit) ->
  t
(** Scatter/gather frame; [on_release] runs (once) from {!release} or
    {!detach} and drops whatever buffer references back the extents.
    Each extent must lie inside its region's current backing. *)

val length : t -> int

val crc_ok : t -> bool
(** Receiver-side hardware CRC check: recompute over the extents and
    compare with the sender-side snapshot. *)

val view : t -> pos:int -> len:int -> Bytes.t * int
(** Borrowed view [(bytes, off)] of [len] bytes at frame offset [pos], when
    that range lies within a single extent; [off] is [-1] when it straddles
    a boundary.  The bytes are the extent region's current backing: decode
    at once.  Allocates only the returned pair. *)

val blit : t -> pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit

val detach : t -> unit
(** Privatise the frame: copy the extents into fresh bytes and release the
    source-buffer references immediately.  A later {!release} is still
    required and still flips {!released}. *)

val corrupt : ?burst:int -> t -> unit
(** Fault injection: {!detach}, then flip one bit in each of [burst]
    contiguous bytes centred mid-frame. *)

val release : t -> unit
(** End of the frame's life: run [on_release].  Exactly once per frame —
    a second call raises [Invalid_argument]. *)

val released : t -> bool
