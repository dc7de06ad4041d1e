(** A message: a byte range inside a buffer in CAB data memory, moving
    through the two-phase mailbox state machine of paper Figure 5
    (writing -> queued -> reading -> freed).

    Messages support in-place "adjust" operations that remove a prefix or
    suffix without copying (paper §3.3) — how protocol layers strip their
    headers — and [set_bounds]/[grow_head] style reuse is deliberately not
    offered: a message never grows beyond the buffer it was allocated in.

    Ownership plumbing: the mailbox that currently owns the message installs
    [release]/[disown] callbacks (set at allocation and updated by
    [Mailbox.enqueue]); user code never touches them. *)

type state = Writing | Queued | Reading | Freed

type t = {
  uid : int;  (** unique per message, for the vet checkers *)
  mem : Bytes.t;  (** the CAB data-memory region backing this message *)
  buf_off : int;  (** underlying buffer start *)
  buf_len : int;  (** underlying buffer length *)
  mutable off : int;  (** current data start *)
  mutable len : int;  (** current data length *)
  mutable state : state;
  mutable refs : int;
      (** references to the underlying buffer: the owner's (from [make])
          plus one per live slice / in-flight transmit extent *)
  free_buffer : unit -> unit;
      (** return the buffer to where it was allocated from; fixed for the
          message's lifetime even as ownership moves between mailboxes.
          Called by {!release} when the last reference drops — never
          directly. *)
  mutable on_end_get : Ctx.t -> t -> unit;
      (** current owner's release routine *)
  mutable on_disown : t -> unit;
      (** drop the message from the current owner's byte accounting *)
}

val make :
  mem:Bytes.t ->
  buf_off:int ->
  buf_len:int ->
  len:int ->
  free_buffer:(unit -> unit) ->
  unit ->
  t
(** Ownership callbacks start as no-ops; the owning mailbox installs them. *)

val length : t -> int

val state_name : state -> string
(** Lower-case name, for diagnostics. *)

(** {1 Buffer reference counting}

    The two-phase mailbox protocol frees a buffer when its owner disposes or
    [end_get]s the message — but on the zero-copy path the transmit DMA and
    protocol slices still reference the bytes then.  Each such view takes a
    reference; the physical free ([free_buffer]) runs when the count reaches
    zero.  Refcount traffic charges no simulated time, so deferring the free
    never moves a simulated event. *)

val retain : t -> unit
(** Take a reference to the message's buffer.  Retaining an already-freed
    buffer is an error (reported through the vet hooks when installed,
    [Invalid_argument] otherwise). *)

val release : t -> unit
(** Drop a reference; the last drop returns the buffer.  Over-releasing is
    an error (reported through the vet hooks when installed,
    [Invalid_argument] otherwise). *)

val refs : t -> int

val adjust_head : t -> int -> unit
(** Drop [n] bytes from the front, in place. *)

val adjust_tail : t -> int -> unit
(** Drop [n] bytes from the end, in place. *)

val push_head : t -> int -> unit
(** Re-extend the front by [n] bytes (undo an [adjust_head]); protocol
    layers use this to prepend their headers into reserved headroom.  The
    front can never grow beyond the underlying buffer. *)

(** {1 Data access, relative to the current data start} *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val write_string : t -> int -> string -> unit
val read_string : t -> pos:int -> len:int -> string
val to_string : t -> string
val blit_to : t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit
val blit_from : t -> dst_pos:int -> src:Bytes.t -> src_pos:int -> len:int -> unit

(** {1 Refcounted slices}

    A slice is a borrowed window onto a message's bytes that holds its own
    reference to the buffer: protocol layers hand slices down the transmit
    path (scatter/gather extents) instead of copying payload.  The window is
    anchored at creation, so the owner adjusting its header view — or even
    disposing the message — does not move or invalidate the slice; releasing
    the slice drops its reference.  Slice lifecycle and access are observed
    by the vet slice checker. *)

module Slice : sig
  type msg = t

  type t = {
    suid : int;  (** unique per slice, for the vet checkers *)
    src : msg;
    soff : int;  (** absolute start in [src.mem], fixed at creation *)
    slen : int;
    mutable live : bool;
  }

  val make : msg -> pos:int -> len:int -> t
  (** Slice [len] bytes starting [pos] into the message's current data
      view.  Takes a buffer reference. *)

  val sub : t -> pos:int -> len:int -> t
  (** A nested slice of a live slice (its own reference). *)

  val release : t -> unit
  (** Drop the slice's reference.  Double release is an error (vet finding
      when installed, [Invalid_argument] otherwise). *)

  val live : t -> bool
  val length : t -> int
  val message : t -> msg
  val get_u8 : t -> int -> int
  val read_string : t -> pos:int -> len:int -> string
  val blit_to : t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit

  val extent : t -> Bytes.t * int * int
  (** The [(bytes, off, len)] scatter/gather extent this slice denotes. *)
end

val slice : t -> pos:int -> len:int -> Slice.t
(** Alias for {!Slice.make}. *)
