(** Mailboxes: network-addressable message queues with two-phase,
    zero-copy access (paper §3.3).

    Writing is [begin_put] (allocate space in CAB memory; fill in place)
    then [end_put] (make it visible to readers); reading is [begin_get]
    (borrow the next message in place) then [end_get] (release the
    storage).  [enqueue] moves a held message to another mailbox without
    copying — how IP hands complete datagrams to higher protocols.

    Interrupt handlers use the [try_]* variants; the blocking forms
    reschedule the calling thread until space or data is available.

    A small per-mailbox cached buffer short-circuits heap allocation for
    small messages, and a *reader upcall* may be attached so that [end_put]
    turns into a local procedure call instead of a context switch — both
    optimisations from §3.3 (measured in the ablation benches). *)

type t

type overflow = [ `Block | `Drop ]
(** What a capacity-bounded mailbox does when its message queue is full:
    [`Block] backpressures writers at [begin_put] (the [try_] variant
    fails, so interrupt-level producers drop-and-count at their layer);
    [`Drop] admits the put and tail-drops the message at [end_put] /
    [enqueue] time, counted in {!overflow_drops}. *)

val create :
  Nectar_sim.Engine.t ->
  heap:Buffer_heap.t ->
  name:string ->
  ?byte_limit:int ->
  ?capacity:int ->
  ?overflow:overflow ->
  ?cached_buffer_bytes:int ->
  ?upcall:(Ctx.t -> t -> unit) ->
  unit ->
  t
(** Messages live in the heap's region.  [byte_limit] (default 64 KB)
    bounds this mailbox's share of the common heap.  [capacity] (default
    unbounded) bounds the number of queued messages, governed by [overflow] (default [`Block]); a [`Block]
    mailbox at capacity still accepts [enqueue] (which must stay
    non-blocking), like the byte limit.  [cached_buffer_bytes] (default
    128; 0 disables) reserves the small-message cache buffer.  [upcall],
    if given, runs in the context of every [end_put]/[enqueue] caller once
    the message is queued. *)

val name : t -> string

val set_upcall : t -> (Ctx.t -> t -> unit) option -> unit

val set_on_space_freed : t -> (unit -> unit) option -> unit
(** Hook invoked (outside any context; must not block) whenever bytes leave
    this mailbox's accounting — TCP uses it on receive mailboxes to notice
    that the application has drained data and a window update is due. *)

(** {1 Writing} *)

val begin_put : Ctx.t -> t -> ?headroom:int -> int -> Message.t
(** [begin_put ctx t ~headroom n] allocates [headroom + n] bytes in one
    buffer and returns a message of length [n] whose data view starts
    [headroom] bytes in: protocol layers later [Message.push_head] their
    headers into the reserved space instead of allocating and copying into
    a fresh message.  Both headroom and data count against the byte limit. *)

val try_begin_put : Ctx.t -> t -> ?headroom:int -> int -> Message.t option
val end_put : Ctx.t -> t -> Message.t -> unit

val abort_put : Ctx.t -> t -> Message.t -> unit
(** Release a message without queueing it (write abandoned). *)

val dispose : Ctx.t -> Message.t -> unit
(** Free a message held in [Writing] or [Reading] state, whichever mailbox
    currently owns it — the transmit path uses this to release frame buffers
    from the DMA-completion interrupt. *)

(** {1 Reading} *)

val begin_get : Ctx.t -> t -> Message.t
val try_begin_get : Ctx.t -> t -> Message.t option
val end_get : Ctx.t -> Message.t -> unit

(** {1 Zero-copy transfer} *)

val enqueue : Ctx.t -> Message.t -> t -> unit
(** Move a message the caller holds (state [Reading] or [Writing]) to the
    back of another mailbox's queue without copying.  Non-blocking; the
    destination's byte limit is deliberately not enforced here (the message
    already lives in the common heap). *)

(** {1 Introspection} *)

val queued_messages : t -> int
val queued_bytes : t -> int
val bytes_in_use : t -> int

val overflow_drops : t -> int
(** Messages tail-dropped by the [`Drop] overflow policy. *)

val puts : t -> int
val gets : t -> int
val cache_hits : t -> int

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit
(** Register puts/gets/cache_hits/overflow_drops and a bytes-in-use gauge
    as [<prefix>mbox.<name>.*]. *)
