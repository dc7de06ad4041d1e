(** Growable FIFO rings: a power-of-two circular array that doubles when
    full.  A push stores one pointer and allocates nothing until the ring
    outgrows its array; a new ring holds no array at all, so thousands of
    idle rings cost a record each. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills vacated cells, so a popped element is not kept alive
    by the ring. *)

val no_cells : 'a array
(** The array of every ring that has not grown yet (and of
    [Nectar_sim.Waitq]'s queues): one shared empty block, never written,
    so creating a ring allocates its record alone. *)

val push : 'a t -> 'a -> unit
(** Add at the back. *)

val pop : 'a t -> 'a
(** Remove from the front.  Raises [Invalid_argument] when empty. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Front to back. *)
