(** FIFO wait queues: the basic blocking primitive for processes.

    Signals are not sticky — a [signal] with no waiter is lost, so callers
    follow the usual condition-variable discipline of re-checking their
    predicate in a loop. *)

type t

val create : Engine.t -> t

val wait : t -> unit
(** Park the calling process until some other actor calls [signal].
    Allocates nothing beyond the parking itself once the queue has grown
    to its working size (waiters are immediates in a ring). *)

val wait_releasing : t -> release:(unit -> unit) -> unit
(** Enter the queue and then run [release] (which must not block), with no
    suspension point in between: the condition-variable pattern of
    atomically releasing a lock and sleeping.  A signal sent immediately
    after [release] runs is guaranteed to find this waiter. *)

val wait_timeout_releasing :
  t -> release:(unit -> unit) -> Sim_time.span -> [ `Signaled | `Timeout ]

val wait_timeout : t -> Sim_time.span -> [ `Signaled | `Timeout ]

val signal : t -> bool
(** Wake the oldest waiter.  Returns [false] when nobody was waiting. *)

val broadcast : t -> int
(** Wake all current waiters; returns how many were woken. *)

val waiters : t -> int
(** Waiters still to be woken (not timed out).  O(1). *)
