(** Mutual-exclusion locks and condition variables for CAB threads
    (paper §3.1: the threads package "provides ... mutual exclusion using
    locks, and synchronization by means of condition variables").

    The TCP implementation protects its shared state with these instead of
    disabling interrupts (paper §4.2). *)

module Mutex : sig
  type t

  val create : Nectar_sim.Engine.t -> name:string -> t
  val name : t -> string
  val lock : Ctx.t -> t -> unit
  val unlock : Ctx.t -> t -> unit
  val with_lock : Ctx.t -> t -> (unit -> 'a) -> 'a
end

module Condvar : sig
  type t

  val create : Nectar_sim.Engine.t -> name:string -> t

  val wait : Ctx.t -> t -> Mutex.t -> unit
  (** Atomically release the mutex and wait; re-acquires before return. *)

  val wait_timeout :
    Ctx.t -> t -> Mutex.t -> Nectar_sim.Sim_time.span ->
    [ `Signaled | `Timeout ]

  val signal : t -> unit
  (** May be called from any actor, including interrupt handlers. *)

  val broadcast : t -> unit
end
