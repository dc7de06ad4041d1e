(** The CAB device driver in the host operating system (paper §3.2).

    [attach] plugs a host into its CAB's VME backplane.  After that:

    - CAB memory is mapped into host processes' address spaces: host code
      reaches mailbox structures directly, paying VME word costs
      ({!Hostlib} charges them).
    - *Host condition variables* let host processes wait for CAB events
      either by **polling** the condition's poll value over VME (no system
      call, the fast path of Figure 6's receive side) or by **blocking** in
      the driver (a system call; the CAB then interrupts the host, whose
      driver wakes the sleeping process).
    - The *host signal queue* carries (opcode, param) elements from CAB to
      host, and the *CAB signal queue* the other way ([signal_cab]); each
      post interrupts the receiving processor.
    - [rpc] is the simple host-to-CAB RPC built from the CAB signal queue
      plus a sync carrying the one-word result (paper §3.2/§3.4). *)

type t

val attach : Host.t -> Nectar_core.Runtime.t -> t

val host : t -> Host.t
val runtime : t -> Nectar_core.Runtime.t
val vme : t -> Nectar_cab.Vme.t

(** {1 Host condition variables} *)

module Cond : sig
  type cond

  val create : t -> cond

  val signal : cond -> unit
  (** Callable from CAB contexts (threads or interrupt handlers): bumps the
      poll value and queues a host notification. *)

  val waitq : cond -> Nectar_sim.Waitq.t
  (** The raw signal waitq, for kernel-context waiters that model interrupt
      bottom halves rather than sleeping processes. *)

  val wait_poll : Nectar_core.Ctx.t -> cond -> since:int -> unit
  (** Spin on the poll value over VME until it passes [since] — no system
      call, burning host CPU in poll iterations. *)

  val wait_block : Nectar_core.Ctx.t -> cond -> since:int -> unit
  (** Sleep in the driver (one syscall); woken by the CAB's interrupt. *)
end

(** {1 Host-to-CAB signalling} *)

val signal_cab : Nectar_core.Ctx.t -> t -> opcode:int -> param:int -> unit
(** Post one element to the CAB signal queue and interrupt the CAB: a few
    VME words plus the interrupt.  The opcode handler (registered on the
    runtime) runs on the CAB at interrupt level. *)

val rpc : Nectar_core.Ctx.t -> t -> (Nectar_core.Ctx.t -> int) -> int
(** Run a closure on the CAB at interrupt level; block (polling a sync)
    until its one-word result comes back. *)

val interrupts_to_host : t -> int
val interrupts_to_cab : t -> int

(** {1 Plumbing shared with {!Hostlib}} *)

val ctx_pio : Nectar_core.Ctx.t -> t -> bytes:int -> unit
(** Programmed I/O across the backplane, stalling the caller's CPU. *)

val poll_iteration : Nectar_core.Ctx.t -> t -> unit
(** Charge one spin of a host poll loop (loop overhead + one VME read). *)
