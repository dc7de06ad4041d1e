(** The CAB threads package (paper §3.1), derived in the paper from Mach
    C Threads: forking and joining of threads, priorities, and preemptive
    scheduling with system threads above application threads.

    Threads here are simulation processes whose CPU work goes through the
    CAB's preemptive-resume CPU model; the 20 us context-switch cost (SPARC
    register windows) is the thread's switch-in cost on that CPU.
    [with_interrupts_masked] makes the thread's work atomic, delaying
    interrupt handlers for the duration — the critical-section mechanism the
    paper wants to move away from (see the interrupt-vs-thread ablation
    bench). *)

type t

type priority = System | App

val create :
  Nectar_cab.Cab.t ->
  ?priority:priority ->
  name:string ->
  (Ctx.t -> unit) ->
  t
(** Fork a thread; its body receives the thread's execution context. *)

val ctx : t -> Ctx.t
val name : t -> string
val is_finished : t -> bool

val join : Ctx.t -> t -> unit
(** Block the calling context until the thread's body returns. *)

val with_interrupts_masked : t -> (unit -> 'a) -> 'a
(** Run [f] with this thread's CPU work atomic (interrupts masked). *)
