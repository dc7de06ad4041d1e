(** Interrupt dispatch for a CPU (CAB or host).

    [post] queues an interrupt; its handler then runs as a run-to-completion
    activity at interrupt priority: a dispatch cost followed by whatever CPU
    work the handler charges through {!work}.  Handler work is atomic (the
    model of running with interrupts implicitly masked at interrupt level,
    paper §3.1), and handlers never overlap — posting while a handler runs
    queues the new one behind it, like a pended interrupt line.

    Threads mask interrupts around critical sections by issuing their own
    atomic CPU work (see {!Nectar_core.Thread.with_interrupts_masked}): the
    CPU model then delays handler dispatch until the section ends. *)

type t

type ctx

val create :
  Nectar_sim.Engine.t ->
  Nectar_sim.Cpu.t ->
  ?dispatch_ns:int ->
  ?priority:int ->
  name:string ->
  unit ->
  t

val post_with : t -> name:string -> (ctx -> 'a -> unit) -> 'a -> unit
(** Queue an interrupt whose handler is [handler arg].  May be called from
    processes or timer callbacks.  The handler must not block (no waiting
    operations); it may charge CPU via {!work} and wake threads.  Each post
    is one process; a static [handler] with the per-post state in [arg]
    (the CAB's frame path passes the frame) builds no other closure. *)

val post : t -> name:string -> (ctx -> unit) -> unit
(** {!post_with} of a closure: [post t ~name fn] runs [fn ctx]. *)

val work : ctx -> Nectar_sim.Sim_time.span -> unit
(** Charge handler CPU time (at interrupt priority, atomic). *)

val ctx : t -> ctx
(** The context every handler posted on this controller receives.  It is
    the same value for every post, so code that wraps it (the runtime's
    interrupt [Ctx.t]) can build its wrapper once per controller. *)

val ctx_engine : ctx -> Nectar_sim.Engine.t

val post_coalesced : t -> key:string -> name:string -> (ctx -> unit) -> unit
(** Level-triggered {!post}: while a post under [key] is pending (queued
    but its handler not yet entered), further posts under the same key
    are absorbed — the line stays asserted, the CPU takes one interrupt.
    The collective layer keys its end-of-operation completion on this to
    guarantee a single host wakeup per operation no matter how many
    signals race toward completion. *)

val coalesced : t -> int
(** Posts absorbed by {!post_coalesced} while their key was pending. *)
