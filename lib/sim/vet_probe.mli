(** Low-level observation points for the vet runtime checkers
    (see [Nectar_vet.Vet]).

    The simulation layers call the functions below at interesting moments;
    when no hook set is installed every call is a single reference load, so
    the checkers cost nothing in normal runs.  [Nectar_vet.Vet.install]
    fills the registry; nothing in [nectar_sim] depends on the checkers. *)

type hooks = {
  cpu_wait :
    cpu:string -> owner:string -> priority:int -> waited:Sim_time.span -> unit;
      (** a CPU request started service after waiting [waited] in the ready
          queue (fires on every service start, including [waited = 0]) *)
  interrupt_enter : pid:int -> name:string -> unit;
      (** process [pid] entered an interrupt handler body *)
  interrupt_exit : pid:int -> unit;
      (** process [pid] left the interrupt handler body *)
  dma_read :
    frame:int -> region:Nectar_util.Region.t -> off:int -> len:int -> unit;
      (** the bytes [\[off, off + len)] of [region] were read through
          frame [frame]'s extents: its CRC, the rx DMA drain, a partition
          handoff or a fault-injection snapshot *)
}

val install : hooks -> unit
val uninstall : unit -> unit
val installed : unit -> bool

(** {1 Call sites} *)

val cpu_wait :
  cpu:string -> owner:string -> priority:int -> waited:Sim_time.span -> unit

val interrupt_enter : Engine.t -> name:string -> unit
(** Tag the currently running process as interrupt context. *)

val interrupt_exit : Engine.t -> unit

val dma_read :
  frame:int -> region:Nectar_util.Region.t -> off:int -> len:int -> unit
