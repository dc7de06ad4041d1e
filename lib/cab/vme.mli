(** The VME backplane between a host and its CAB (paper §2.2, §6).

    Two transfer modes:
    - {!pio}: programmed I/O by a CPU (the host touching mapped CAB memory,
      or the CAB touching host memory).  Each 32-bit word costs ~1 us and
      stalls both the issuing CPU and the bus — this is the ~30 Mbit/s
      ceiling of Figure 8.
    - {!dma}: block transfer by the CAB's DMA controller (used by the
      network-device mode driver), which holds the bus but no CPU.

    Word accesses are batched ({!Costs.vme_pio_batch_bytes}) to keep event
    counts sane; the batch holds the bus atomically, which slightly coarsens
    contention but preserves aggregate timing. *)

type t

val create : Nectar_sim.Engine.t -> name:string -> t

val bus : t -> Nectar_sim.Resource.t

val pio :
  t ->
  cpu:Nectar_sim.Cpu.t ->
  owner:Nectar_sim.Cpu.owner ->
  priority:int ->
  bytes:int ->
  unit
(** Move [bytes] across the bus by CPU word accesses; blocks the caller for
    the full transfer (the CPU is stalled on bus cycles). *)

val dma : t -> bytes:int -> unit
(** Block-transfer [bytes] at ~30 Mbit/s, holding the bus only. *)

val bytes_moved : t -> int

(** {1 Fault injection} *)

val set_fault_hook : t -> (unit -> bool) option -> unit
(** Transient bus-error injection: the hook is consulted after every PIO
    batch and DMA block; returning [true] voids that transfer cycle and
    the master reruns it (the VMEbus BERR*-and-retry discipline).  Callers
    observe only added bus/CPU time — degradation, not failure. *)

val bus_errors : t -> int
(** Transfer cycles voided by injected bus errors. *)
