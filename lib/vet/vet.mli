(** nectar-vet: dynamic sanitizers for the CAB runtime.

    Six checkers observe a simulation through the hook registries in
    [Nectar_sim.Vet_probe] and [Nectar_core.Vet_hook]:

    - {b lock-order}: builds the held-while-acquiring graph across all
      mutexes and reports any cycle (a potential deadlock even if this run
      got lucky with timing); also flags locks held across blocking
      operations and across [Condvar.wait] on a different mutex.
    - {b two-phase}: mirrors every message's journey through the mailbox
      protocol of paper Figure 5 and reports protocol violations — a
      [begin_put] never finished, [end_get] of a message that was never
      begun, double [dispose], data access after [enqueue] on the
      zero-copy path.
    - {b heap}: shadow-tracks buffer-heap blocks, poisons freed ranges in
      CAB data memory and verifies the poison on reallocation
      (use-after-free writes), reports DMA reads of a freed range (any
      read of a frame's extents that overlaps a quarantined block, with
      the frame and the block's last owner), double frees and leaked
      message buffers at teardown.
    - {b interrupt}: knows which simulation processes are inside rx-DMA or
      signal-queue upcall handlers and reports any blocking operation or
      contended lock acquire they attempt.
    - {b starvation}: watches the priority scheduler's ready queues and
      reports runnable threads that waited longer than
      [starvation_limit] for the CPU.
    - {b slice}: tracks the zero-copy data path's buffer references —
      [Message.retain]/[release] pairs and the slice views carved out of
      message buffers — and reports over-releases, double releases and
      use-after-release of slices, plus (at a quiesced teardown) slices
      never released and messages freed by their owner whose extra
      references were leaked.

    Checkers cost nothing when not installed: every call site is a single
    reference load. *)

type severity = Info | Warning | Error

type finding = {
  checker : string;  (** "lock-order", "two-phase", "heap", ... *)
  severity : severity;
  message : string;
}

type config = {
  lock_order : bool;
  two_phase : bool;
  heap : bool;
  interrupt : bool;
  starvation : bool;
  starvation_limit : Nectar_sim.Sim_time.span;
      (** longest tolerated ready-queue wait (default 50 sim-ms) *)
  poison : bool;
      (** fill freed heap ranges with 0xDE and verify on realloc *)
  slices : bool;
      (** track buffer references and slice views (the zero-copy path) *)
}

val default_config : config
(** Everything on. *)

val install : ?config:config -> unit -> unit
(** Install the checkers into the runtime hook registries and clear any
    previous findings.  Call before building the world under test. *)

val uninstall : unit -> unit
(** Remove the hooks; accumulated findings remain readable. *)

val teardown : ?quiesced:bool -> unit -> unit
(** Run end-of-simulation checks (message and buffer leaks, starvation
    report).  Pass [~quiesced:false] for runs cut off mid-traffic
    ([Engine.run ~until]), where in-flight state is not a leak. *)

val findings : unit -> finding list
(** All findings so far, in the order reported. *)

val failures : unit -> finding list
(** Findings that should fail a vet run ([Warning] and [Error]). *)

val pp_finding : Format.formatter -> finding -> unit

val report : unit -> string
(** Multi-line rendering of all findings; empty string when clean. *)

val run :
  ?config:config -> ?quiesced:bool -> (unit -> 'a) ->
  ('a, exn) result * finding list
(** [run f] installs the checkers, runs [f], tears down and uninstalls,
    returning [f]'s outcome and every finding.  Teardown treats the run as
    quiesced only when [f] returned normally and [quiesced] (default
    [true]) allows it.  Exceptions from [f] are captured, not re-raised,
    so one broken scenario cannot hide another's findings. *)
