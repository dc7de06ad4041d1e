(** Discrete-event simulation engine.

    An engine owns a virtual clock and a cancellable event queue.  Simulation
    actors ("processes") are ordinary OCaml functions run under an effect
    handler; inside a process, {!suspend} parks the process and hands out a
    one-shot resume function, from which all blocking abstractions (sleeps,
    wait queues, resources, the CPU model) are built.

    Determinism: events at equal times fire in scheduling order (a strictly
    increasing sequence number breaks ties), and nothing in the engine draws
    randomness, so a simulation is a pure function of its inputs.  Process
    starts, yields and resumptions are queued on a separate same-instant
    lane rather than the timer heap, but they take their sequence numbers
    from the same counter and the run loop merges the two in exact
    (time, seq) order, so the lane changes no firing order.  The
    tie-break is a pluggable policy (see {!set_tie_break}); every paper
    table is produced with the default policy. *)

type t

exception Process_failure of string * exn
(** Raised out of {!run} when a process body raises: carries the process
    name and the original exception. *)

val create : unit -> t

val now : t -> Sim_time.t

val current_pid : t -> int option
(** Unique id of the currently executing process, or [None] when running
    inside a timer callback (or outside [run] entirely).  Pids are unique
    across all engines in the program; the vet checkers use them to
    attribute lock and mailbox operations to an actor. *)

val current_process : t -> string option
(** Name of the currently executing process (see {!current_pid}). *)

(** {1 Timers} *)

type timer

val at : t -> ?label:string -> Sim_time.t -> (unit -> unit) -> timer
(** Schedule a callback at an absolute time (>= now).  Callbacks run outside
    any process: they must not block (they may spawn, signal, or schedule).
    [label] (default [""]) is a diagnostic name shown to tie-break policies
    and in explorer counterexamples; it never affects scheduling. *)

val after : t -> ?label:string -> Sim_time.span -> (unit -> unit) -> timer

val cancel : timer -> unit
(** Idempotent; cancelling a fired timer is a no-op. *)

val inert_timer : unit -> timer
(** A fresh timer that never fires (cancelling it is a no-op): the idle
    value of a mutable timer field.  Fresh, so owners on different nodes
    share no block. *)

(** {1 Processes} *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Start a process at the current time (it begins running when the event
    loop reaches its start event). *)

val suspend : ((('a -> unit) -> unit)) -> 'a
(** [suspend register] parks the calling process and calls [register resume].
    [resume v] (callable exactly once, from anywhere) schedules the process
    to continue with value [v] at the then-current simulated time.  Must be
    called from within a process. *)

val sleep : t -> Sim_time.span -> unit
(** Block the calling process for a simulated duration. *)

val yield : t -> unit
(** Let other events scheduled at the current time run first. *)

(** {1 Same-time tie-break policy}

    The contract: when several live events share the minimal pending
    timestamp, the default engine fires them in {e scheduling order} —
    ascending sequence number, i.e. first-scheduled-first-fired.  Every
    paper table and every seed test is produced under this order, and the
    regression test in [test/test_sim.ml] pins it: a run under an installed
    policy that always answers [0] (the "identity schedule") must be
    byte-identical to a default run, including the final simulated time.

    A policy replaces only the {e choice among equal-time candidates}; time
    order, cancellation and process semantics are untouched.  The schedule
    explorer in [lib/check] uses this to enumerate every reachable
    same-time interleaving of a scenario. *)

type candidate = { c_time : Sim_time.t; c_seq : int; c_label : string }
(** One live event competing at the current minimal timestamp.  Candidates
    are presented in ascending [c_seq] order, so index 0 is always the
    event the default policy would fire. *)

type tie_break = candidate array -> int
(** Returns the index (in the given array) of the event to fire next.
    Called only when there are at least two candidates.  Out-of-range
    answers raise [Invalid_argument] out of {!run}. *)

val set_tie_break : t -> tie_break option -> unit
(** Install ([Some]) or remove ([None]) the policy.  Must be set before
    {!run}; the run loop commits to one mode on entry.  [None] (the
    default) is the seq-order contract above, on the zero-overhead hot
    path. *)

val pending_digest : t -> int
(** Order-independent hash of the live pending-event set (times and labels,
    not seqs) — one ingredient of the explorer's state fingerprint.  O(n)
    over the queue. *)

(** {1 Running} *)

val run : ?until:Sim_time.t -> t -> unit
(** Drain the event queue (or stop once the next event lies beyond [until],
    setting the clock to [until]).  Processes still blocked at quiescence
    simply never resume — this is normal for server-style processes. *)

val pending_events : t -> int
(** Live (not-cancelled) events still scheduled.  O(1). *)

val next_event_time : t -> Sim_time.t option
(** Time of the earliest live pending event, without firing it — the
    per-partition ingredient of the parallel scheduler's global
    next-window computation.  Amortised O(1) (it pops already-cancelled
    entries off the heap top, as the run loop would). *)

val queued_events : t -> int
(** Physical size of the event queue (heap plus same-instant lane),
    including cancelled entries awaiting lazy removal.  The engine compacts when cancelled entries outnumber
    live ones, so this stays within 2x of {!pending_events} (above a small
    constant threshold); exposed so tests can assert the bound. *)

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit
(** Register [<prefix>pending_events] and [<prefix>queued_events] on the
    registry. *)
