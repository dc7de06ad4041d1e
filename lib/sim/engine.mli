(** Discrete-event simulation engine.

    An engine owns a virtual clock and a cancellable event queue.  Simulation
    actors ("processes") are ordinary OCaml functions run under an effect
    handler.  A process parks with {!block} after handing its {!waker} to
    whoever will resume it; every blocking abstraction (sleeps, yields, wait
    queues, resources, the CPU model) is built from that one mechanism.
    A process is a slot in per-engine arrays and its waker an immediate,
    so a context switch allocates nothing in the engine beyond the
    continuation, which parking stores in the process's own record.

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

type timer [@@immediate]
(** A handle on one event scheduled on one engine: an immediate (slot and
    sequence number), so scheduling allocates nothing beyond the callback
    and storing a handle needs no write barrier.  It stays good only while
    that event is pending. *)

val at : t -> ?label:string -> Sim_time.t -> (unit -> unit) -> timer
(** Schedule a callback at an absolute time (>= now).  Callbacks run outside
    any process: they must not block (they may spawn, signal, or schedule).
    [label] (default [""]) is a diagnostic name shown to tie-break policies
    and in explorer counterexamples; it never affects scheduling. *)

val after : t -> ?label:string -> Sim_time.span -> (unit -> unit) -> timer

val cancel : t -> timer -> unit
(** Remove the event from [t]'s queue at once, in O(log n); the timer
    must come from [t].
    Cancelling a fired, already-cancelled or {!inert_timer} handle is a
    no-op, even when a later event has taken over the handle's slot. *)

val inert_timer : timer
(** A timer that never fires (cancelling it is a no-op): the idle value of
    a timer field. *)

(** {1 Processes} *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Start a process at the current time (it begins running when the event
    loop reaches its start event). *)

(** {2 Parking}

    The pattern: take the calling process's waker, hand it to whoever will
    wake the process (a queue entry, a CPU request, a timer callback), then
    block.  Results travel beside the waker (in the queue entry, say), not
    through the resumption.

    {[
      let w = Engine.waker eng in
      Queue.add w waiters;
      Engine.block eng
      (* resumed here once someone calls [Engine.wake eng w] *)
    ]} *)

type waker [@@immediate]
(** A one-shot token for one parking of one process: an immediate (the
    process's slot and a generation drawn from an engine-wide counter), so
    taking one allocates nothing and storing one needs no write barrier. *)

val waker : t -> waker
(** The calling process's waker for its next {!block}.  Raises
    [Invalid_argument] outside a process. *)

val block : t -> unit
(** Park the calling process until its waker is woken.  Raises
    [Invalid_argument] outside a process. *)

val wake : t -> waker -> unit
(** Queue the waker's process to resume at the current simulated time, on
    the same-instant lane.  Callable from anywhere on the process's own
    engine — a timer callback, another process, or the parking process
    itself between {!waker} and {!block} (the resumption then fires once it
    has blocked).  One-shot: waking the same waker twice, or a waker of an
    earlier parking (the process has been resumed, slept or yielded since),
    raises [Failure "Engine: double resume of process <name>"]; a waker
    of a process that has finished raises it too, even once another
    process holds its slot ([... of a finished process] when it does). *)

val no_waker : waker
(** A waker of no process, for the idle value of a waker field: waking it
    raises [Invalid_argument].  An immediate, so owners share no block. *)

val sleep : t -> Sim_time.span -> unit
(** Block the calling process for a simulated duration: it parks like
    {!block}, and its wake-up timer queues the resumption (two events). *)

val yield : t -> unit
(** Let other events scheduled at the current time run first: the process
    parks, and its resumption is queued behind everything already queued
    at this instant. *)

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
(** Order-independent hash of the pending-event set (times and labels,
    not seqs) — one ingredient of the explorer's state fingerprint.  O(n)
    over the queue. *)

(** {1 Running} *)

val run : ?until:Sim_time.t -> t -> unit
(** Drain the event queue (or stop once the next event lies beyond [until],
    setting the clock to [until]).  Processes still blocked at quiescence
    simply never resume — this is normal for server-style processes. *)

val pending_events : t -> int
(** Events still scheduled (cancelled ones are gone at once).  O(1). *)

val next_event_time : t -> Sim_time.t option
(** Time of the earliest pending event, without firing it — the
    per-partition ingredient of the parallel scheduler's global
    next-window computation.  O(1), and a pure read. *)

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit
(** Register [<prefix>pending_events] on the registry. *)
