(** The schedule explorer: stateless model checking of same-time
    interleavings.

    A {!scenario} builds a fresh world (engine plus property checks); the
    explorer re-runs it under an {!Nectar_sim.Engine.set_tie_break} policy
    that forces a recorded decision prefix and then defaults to index 0,
    enumerating the tree of same-timestamp orderings depth-first.  State
    fingerprints prune commuting reorderings (sleep-set-style: a choice
    node whose fingerprint was already expanded from another path is not
    expanded again).  Every run is checked against the scenario's
    properties and, when [vet] is set, the full [lib/vet] sanitizer suite;
    a failing run's decision list is returned as a replayable
    counterexample. *)

module Engine = Nectar_sim.Engine

type world = {
  engine : Engine.t;
  until : Nectar_sim.Sim_time.t option;
      (** bound the run for worlds with immortal daemons (e.g. TCP timers) *)
  fingerprint : (Fp.t -> unit) option;
      (** fold scenario-visible state into the state fingerprint; the
          engine clock and pending-event digest are always included *)
  check_now : (unit -> string list) option;
      (** cheap invariants evaluated at every choice point *)
  at_end : unit -> string list;
      (** properties evaluated after the run (exactly-once delivery, no
          deadlock, counters); return violation descriptions *)
}

type scenario = {
  name : string;
  descr : string;
  expect_bug : bool;
      (** seeded-bug scenario: the explorer MUST find a counterexample
          (and the default-order run must not) *)
  vet : bool;  (** run every replay under the lib/vet sanitizers *)
  quiesced : bool;  (** vet teardown mode (see {!Nectar_vet.Vet.teardown}) *)
  budget : int;
      (** suggested [max_runs] for {!explore}: protocol worlds have far
          more choice points than the micro scenarios, so each scenario
          declares how many replays full exploration is worth *)
  build : unit -> world;
}

type run_result = {
  schedule : Schedule.t;  (** decisions actually taken, depth order *)
  steps : Schedule.step list;  (** rich trace, depth order *)
  violations : string list;
  final_time : Nectar_sim.Sim_time.t;
}

val run_one : scenario -> int array -> run_result
(** One run forcing the given decision prefix (index 0 beyond it).  The
    empty prefix is the default-order run. *)

val replay : scenario -> Schedule.t -> run_result
(** Re-run a recorded schedule (e.g. a counterexample) exactly. *)

type counterexample = {
  cx_schedule : Schedule.t;
  cx_steps : Schedule.step list;
  cx_violations : string list;
}

type stats = {
  runs : int;
  choice_points : int;  (** total decisions across all runs *)
  distinct_states : int;  (** fingerprinted choice nodes expanded *)
  pruned : int;  (** nodes skipped because their fingerprint was expanded *)
  deepest : int;  (** most decisions in a single run *)
  budget_exhausted : bool;  (** stopped at [max_runs] with work pending *)
}

type outcome = {
  counterexamples : counterexample list;  (** discovery order *)
  stats : stats;
}

val explore : ?max_runs:int -> scenario -> outcome
(** Depth-first enumeration from the default run.  [max_runs] (default
    2000) bounds replays; alternatives more than 400 decisions into a run
    are not expanded.  Exhausting either budget sets [budget_exhausted]
    rather than failing silently. *)
