open Nectar_sim
module Summary = Nectar_util.Summary

let check_int = Alcotest.(check int)
let us = Sim_time.us

(* ---------- Engine ---------- *)

let test_event_order () =
  let eng = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.at eng (us 30) (record "c"));
  ignore (Engine.at eng (us 10) (record "a"));
  ignore (Engine.at eng (us 20) (record "b"));
  Engine.run eng;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !log);
  check_int "clock at last event" (us 30) (Engine.now eng)

let test_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.at eng (us 10) (fun () -> log := i :: !log))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo at equal time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_timer_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let tm = Engine.after eng (us 5) (fun () -> fired := true) in
  ignore (Engine.after eng (us 1) (fun () -> Engine.cancel eng tm));
  Engine.run eng;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_sleep_advances_clock () =
  let eng = Engine.create () in
  let woke_at = ref (-1) in
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 42);
      woke_at := Engine.now eng);
  Engine.run eng;
  check_int "woke at 42us" (us 42) !woke_at

let test_nested_sleeps () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng ~name:"a" (fun () ->
      Engine.sleep eng (us 10);
      log := ("a", Engine.now eng) :: !log;
      Engine.sleep eng (us 10);
      log := ("a2", Engine.now eng) :: !log);
  Engine.spawn eng ~name:"b" (fun () ->
      Engine.sleep eng (us 15);
      log := ("b", Engine.now eng) :: !log);
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "interleaving"
    [ ("a", us 10); ("b", us 15); ("a2", us 20) ]
    (List.rev !log)

let test_process_failure_propagates () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"boom" (fun () ->
      Engine.sleep eng (us 1);
      failwith "bang");
  Alcotest.check_raises "failure surfaces"
    (Engine.Process_failure ("boom", Failure "bang")) (fun () ->
      Engine.run eng)

let test_run_until () =
  let eng = Engine.create () in
  let fired = ref false in
  ignore (Engine.at eng (us 100) (fun () -> fired := true));
  Engine.run ~until:(us 50) eng;
  Alcotest.(check bool) "future event not run" false !fired;
  check_int "clock parked at until" (us 50) (Engine.now eng);
  Engine.run eng;
  Alcotest.(check bool) "event runs later" true !fired

(* A value travels beside the waker, not through the resumption. *)
let test_suspend_resume_value () =
  let eng = Engine.create () in
  let parked = ref Engine.no_waker in
  let slot = ref 0 in
  let got = ref 0 in
  Engine.spawn eng (fun () ->
      parked := Engine.waker eng;
      Engine.block eng;
      got := !slot + 1);
  ignore
    (Engine.after eng (us 3) (fun () ->
         slot := 41;
         Engine.wake eng !parked));
  Engine.run eng;
  check_int "resumed with value" 42 !got;
  check_int "at the waker's time" (us 3) (Engine.now eng)

(* ---------- parking: the one-shot contract ---------- *)

let double_resume = Failure "Engine: double resume of process parker"

let test_double_wake_fails () =
  let eng = Engine.create () in
  let w = ref Engine.no_waker in
  Engine.spawn eng ~name:"parker" (fun () ->
      w := Engine.waker eng;
      Engine.block eng);
  ignore
    (Engine.after eng 1 (fun () ->
         Engine.wake eng !w;
         Engine.wake eng !w));
  Alcotest.check_raises "second wake of one parking" double_resume (fun () ->
      Engine.run eng)

(* A waker outlives its parking: once the process has been resumed, or has
   slept or yielded since, waking it again must fail, not resume whatever
   parking the process is in now. *)
let test_stale_wake_fails () =
  let eng = Engine.create () in
  let first = ref Engine.no_waker and second = ref Engine.no_waker in
  let resumed = ref 0 in
  Engine.spawn eng ~name:"parker" (fun () ->
      first := Engine.waker eng;
      Engine.block eng;
      incr resumed;
      second := Engine.waker eng;
      Engine.block eng;
      incr resumed);
  ignore (Engine.after eng 1 (fun () -> Engine.wake eng !first));
  ignore (Engine.after eng 2 (fun () -> Engine.wake eng !first));
  Alcotest.check_raises "stale wake of a re-parked process" double_resume
    (fun () -> Engine.run eng);
  check_int "the first parking resumed once" 1 !resumed;
  Engine.wake eng !second;
  Engine.run eng;
  check_int "the current waker still resumes" 2 !resumed;
  (* a waker taken but never blocked on goes stale at the next sleep *)
  let eng = Engine.create () in
  let orphan = ref Engine.no_waker in
  Engine.spawn eng ~name:"parker" (fun () ->
      orphan := Engine.waker eng;
      Engine.sleep eng 5);
  ignore (Engine.after eng 1 (fun () -> Engine.wake eng !orphan));
  Alcotest.check_raises "orphan waker during a sleep" double_resume (fun () ->
      Engine.run eng)

(* The parking process may wake itself between [waker] and [block] (a
   release callback that signals its own queue): the resumption is queued
   and taken once it has blocked. *)
let test_wake_before_block () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng ~name:"self" (fun () ->
      let w = Engine.waker eng in
      Engine.wake eng w;
      log := "woken" :: !log;
      Engine.block eng;
      log := "resumed" :: !log);
  Engine.spawn eng ~name:"other" (fun () -> log := "other" :: !log);
  Engine.run eng;
  Alcotest.(check (list string))
    "resumes after the block, in seq order" [ "woken"; "other"; "resumed" ]
    (List.rev !log);
  Alcotest.check_raises "no_waker wakes nobody"
    (Invalid_argument "Engine.wake: no process") (fun () ->
      Engine.wake eng Engine.no_waker);
  Alcotest.check_raises "block outside a process"
    (Invalid_argument "Engine.block: not in a process") (fun () ->
      Engine.block eng)

(* A process slot is reused by the next spawn once its process has
   finished.  Each case below runs one process to completion, spawns a
   second that takes over its slot and parks, and then checks that
   nothing left over from the first reaches the second. *)

(* The successor parks and records whether it was ever resumed; its own
   waker goes to [w]. *)
let spawn_successor eng w resumed =
  Engine.spawn eng ~name:"successor" (fun () ->
      w := Engine.waker eng;
      Engine.block eng;
      resumed := true)

let finished_wake = Failure "Engine: double resume of a finished process"

(* A waker that resumed its parking, kept after its process finished. *)
let test_finished_waker_after_reuse () =
  let eng = Engine.create () in
  let w = ref Engine.no_waker and ws = ref Engine.no_waker in
  let resumed = ref false in
  Engine.spawn eng ~name:"parker" (fun () ->
      w := Engine.waker eng;
      Engine.block eng);
  ignore (Engine.after eng 1 (fun () -> Engine.wake eng !w));
  ignore (Engine.after eng 2 (fun () -> spawn_successor eng ws resumed));
  ignore (Engine.after eng 3 (fun () -> Engine.wake eng !w));
  Alcotest.check_raises "finished process's waker" finished_wake (fun () ->
      Engine.run eng);
  Alcotest.(check bool) "successor still parked" false !resumed;
  Engine.wake eng !ws;
  Engine.run eng;
  Alcotest.(check bool) "its own waker resumes it" true !resumed

(* A waker taken and never blocked on: its process exits, and the waker
   must not wake the slot's next process. *)
let test_orphan_waker_after_exit () =
  let eng = Engine.create () in
  let w = ref Engine.no_waker and ws = ref Engine.no_waker in
  let resumed = ref false in
  Engine.spawn eng ~name:"quitter" (fun () -> w := Engine.waker eng);
  ignore (Engine.after eng 1 (fun () -> spawn_successor eng ws resumed));
  ignore (Engine.after eng 2 (fun () -> Engine.wake eng !w));
  Alcotest.check_raises "exited process's waker" finished_wake (fun () ->
      Engine.run eng);
  Alcotest.(check bool) "successor still parked" false !resumed

(* A resumption queued for a process that then exits without blocking
   outlives it on the lane.  A policy that defers the stale entry lets
   the successor take the slot and park first; the entry must then fail,
   not resume the successor. *)
let test_stale_lane_entry () =
  let eng = Engine.create () in
  let ws = ref Engine.no_waker in
  let resumed = ref false and quitter = ref 0 in
  Engine.spawn eng ~name:"quitter" (fun () ->
      quitter := Option.get (Engine.current_pid eng);
      ignore
        (Engine.at eng ~label:"respawn" 0 (fun () ->
             spawn_successor eng ws resumed));
      Engine.wake eng (Engine.waker eng));
  (* fire anything before the quitter's own resumption *)
  let defer_quitter cands =
    let rec pick i =
      if i = Array.length cands then 0
      else if cands.(i).Engine.c_label <> "quitter" then i
      else pick (i + 1)
    in
    pick 0
  in
  Engine.set_tie_break eng (Some defer_quitter);
  let outcome =
    match Engine.run eng with () -> "no failure" | exception Failure m -> m
  in
  Alcotest.(check string)
    "stale resume entry"
    (Printf.sprintf "Engine: process #%d woken after it finished" !quitter)
    outcome;
  Alcotest.(check bool) "successor still parked" false !resumed

(* A slot's record outlives its process: after the sleeper [a] finishes,
   [b] takes its slot, and everything that names a process must name
   [b].  A policy that defers "tick" sees each of [b]'s same-instant
   events beside it; the pending set digests as on an engine that never
   ran [a]; and a double wake names [b]. *)
let test_labels_after_slot_reuse () =
  let eng = Engine.create () in
  let seen = ref [] in
  let w = ref Engine.no_waker in
  Engine.spawn eng ~name:"a" (fun () ->
      Engine.sleep eng 1;
      Engine.yield eng);
  ignore
    (Engine.at eng ~label:"spawn-b" 2 (fun () ->
         Engine.spawn eng ~name:"b" (fun () ->
             Engine.sleep eng 1;
             Engine.yield eng;
             w := Engine.waker eng;
             Engine.block eng)));
  ignore
    (Engine.at eng ~label:"tick" 3 (fun () ->
         Engine.wake eng !w;
         Engine.wake eng !w));
  let defer_tick cands =
    Array.iter (fun c -> seen := c.Engine.c_label :: !seen) cands;
    let rec pick i =
      if i = Array.length cands then 0
      else if cands.(i).Engine.c_label <> "tick" then i
      else pick (i + 1)
    in
    pick 0
  in
  Engine.set_tie_break eng (Some defer_tick);
  Engine.run ~until:2 eng;
  let fresh = Engine.create () in
  ignore (Engine.at fresh ~label:"tick" 3 ignore);
  Engine.spawn fresh ~name:"b" (fun () -> Engine.sleep fresh 3);
  Engine.run ~until:2 fresh;
  check_int "pending set digests as on a fresh engine"
    (Engine.pending_digest fresh) (Engine.pending_digest eng);
  Alcotest.check_raises "double wake names the slot's process"
    (Failure "Engine: double resume of process b") (fun () -> Engine.run eng);
  let saw l = List.mem l !seen in
  Alcotest.(check (list bool))
    "candidates b.wake and b.yield, none of a's" [ true; true; false; false ]
    [ saw "b.wake"; saw "b.yield"; saw "a.wake"; saw "a.yield" ]

(* ---------- Waitq ---------- *)

let test_waitq_fifo_wakeup () =
  let eng = Engine.create () in
  let q = Waitq.create eng in
  let log = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Waitq.wait q;
        log := i :: !log)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 1);
      ignore (Waitq.signal q);
      Engine.sleep eng (us 1);
      ignore (Waitq.signal q);
      ignore (Waitq.signal q));
  Engine.run eng;
  Alcotest.(check (list int)) "fifo wakeup" [ 1; 2; 3 ] (List.rev !log)

let test_waitq_timeout () =
  let eng = Engine.create () in
  let q = Waitq.create eng in
  let out = ref `Signaled in
  Engine.spawn eng (fun () -> out := Waitq.wait_timeout q (us 7));
  Engine.run eng;
  Alcotest.(check bool) "timed out" true (!out = `Timeout);
  check_int "at timeout time" (us 7) (Engine.now eng)

let test_waitq_signal_beats_timeout () =
  let eng = Engine.create () in
  let q = Waitq.create eng in
  let out = ref `Timeout in
  Engine.spawn eng (fun () -> out := Waitq.wait_timeout q (us 100));
  ignore (Engine.after eng (us 5) (fun () -> ignore (Waitq.signal q)));
  Engine.run eng;
  Alcotest.(check bool) "signaled" true (!out = `Signaled);
  check_int "no stray timeout event" 0 (Engine.pending_events eng)

let test_waitq_broadcast () =
  let eng = Engine.create () in
  let q = Waitq.create eng in
  let woken = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () ->
        Waitq.wait q;
        incr woken)
  done;
  ignore (Engine.after eng (us 1) (fun () -> ignore (Waitq.broadcast q)));
  Engine.run eng;
  check_int "all woken" 4 !woken

(* A signal and the timeout land at one instant: the order of their events
   decides the outcome, and the process resumes exactly once with it. *)
let test_waitq_signal_timeout_same_instant () =
  let run ~signal_first =
    let eng = Engine.create () in
    let q = Waitq.create eng in
    let outcomes = ref [] and found = ref false in
    let signal () = found := Waitq.signal q in
    (* scheduled before the wait, the signal precedes the wait's timer at
       5 us; scheduled later (from 1 us), it follows it *)
    if signal_first then ignore (Engine.at eng (us 5) signal)
    else
      ignore
        (Engine.at eng (us 1) (fun () -> ignore (Engine.at eng (us 5) signal)));
    Engine.spawn eng (fun () ->
        outcomes := Waitq.wait_timeout q (us 5) :: !outcomes);
    Engine.run eng;
    check_int "resumed once" 1 (List.length !outcomes);
    check_int "at the shared instant" (us 5) (Engine.now eng);
    check_int "no waiter left" 0 (Waitq.waiters q);
    check_int "no event left" 0 (Engine.pending_events eng);
    (List.hd !outcomes, !found)
  in
  let tag, found = run ~signal_first:true in
  Alcotest.(check bool) "earlier signal wins" true (tag = `Signaled);
  Alcotest.(check bool) "and finds the waiter" true found;
  let tag, found = run ~signal_first:false in
  Alcotest.(check bool) "earlier timeout wins" true (tag = `Timeout);
  Alcotest.(check bool) "and the late signal finds nobody" false found

(* [waiters] is a count kept by every path that adds or retires a waiter;
   a timed-out entry stays queued but no longer counts. *)
let test_waitq_live_count () =
  let eng = Engine.create () in
  let q = Waitq.create eng in
  let seen = ref [] in
  let note tag = seen := (tag, Waitq.waiters q) :: !seen in
  for _ = 1 to 2 do
    Engine.spawn eng (fun () -> Waitq.wait q)
  done;
  Engine.spawn eng (fun () ->
      Waitq.wait_releasing q ~release:(fun () -> note "inside release"));
  Engine.spawn eng (fun () -> ignore (Waitq.wait_timeout q (us 5)));
  Engine.spawn eng (fun () -> ignore (Waitq.wait_timeout q (us 50)));
  ignore (Engine.at eng (us 1) (fun () -> note "all parked"));
  ignore (Engine.at eng (us 6) (fun () -> note "after a timeout"));
  ignore
    (Engine.at eng (us 7) (fun () ->
         ignore (Waitq.signal q);
         note "after a signal"));
  ignore
    (Engine.at eng (us 8) (fun () ->
         note (Printf.sprintf "broadcast woke %d" (Waitq.broadcast q))));
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "live waiters through each path"
    [
      ("inside release", 3); ("all parked", 5); ("after a timeout", 4);
      ("after a signal", 3); ("broadcast woke 3", 0);
    ]
    (List.rev !seen);
  check_int "the dead entry was skipped, the 50 us timer cancelled" 0
    (Engine.pending_events eng)

(* ---------- Resource ---------- *)

let test_resource_serializes () =
  let eng = Engine.create () in
  let r = Resource.create eng () in
  let log = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Resource.use r (us 10);
        log := (i, Engine.now eng) :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "fifo grants, serialized"
    [ (1, us 10); (2, us 20); (3, us 30) ]
    (List.rev !log)

let test_resource_try_acquire () =
  let eng = Engine.create () in
  let r = Resource.create eng () in
  Engine.spawn eng (fun () ->
      Alcotest.(check bool) "free" true (Resource.try_acquire r);
      Alcotest.(check bool) "busy" false (Resource.try_acquire r);
      Resource.release r;
      Alcotest.(check bool) "free again" true (Resource.try_acquire r);
      Resource.release r);
  Engine.run eng

let test_resource_busy_time () =
  let eng = Engine.create () in
  let r = Resource.create eng () in
  Engine.spawn eng (fun () -> Resource.use r (us 25));
  Engine.run eng;
  check_int "busy time" (us 25) (Resource.busy_time r)

let test_resource_capacity2 () =
  let eng = Engine.create () in
  let r = Resource.create eng ~capacity:2 () in
  let done_at = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Resource.use r (us 10);
        done_at := (i, Engine.now eng) :: !done_at)
  done;
  Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "two run in parallel, third queues"
    [ (1, us 10); (2, us 10); (3, us 20) ]
    (List.rev !done_at)

(* ---------- Byte_fifo ---------- *)

let test_fifo_backpressure () =
  let eng = Engine.create () in
  let f = Byte_fifo.create eng ~capacity:100 ~name:"t" in
  let pushed_all_at = ref (-1) in
  Engine.spawn eng ~name:"producer" (fun () ->
      for _ = 1 to 4 do
        Byte_fifo.push f 50
      done;
      pushed_all_at := Engine.now eng);
  Engine.spawn eng ~name:"consumer" (fun () ->
      for _ = 1 to 4 do
        Engine.sleep eng (us 10);
        Byte_fifo.pop f 50
      done);
  Engine.run eng;
  (* capacity 100 admits two pushes at t=0; the 3rd waits for the pop at
     10us, the 4th for the pop at 20us. *)
  check_int "producer blocked until room" (us 20) !pushed_all_at;
  check_int "drained" 0 (Byte_fifo.level f);
  check_int "high-water" 100 (Byte_fifo.max_level f)

let test_fifo_pop_blocks_until_data () =
  let eng = Engine.create () in
  let f = Byte_fifo.create eng ~capacity:64 ~name:"t" in
  let got_at = ref (-1) in
  Engine.spawn eng (fun () ->
      Byte_fifo.pop f 10;
      got_at := Engine.now eng);
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 30);
      Byte_fifo.push f 10);
  Engine.run eng;
  check_int "pop completed when data arrived" (us 30) !got_at

(* ---------- Cpu ---------- *)

let test_cpu_single_consume () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"cab" () in
  let o = Cpu.owner cpu ~name:"t0" ~switch_in:0 in
  let done_at = ref (-1) in
  Engine.spawn eng (fun () ->
      Cpu.consume cpu o ~priority:1 (us 10);
      done_at := Engine.now eng);
  Engine.run eng;
  check_int "service time" (us 10) !done_at;
  check_int "busy" (us 10) (Cpu.busy_time cpu)

let test_cpu_fifo_same_priority () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"cab" () in
  let done_at = ref [] in
  for i = 1 to 3 do
    let o = Cpu.owner cpu ~name:(Printf.sprintf "t%d" i) ~switch_in:0 in
    Engine.spawn eng (fun () ->
        Cpu.consume cpu o ~priority:5 (us 10);
        done_at := (i, Engine.now eng) :: !done_at)
  done;
  Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "fifo order" [ (1, us 10); (2, us 20); (3, us 30) ]
    (List.rev !done_at)

let test_cpu_preemption () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"cab" () in
  let low = Cpu.owner cpu ~name:"low" ~switch_in:0 in
  let high = Cpu.owner cpu ~name:"high" ~switch_in:0 in
  let low_done = ref (-1) and high_done = ref (-1) in
  Engine.spawn eng (fun () ->
      Cpu.consume cpu low ~priority:1 (us 100);
      low_done := Engine.now eng);
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 20);
      Cpu.consume cpu high ~priority:10 (us 30);
      high_done := Engine.now eng);
  Engine.run eng;
  (* high runs 20..50; low runs 0..20 and 50..130 *)
  check_int "high done at 50" (us 50) !high_done;
  check_int "low resumed and finished at 130" (us 130) !low_done

let test_cpu_atomic_blocks_preemption () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"cab" () in
  let low = Cpu.owner cpu ~name:"low" ~switch_in:0 in
  let high = Cpu.owner cpu ~name:"high" ~switch_in:0 in
  let high_done = ref (-1) in
  Engine.spawn eng (fun () ->
      Cpu.consume cpu low ~priority:1 ~atomic:true (us 100));
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 20);
      Cpu.consume cpu high ~priority:10 (us 30);
      high_done := Engine.now eng);
  Engine.run eng;
  check_int "high waited for atomic section" (us 130) !high_done

let test_cpu_switch_cost () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"cab" () in
  let a = Cpu.owner cpu ~name:"a" ~switch_in:(us 20) in
  let b = Cpu.owner cpu ~name:"b" ~switch_in:(us 20) in
  let b_done = ref (-1) and a2_done = ref (-1) in
  Engine.spawn eng (fun () ->
      (* First-ever dispatch still pays a's switch-in. *)
      Cpu.consume cpu a ~priority:1 (us 10);
      Cpu.consume cpu a ~priority:1 (us 10);
      a2_done := Engine.now eng;
      Cpu.consume cpu b ~priority:1 (us 10);
      b_done := Engine.now eng);
  Engine.run eng;
  (* a: 20 switch + 10 work, then same-owner 10 work = 40; b: 20 + 10 = 70 *)
  check_int "same owner pays once" (us 40) !a2_done;
  check_int "owner change pays switch" (us 70) !b_done;
  check_int "one owner-to-owner switch" 1 (Cpu.switches cpu)

let test_cpu_owner_accounting () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"cab" () in
  let a = Cpu.owner cpu ~name:"a" ~switch_in:0 in
  let b = Cpu.owner cpu ~name:"b" ~switch_in:0 in
  Engine.spawn eng (fun () -> Cpu.consume cpu a ~priority:1 (us 30));
  Engine.spawn eng (fun () -> Cpu.consume cpu b ~priority:2 (us 15));
  Engine.run eng;
  check_int "a served" (us 30) (Cpu.owner_time cpu a);
  check_int "b served" (us 15) (Cpu.owner_time cpu b);
  check_int "busy total" (us 45) (Cpu.busy_time cpu)

let prop_cpu_work_conservation =
  QCheck2.Test.make ~name:"cpu serves exactly the requested work"
    QCheck2.Gen.(
      list_size (int_range 1 20)
        (triple (int_range 1 5) (int_range 1 500) (int_range 0 2000)))
    (fun jobs ->
      let eng = Engine.create () in
      let cpu = Cpu.create eng ~name:"c" () in
      let total = ref 0 in
      List.iteri
        (fun i (prio, work, start) ->
          let o = Cpu.owner cpu ~name:(string_of_int i) ~switch_in:0 in
          total := !total + us work;
          Engine.spawn eng (fun () ->
              Engine.sleep eng (us start);
              Cpu.consume cpu o ~priority:prio (us work)))
        jobs;
      Engine.run eng;
      Cpu.busy_time cpu = !total)

(* ---------- reference model of the CPU ---------- *)

(* Random single-consume processes on one CPU, checked against a plain-
   list model of a preemptive-resume priority CPU.  Each process sleeps
   to its arrival time (>= 1) and consumes once, as one of a few owners
   (switch-in cost, some transparent).  Arrivals tie with each other and
   with completions often.  The model's instant order follows the
   engine's: every process's wake-up timer was scheduled at time 0, so a
   completion at [t] (its timer scheduled later) fires after them but
   before any process they resume, and the arrivals at [t] then consume
   in spawn order.  A completion therefore dispatches before the
   arrivals of its instant are queued. *)
type cpu_job = {
  j_arrive : int;
  j_owner : int;
  j_prio : int;
  j_atomic : bool;
  j_span : int;
}

type model_req = {
  m_job : int;
  m_seq : int;
  mutable m_left : int;
}

let cpu_model ~owners jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let done_at = Array.make n (-1) in
  let served = Array.make (Array.length owners) 0 in
  let busy = ref 0 and switches = ref 0 and last = ref (-1) in
  let seq = ref 0 and now = ref 0 in
  let ready = ref [] and cur = ref None in
  let arrived = Array.make n false in
  (* best: highest priority, then lowest seq *)
  let better a b =
    let pa = jobs.(a.m_job).j_prio and pb = jobs.(b.m_job).j_prio in
    pa > pb || (pa = pb && a.m_seq < b.m_seq)
  in
  let take_best () =
    match !ready with
    | [] -> None
    | r :: rest ->
        let best = List.fold_left (fun b x -> if better x b then x else b) r rest in
        ready := List.filter (fun x -> x != best) !ready;
        Some best
  in
  let dispatch r =
    let o = jobs.(r.m_job).j_owner in
    let sw, transparent = owners.(o) in
    if !last <> o && not transparent then begin
      if !last >= 0 then incr switches;
      r.m_left <- r.m_left + sw;
      last := o
    end;
    cur := Some (r, !now)
  in
  let stop r started =
    let elapsed = !now - started in
    busy := !busy + elapsed;
    let o = jobs.(r.m_job).j_owner in
    served.(o) <- served.(o) + elapsed;
    cur := None;
    elapsed
  in
  let dispatch_best () = Option.iter dispatch (take_best ()) in
  let arrive i =
    arrived.(i) <- true;
    let r = { m_job = i; m_seq = !seq; m_left = jobs.(i).j_span } in
    incr seq;
    (match !cur with
    | None -> ready := r :: !ready
    | Some (c, started) ->
        if (not jobs.(c.m_job).j_atomic) && jobs.(i).j_prio > jobs.(c.m_job).j_prio
        then begin
          let elapsed = stop c started in
          c.m_left <- max 0 (c.m_left - elapsed);
          ready := r :: c :: !ready
        end
        else ready := r :: !ready);
    if !cur = None then dispatch_best ()
  in
  let next_arrival () =
    let t = ref max_int in
    Array.iteri
      (fun i j -> if (not arrived.(i)) && j.j_arrive < !t then t := j.j_arrive)
      jobs;
    !t
  in
  let rec loop () =
    let ta = next_arrival () in
    let tc =
      match !cur with Some (r, started) -> started + r.m_left | None -> max_int
    in
    if ta = max_int && tc = max_int then ()
    else begin
      if tc <= ta then begin
        now := tc;
        match !cur with
        | Some (r, started) ->
            ignore (stop r started);
            done_at.(r.m_job) <- tc;
            dispatch_best ()
        | None -> ()
      end
      else begin
        now := ta;
        Array.iteri (fun i j -> if (not arrived.(i)) && j.j_arrive = ta then arrive i) jobs
      end;
      loop ()
    end
  in
  loop ();
  (Array.to_list done_at, !busy, !switches, Array.to_list served)

let cpu_engine ~owners jobs =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"c" () in
  let os =
    Array.mapi
      (fun i (switch_in, transparent) ->
        Cpu.owner ~transparent cpu ~name:(string_of_int i) ~switch_in)
      owners
  in
  let done_at = Array.make (List.length jobs) (-1) in
  List.iteri
    (fun i j ->
      Engine.spawn eng (fun () ->
          Engine.sleep eng j.j_arrive;
          Cpu.consume cpu os.(j.j_owner) ~priority:j.j_prio ~atomic:j.j_atomic
            j.j_span;
          done_at.(i) <- Engine.now eng))
    jobs;
  Engine.run eng;
  ( Array.to_list done_at,
    Cpu.busy_time cpu,
    Cpu.switches cpu,
    Array.to_list (Array.map (Cpu.owner_time cpu) os) )

let prop_cpu_matches_model =
  let open QCheck2.Gen in
  let gen =
    let* owners =
      array_size (int_range 1 3) (pair (int_range 0 5) (map (( = ) 0) (int_bound 3)))
    in
    let job =
      let* j_arrive = int_range 1 40
      and* j_owner = int_bound (Array.length owners - 1)
      and* j_prio = int_bound 3
      and* j_atomic = map (( = ) 0) (int_bound 3)
      and* j_span = int_range 1 20 in
      return { j_arrive; j_owner; j_prio; j_atomic; j_span }
    in
    let* jobs = list_size (int_range 1 12) job in
    return (owners, jobs)
  in
  QCheck2.Test.make ~count:500 ~name:"cpu matches preemptive-resume model"
    ~print:(fun (owners, jobs) ->
      String.concat "; "
        (Array.to_list
           (Array.map (fun (s, tr) -> Printf.sprintf "owner sw=%d tr=%b" s tr) owners)
        @ List.map
            (fun j ->
              Printf.sprintf "job @%d o%d p%d%s %d" j.j_arrive j.j_owner j.j_prio
                (if j.j_atomic then " atomic" else "")
                j.j_span)
            jobs))
    gen
    (fun (owners, jobs) -> cpu_engine ~owners jobs = cpu_model ~owners jobs)

(* ---------- Determinism ---------- *)

let scenario_trace seed =
  let eng = Engine.create () in
  let rng = Rng.create ~seed in
  let cpu = Cpu.create eng ~name:"c" () in
  let q = Waitq.create eng in
  let log = Buffer.create 256 in
  for i = 0 to 9 do
    let o = Cpu.owner cpu ~name:(string_of_int i) ~switch_in:(us 2) in
    Engine.spawn eng (fun () ->
        Engine.sleep eng (us (Rng.int rng 50));
        Cpu.consume cpu o ~priority:(Rng.int rng 3) (us (1 + Rng.int rng 20));
        if Rng.bool rng then ignore (Waitq.signal q)
        else if Rng.int rng 4 = 0 then
          ignore (Waitq.wait_timeout q (us (Rng.int rng 30)));
        Buffer.add_string log
          (Printf.sprintf "%d@%d;" i (Engine.now eng)))
  done;
  Engine.run eng;
  Buffer.contents log

let test_determinism () =
  Alcotest.(check string)
    "same seed, same trace" (scenario_trace 42) (scenario_trace 42);
  Alcotest.(check bool)
    "different seed, different trace" true
    (scenario_trace 42 <> scenario_trace 43)

(* ---------- Stats / Rng ---------- *)

let test_summary () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 1; 2; 3; 4 ];
  check_int "count" 4 (Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5
    (float_of_int (Array.fold_left ( + ) 0 (Summary.samples s)) /. 4.);
  Alcotest.(check (float 1e-9)) "min" 1. (Summary.percentile s 0.);
  Alcotest.(check (float 1e-9)) "max" 4. (Summary.percentile s 1.);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Summary.percentile s 0.5)

let test_summary_percentile_edges () =
  let s = Summary.create () in
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Summary.percentile: empty") (fun () ->
      ignore (Summary.percentile s 0.5));
  Summary.add s 7;
  Alcotest.(check (float 1e-9)) "p=0 of one sample" 7.
    (Summary.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p=1 of one sample" 7.
    (Summary.percentile s 1.);
  List.iter (Summary.add s) [ 3; 5; 1 ];
  Alcotest.(check (float 1e-9)) "p=0 is min" 1.
    (Summary.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p=1 is max" 7.
    (Summary.percentile s 1.);
  Alcotest.check_raises "p>1 rejected"
    (Invalid_argument "Summary.percentile: p outside [0,1]") (fun () ->
      ignore (Summary.percentile s 1.5));
  Alcotest.check_raises "p<0 rejected"
    (Invalid_argument "Summary.percentile: p outside [0,1]") (fun () ->
      ignore (Summary.percentile s (-0.1)))

(* [percentile] against sort-then-interpolate over float copies of the
   samples, compared bit for bit: one sample, runs of duplicates, wide
   values, and buffers grown past 64 and 128 samples; every p asked of
   the same summary in turn (each call sees the previous one's order). *)
let prop_percentile_matches_sort =
  QCheck2.Test.make ~count:500 ~name:"percentile matches sort-then-interpolate"
    QCheck2.Gen.(
      pair
        (oneof
           [ map (fun x -> [ x ]) (int_bound 1_000_000);
             list_size (int_range 1 300) (int_bound 3);
             list_size (int_range 60 300) (int_bound 1_000_000) ])
        (list_size (int_range 1 4) (oneofl [ 0.; 0.5; 0.99; 1. ])))
    (fun (xs, ps) ->
      let sorted =
        Array.of_list (List.map float_of_int (List.sort Int.compare xs))
      in
      let s = Summary.create () in
      List.iter (Summary.add s) xs;
      List.for_all
        (fun p ->
          let idx = p *. float_of_int (Array.length sorted - 1) in
          let lo = int_of_float (floor idx) and hi = int_of_float (ceil idx) in
          let frac = idx -. floor idx in
          let want = (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac) in
          Int64.equal (Int64.bits_of_float want)
            (Int64.bits_of_float (Summary.percentile s p)))
        ps
      && List.sort Int.compare (Array.to_list (Summary.samples s))
         = List.sort Int.compare xs)

let test_summary_nearest_rank () =
  check_int "empty" 0 (Summary.select_rank [||] 50);
  check_int "n = 1" 9 (Summary.select_rank [| 9 |] 99);
  let a = Array.init 10 (fun i -> 10 * (10 - i)) in
  List.iter
    (fun (p, want) ->
      check_int (Printf.sprintf "p = %d" p) want (Summary.select_rank a p))
    [ (0, 10); (50, 50); (99, 90); (100, 100) ];
  Alcotest.check_raises "p > 100 rejected"
    (Invalid_argument "Summary.select_rank: p outside [0,100]") (fun () ->
      ignore (Summary.select_rank a 101))

(* Selection against sort-then-index: values from a small range so runs
   of duplicates are the rule, lengths from 0 up, every rank asked of
   the same array in turn (each call sees the previous one's order). *)
let prop_select_rank_matches_sort =
  QCheck2.Test.make ~count:500 ~name:"select_rank matches sort-then-index"
    QCheck2.Gen.(
      pair
        (oneof [ pure []; map (fun x -> [ x ]) (int_bound 3);
                 list_size (int_bound 300) (int_bound 5) ])
        (list_size (int_range 1 4) (oneofl [ 0; 50; 99; 100 ])))
    (fun (xs, ranks) ->
      let sorted = Array.of_list (List.sort Int.compare xs) in
      let a = Array.of_list xs in
      let n = Array.length a in
      List.for_all
        (fun p ->
          let want = if n = 0 then 0 else sorted.((n - 1) * p / 100) in
          Summary.select_rank a p = want)
        ranks
      && List.sort Int.compare (Array.to_list a) = Array.to_list sorted)

let test_throughput () =
  Alcotest.(check (float 1e-6))
    "100 Mbit/s" 100.
    (Stats.Throughput.mbit_per_s ~bytes_moved:12_500_000
       ~elapsed:(Sim_time.s 1))

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

(* ---------- same-time tie-break contract ---------- *)

(* A moderately rich world: same-time timer batches, waitq traffic, a
   cancelled timer, nested sleeps.  Used to pin the engine.mli contract
   that the identity policy reproduces the default seq-order run exactly. *)
let build_pin_world eng log =
  let q = Waitq.create eng in
  Engine.spawn eng ~name:"w1" (fun () ->
      Waitq.wait q;
      log := ("w1", Engine.now eng) :: !log);
  Engine.spawn eng ~name:"w2" (fun () ->
      Waitq.wait q;
      log := ("w2", Engine.now eng) :: !log);
  Engine.spawn eng ~name:"p" (fun () ->
      Engine.sleep eng (us 5);
      ignore (Waitq.signal q);
      Engine.yield eng;
      ignore (Waitq.broadcast q);
      Engine.sleep eng (us 5);
      log := ("p", Engine.now eng) :: !log);
  (* yields and a spawn inside instant 0, all queued before the policy
     is installed *)
  Engine.spawn eng ~name:"y" (fun () ->
      log := ("y0", Engine.now eng) :: !log;
      Engine.yield eng;
      Engine.spawn eng ~name:"yc" (fun () ->
          log := ("yc", Engine.now eng) :: !log);
      Engine.yield eng;
      log := ("y1", Engine.now eng) :: !log);
  for i = 1 to 3 do
    ignore
      (Engine.at eng
         ~label:("t" ^ string_of_int i)
         (us 5)
         (fun () -> log := ("t" ^ string_of_int i, Engine.now eng) :: !log))
  done;
  let tm = Engine.after eng (us 2) (fun () -> log := ("never", 0) :: !log) in
  ignore (Engine.after eng (us 1) (fun () -> Engine.cancel eng tm))

let run_pin_world policy =
  let eng = Engine.create () in
  let log = ref [] in
  build_pin_world eng log;
  Engine.set_tie_break eng policy;
  Engine.run eng;
  (List.rev !log, Engine.now eng)

let test_identity_tie_break_pins_default () =
  let base, base_t = run_pin_world None in
  let forced, forced_t = run_pin_world (Some (fun _ -> 0)) in
  Alcotest.(check (list (pair string int)))
    "identity policy = default order" base forced;
  check_int "identical final sim time" base_t forced_t;
  (* and the default order itself is pinned: creation (seq) order *)
  Alcotest.(check (list (pair string int)))
    "default same-time order is creation order"
    [
      ("y0", 0); ("yc", 0); ("y1", 0);
      ("t1", us 5); ("t2", us 5); ("t3", us 5);
      ("w1", us 5); ("w2", us 5); ("p", us 10);
    ]
    base;
  (* a policy that always picks the newest candidate really chooses among
     the same-instant spawns, yields and resumptions *)
  let reversed, reversed_t =
    run_pin_world (Some (fun c -> Array.length c - 1))
  in
  Alcotest.(check (list (pair string int)))
    "newest-first policy order"
    [
      ("y0", 0); ("y1", 0); ("yc", 0);
      ("w1", us 5); ("w2", us 5); ("t3", us 5); ("t2", us 5); ("t1", us 5);
      ("p", us 10);
    ]
    reversed;
  check_int "newest-first final sim time" base_t reversed_t

let test_tie_break_reorders () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 3 do
    ignore (Engine.at eng (us 10) (fun () -> log := i :: !log))
  done;
  Engine.set_tie_break eng (Some (fun c -> Array.length c - 1));
  Engine.run eng;
  Alcotest.(check (list int))
    "last-created fires first under reversing policy" [ 3; 2; 1 ]
    (List.rev !log);
  check_int "clock still advances to the batch time" (us 10) (Engine.now eng)

(* ---------- same-instant order pins ---------- *)

(* A seeded "process soup" built to collide as many events as possible at
   one instant: 0-3 ns sleeps, yields, Waitq signal/broadcast with timed
   waits, CPU requests at mixed priorities (so some preempt), and
   [Engine.after 0] timers, some cancelled within the same instant, some
   spawning new processes.  Every random draw happens inside a firing
   event, so any change to the (time, seq) firing order changes the log. *)
let soup_log ?policy ~seed () =
  let eng = Engine.create () in
  let rng = Rng.create ~seed in
  let log = Buffer.create 65536 in
  let events = ref 0 in
  let record actor step =
    incr events;
    Printf.bprintf log "%d %s %d\n" (Engine.now eng) actor step
  in
  let q = Waitq.create eng in
  let cpu = Cpu.create eng ~name:"soup-cpu" () in
  let owners =
    Array.init 3 (fun i ->
        Cpu.owner cpu ~name:(Printf.sprintf "o%d" i) ~switch_in:i)
  in
  let spawned = ref 0 in
  let rec actor name steps () =
    for step = 1 to steps do
      record name step;
      match Rng.int rng 8 with
      | 0 -> Engine.sleep eng (Rng.int rng 4)
      | 1 -> Engine.yield eng
      | 2 -> (
          match Waitq.wait_timeout q (Rng.int rng 4) with
          | `Signaled -> record name (-1)
          | `Timeout -> record name (-2))
      | 3 -> if Waitq.signal q then record name (-3)
      | 4 -> record name (-4 - Waitq.broadcast q)
      | 5 ->
          Cpu.consume cpu
            owners.(Rng.int rng 3)
            ~priority:(Rng.int rng 3)
            ~atomic:(Rng.int rng 4 = 0)
            (1 + Rng.int rng 3)
      | 6 ->
          (* a same-instant timer, cancelled by an earlier one half the
             time *)
          let victim = ref None in
          let cancel_it = Rng.bool rng in
          ignore
            (Engine.after eng 0 ~label:(name ^ ".c") (fun () ->
                 record (name ^ ".c") step;
                 if cancel_it then Option.iter (Engine.cancel eng) !victim));
          victim :=
            Some
              (Engine.after eng 0 ~label:(name ^ ".v") (fun () ->
                   record (name ^ ".v") step))
      | _ ->
          let d = Rng.int rng 3 in
          ignore
            (Engine.after eng d ~label:(name ^ ".s") (fun () ->
                 record (name ^ ".s") step;
                 if !spawned < 40 then begin
                   incr spawned;
                   let child = Printf.sprintf "k%d" !spawned in
                   Engine.spawn eng ~name:child
                     (actor child (2 + Rng.int rng 6))
                 end))
    done
  in
  for i = 0 to 7 do
    let name = Printf.sprintf "a%d" i in
    Engine.spawn eng ~name (actor name 40)
  done;
  Engine.set_tie_break eng policy;
  Engine.run eng;
  (Digest.to_hex (Digest.string (Buffer.contents log)), !events, Engine.now eng)

let test_soup_order_pinned () =
  List.iter
    (fun (seed, want_digest, want_events, want_time) ->
      let want = (want_digest, want_events, want_time) in
      Alcotest.(check (triple string int int))
        (Printf.sprintf "seed %d: (log digest, events, final time)" seed)
        want (soup_log ~seed ());
      (* the policy loop keeps every event in the heap: same order *)
      Alcotest.(check (triple string int int))
        (Printf.sprintf "seed %d: identity policy" seed)
        want
        (soup_log ~policy:(fun _ -> 0) ~seed ()))
    [
      (1990, "6c15e7bcbce189e308b6448486c9c7b8", 793, 154);
      (4242, "67528184944e7db7e4eee36ace57d843", 790, 206);
    ]

(* A spawn- and yield-heavy soup: every step either yields, spawns a child
   (which itself yields and spawns, to a bounded depth), or sleeps 0-1 ns,
   so nearly every event is a lane entry — starts, yield steps and
   resumptions — interleaved with a few sleep wake-ups. *)
let spawn_soup_log ?policy ~seed () =
  let eng = Engine.create () in
  let rng = Rng.create ~seed in
  let log = Buffer.create 65536 in
  let events = ref 0 in
  let spawned = ref 0 in
  let rec actor name depth steps () =
    for step = 1 to steps do
      incr events;
      Printf.bprintf log "%d %s %d\n" (Engine.now eng) name step;
      match Rng.int rng 6 with
      | 0 | 1 | 2 -> Engine.yield eng
      | 3 | 4 when !spawned < 300 && depth < 5 ->
          incr spawned;
          let child = Printf.sprintf "%s.%d" name step in
          Engine.spawn eng ~name:child
            (actor child (depth + 1) (1 + Rng.int rng 6));
          if Rng.bool rng then Engine.yield eng
      | _ -> Engine.sleep eng (Rng.int rng 2)
    done
  in
  for i = 0 to 5 do
    let name = Printf.sprintf "s%d" i in
    Engine.spawn eng ~name (actor name 0 30)
  done;
  Engine.set_tie_break eng policy;
  Engine.run eng;
  (Digest.to_hex (Digest.string (Buffer.contents log)), !events, Engine.now eng)

(* Digests recorded with the engine before processes parked in their own
   record (one closure per resumption): the lane layout must not move a
   single event. *)
let test_spawn_soup_order_pinned () =
  List.iter
    (fun (seed, want_digest, want_events, want_time) ->
      let want = (want_digest, want_events, want_time) in
      Alcotest.(check (triple string int int))
        (Printf.sprintf "seed %d: (log digest, events, final time)" seed)
        want (spawn_soup_log ~seed ());
      Alcotest.(check (triple string int int))
        (Printf.sprintf "seed %d: identity policy" seed)
        want
        (spawn_soup_log ~policy:(fun _ -> 0) ~seed ()))
    [
      (1990, "8635e7e4dc91d4439150f99a375934ac", 1212, 6);
      (4242, "a7e635209bba89e4e28b5a4d58c3c7b5", 1185, 5);
    ]

(* Far more same-instant work than the lane's initial 16 slots, with
   heap timers at the same instant interleaved: the lane grows and wraps
   and still fires in creation (seq) order, as the all-heap policy loop
   does. *)
let lane_log policy =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 50 do
    let name = Printf.sprintf "p%d" i in
    Engine.spawn eng ~name (fun () ->
        for step = 1 to 3 do
          log := Printf.sprintf "%s.%d" name step :: !log;
          Engine.yield eng
        done);
    if i mod 5 = 0 then
      ignore
        (Engine.at eng 0 (fun () -> log := Printf.sprintf "t%d" i :: !log))
  done;
  Engine.set_tie_break eng policy;
  Engine.run eng;
  List.rev !log

let test_lane_grows_in_order () =
  let default = lane_log None in
  check_int "every step and timer fired" (150 + 10) (List.length default);
  Alcotest.(check (list string))
    "first round: creation order"
    [ "p1.1"; "p2.1"; "p3.1"; "p4.1"; "p5.1"; "t5"; "p6.1" ]
    (List.filteri (fun i _ -> i < 7) default);
  Alcotest.(check (list string))
    "identity policy = default order" default
    (lane_log (Some (fun _ -> 0)))

(* A process fails in the middle of a busy instant: the failure surfaces
   out of [run] with the rest of the instant still queued, and a second
   [run] fires what is left in the original order. *)
let test_failure_mid_instant_resumes () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s = log := (s, Engine.now eng) :: !log in
  Engine.spawn eng ~name:"a" (fun () ->
      note "a0";
      Engine.yield eng;
      note "a1";
      Engine.yield eng;
      note "a2");
  Engine.spawn eng ~name:"boom" (fun () ->
      note "boom0";
      Engine.yield eng;
      failwith "mid-instant");
  Engine.spawn eng ~name:"b" (fun () ->
      note "b0";
      ignore (Engine.after eng 0 (fun () -> note "tb"));
      Engine.yield eng;
      note "b1";
      Engine.spawn eng ~name:"c" (fun () -> note "c0");
      Engine.sleep eng 1;
      note "b2");
  ignore (Engine.after eng 0 (fun () -> note "t0"));
  Alcotest.check_raises "failure surfaces mid-instant"
    (Engine.Process_failure ("boom", Failure "mid-instant")) (fun () ->
      Engine.run eng);
  Alcotest.(check (option int)) "no process running after the failure" None
    (Engine.current_pid eng);
  check_int "clock still at the failing instant" 0 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "remaining events fire in the original order"
    [
      ("a0", 0); ("boom0", 0); ("b0", 0); ("t0", 0); ("tb", 0); ("a1", 0);
      (* boom fails here, with b's resumption and a's yield still queued *)
      ("b1", 0); ("c0", 0); ("a2", 0); ("b2", 1);
    ]
    (List.rev !log)

(* ---------- reference model of the event queue ---------- *)

(* Random programs of timers, cancels, spawns, yields and sleeps, run on
   the engine and on a model that keeps the pending events in a plain
   list and always fires the least (time, seq).  Both log
   every timer firing and process step with the clock and the pending
   count; the logs must agree.  A cancel names a handle by creation index
   (-1: the inert timer), so it may hit a pending, fired, cancelled or
   slot-reused handle, from outside or from inside a callback.  Under the
   [last] policy every tie goes to the latest-scheduled candidate, so the
   losers go back into the queue and must stay cancellable. *)
type act =
  | Sched of int * act list (* delay, acts run when it fires *)
  | Cancel of int
  | Spawn of step list

and step = Yield | Sleep of int | Act of act

let show_list f l = String.concat " " (List.map f l)

let rec show_act = function
  | Sched (d, acts) -> Printf.sprintf "S%d[%s]" d (show_list show_act acts)
  | Cancel k -> Printf.sprintf "C%d" k
  | Spawn steps -> Printf.sprintf "P{%s}" (show_list show_step steps)

and show_step = function
  | Yield -> "y"
  | Sleep d -> Printf.sprintf "z%d" d
  | Act a -> show_act a

let gen_program =
  let open QCheck2.Gen in
  let delay = int_bound 3 in
  let cancel = map (fun k -> Cancel k) (int_range (-1) 24) in
  let rec act depth =
    if depth = 0 then oneof [ map (fun d -> Sched (d, [])) delay; cancel ]
    else
      frequency
        [
          ( 3,
            map2
              (fun d acts -> Sched (d, acts))
              delay
              (list_size (int_bound 3) (act (depth - 1))) );
          (3, cancel);
          ( 1,
            map (fun s -> Spawn s) (list_size (int_bound 4) (step (depth - 1)))
          );
        ]
  and step depth =
    frequency
      [
        (1, pure Yield);
        (1, map (fun d -> Sleep d) delay);
        (2, map (fun a -> Act a) (act depth));
      ]
  in
  list_size (int_range 1 12) (act 3)

(* the handle a cancel names, among the [count] made so far *)
let nth_handle k count = if k < 0 || count = 0 then -1 else k mod count

type log_entry = Fired of int | Step of int * int

let run_engine ~last prog =
  let eng = Engine.create () in
  let log = ref [] in
  let note e =
    log := (e, Engine.now eng, Engine.pending_events eng) :: !log
  in
  let handles = Hashtbl.create 16 and pids = ref 0 in
  let rec act = function
    | Sched (d, acts) ->
        let id = Hashtbl.length handles in
        Hashtbl.replace handles id
          (Engine.after eng d (fun () ->
               note (Fired id);
               List.iter act acts))
    | Cancel k ->
        Engine.cancel eng
          (match nth_handle k (Hashtbl.length handles) with
          | -1 -> Engine.inert_timer
          | i -> Hashtbl.find handles i)
    | Spawn steps ->
        let pid = !pids in
        incr pids;
        Engine.spawn eng (fun () ->
            note (Step (pid, 0));
            List.iteri
              (fun i s ->
                (match s with
                | Yield -> Engine.yield eng
                | Sleep d -> Engine.sleep eng d
                | Act a -> act a);
                note (Step (pid, i + 1)))
              steps)
  in
  List.iter act prog;
  if last then
    Engine.set_tie_break eng (Some (fun cands -> Array.length cands - 1));
  Engine.run eng;
  (List.rev !log, Engine.now eng, Engine.pending_events eng)

(* What each queued model event does when it fires. *)
type mev =
  | M_timer of int * act list (* handle id *)
  | M_start of int * step array
  | M_park of int * step array * int
      (* a sleep's timer or a yield entry: queues the resumption after
         step i *)
  | M_resume of int * step array * int

let run_model ~last prog =
  let clock = ref 0 and seq = ref 0 and queue = ref [] in
  let log = ref [] and handles = ref 0 and pids = ref 0 in
  let note e = log := (e, !clock, List.length !queue) :: !log in
  let push time ev =
    queue := (time, !seq, ev) :: !queue;
    incr seq
  in
  let rec act = function
    | Sched (d, acts) ->
        push (!clock + d) (M_timer (!handles, acts));
        incr handles
    | Cancel k ->
        let h = nth_handle k !handles in
        queue :=
          List.filter
            (function _, _, M_timer (id, _) -> id <> h | _ -> true)
            !queue
    | Spawn steps ->
        push !clock (M_start (!pids, Array.of_list steps));
        incr pids
  (* run process [pid] from step [i] up to its next parking *)
  and steps_from pid steps i =
    if i < Array.length steps then
      match steps.(i) with
      | Yield -> push !clock (M_park (pid, steps, i))
      | Sleep d when d > 0 -> push (!clock + d) (M_park (pid, steps, i))
      | Sleep _ ->
          note (Step (pid, i + 1));
          steps_from pid steps (i + 1)
      | Act a ->
          act a;
          note (Step (pid, i + 1));
          steps_from pid steps (i + 1)
  in
  List.iter act prog;
  let better (t1, s1, _) (t2, s2, _) =
    t1 < t2 || (t1 = t2 && if last then s1 > s2 else s1 < s2)
  in
  while !queue <> [] do
    let time, s, ev =
      List.fold_left
        (fun best e -> if better e best then e else best)
        (List.hd !queue) !queue
    in
    queue := List.filter (fun (_, s', _) -> s' <> s) !queue;
    clock := time;
    match ev with
    | M_timer (id, acts) ->
        note (Fired id);
        List.iter act acts
    | M_start (pid, steps) ->
        note (Step (pid, 0));
        steps_from pid steps 0
    | M_park (pid, steps, i) -> push !clock (M_resume (pid, steps, i))
    | M_resume (pid, steps, i) ->
        note (Step (pid, i + 1));
        steps_from pid steps (i + 1)
  done;
  (List.rev !log, !clock, 0)

let prop_queue_matches_model ~last =
  QCheck2.Test.make ~count:500
    ~name:
      (if last then "queue matches reference model under a policy"
       else "queue matches reference model")
    ~print:(show_list show_act) gen_program
    (fun prog -> run_engine ~last prog = run_model ~last prog)

(* After a tie-break choice the losers go back into the queue; a cancel of
   one of them from the chosen callback must still take effect. *)
let test_policy_loser_cancel () =
  let eng = Engine.create () in
  let log = ref [] in
  let fire name () = log := name :: !log in
  let a = Engine.at eng (us 1) ~label:"a" (fire "a") in
  ignore (Engine.at eng (us 1) ~label:"b" (fire "b"));
  ignore
    (Engine.at eng (us 1) ~label:"c" (fun () ->
         fire "c" ();
         Engine.cancel eng a));
  Engine.set_tie_break eng (Some (fun cands -> Array.length cands - 1));
  Engine.run eng;
  Alcotest.(check (list string)) "cancelled loser never fires" [ "c"; "b" ]
    (List.rev !log);
  check_int "queue drained" 0 (Engine.pending_events eng)

(* ---------- allocation pins ---------- *)

(* Minor words per blocking call in a one-process loop, measured inside
   the process (so engine set-up is outside the window) and including the
   run loop's share.  Each bound sits two words above the measured count
   (sleep 2, yield 2, consume 2, timed wait 11), so a context switch that
   allocates a closure, a handler, a label, an option, an event record, a
   CPU request or a boxed waker again fails here. *)
let words_per_iteration ~n body =
  let eng = Engine.create () in
  let words = ref 0. in
  Engine.spawn eng ~name:"loop" (fun () ->
      let body = body eng in
      (* warm-up: first-use label and queue growth stay outside *)
      body ();
      let before = Gc.minor_words () in
      for _ = 1 to n do
        body ()
      done;
      words := Gc.minor_words () -. before);
  Engine.run eng;
  !words /. float_of_int n

let sleep_words () =
  words_per_iteration ~n:10_000 (fun eng () -> Engine.sleep eng 1)

let yield_words () =
  words_per_iteration ~n:10_000 (fun eng () -> Engine.yield eng)

let consume_words () =
  words_per_iteration ~n:10_000 (fun eng ->
      let cpu = Cpu.create eng ~name:"cpu" () in
      let thread = Cpu.owner cpu ~name:"thread" ~switch_in:0 in
      fun () -> Cpu.consume cpu thread ~priority:1 10)

(* park, time out, resume; the signal drains the dead entry *)
let timed_wait_words () =
  words_per_iteration ~n:10_000 (fun eng ->
      let q = Waitq.create eng in
      fun () ->
        ignore (Waitq.wait_timeout q 1);
        ignore (Waitq.signal q))

(* A plain wait and the signal that ends it allocate nothing beyond the
   parking's continuation (2 words, as for a yield): the waker is an
   immediate in the queue's ring (a boxed waker and a queue cell were 5
   words more).  Measured as the words a round of wait + signal adds to
   a signaller's round of signal + yield, whole run loop included, 2 000
   rounds against 1 000. *)
let plain_wait_words () =
  let run ~rounds ~wait =
    let eng = Engine.create () in
    let q = Waitq.create eng in
    Engine.spawn eng ~name:"waiter" (fun () ->
        if wait then
          for _ = 1 to rounds do
            Waitq.wait q
          done);
    Engine.spawn eng ~name:"signaller" (fun () ->
        for _ = 1 to rounds do
          ignore (Waitq.signal q);
          Engine.yield eng
        done);
    let before = Gc.minor_words () in
    Engine.run eng;
    Gc.minor_words () -. before
  in
  let per_round ~wait =
    (run ~rounds:2_000 ~wait -. run ~rounds:1_000 ~wait) /. 1_000.
  in
  per_round ~wait:true -. per_round ~wait:false

(* Scheduling a timer and firing it allocate nothing beyond the
   callback, which is built once here: the handle is an immediate and the
   queue keeps no per-event record.  Measured outside any process. *)
let after_fire_words () =
  let eng = Engine.create () in
  let fired = ref 0 in
  let callback () = incr fired in
  let once () =
    ignore (Engine.after eng 1 callback);
    Engine.run eng
  in
  once ();
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    once ()
  done;
  let words = Gc.minor_words () -. before in
  check_int "every timer fired" (n + 1) !fired;
  words /. float_of_int n

(* Taking a waker and waking a parked process with it allocate nothing:
   a waker is an immediate and the lane entry is three ints.  Measured
   around the two calls only, in two processes that take turns. *)
let waker_wake_words () =
  let eng = Engine.create () in
  let n = 10_000 in
  let w = ref Engine.no_waker in
  let words = ref 0. in
  let measure i f =
    let before = Gc.minor_words () in
    f ();
    let d = Gc.minor_words () -. before in
    (* the first round is warm-up *)
    if i > 0 then words := !words +. d
  in
  Engine.spawn eng ~name:"parker" (fun () ->
      for i = 0 to n do
        measure i (fun () -> w := Engine.waker eng);
        Engine.block eng
      done);
  Engine.spawn eng ~name:"waker" (fun () ->
      for i = 0 to n do
        measure i (fun () -> Engine.wake eng !w);
        Engine.yield eng
      done);
  Engine.run eng;
  !words /. float_of_int n

(* Minor words per process started into a slot that a finished process
   left, run loop included: a sequential spawn/run loop after one warm-up
   round, with the body built once.  The slot keeps its record, so what
   is left is the 5-word effect closure [Effect.Deep.match_with] builds
   per fiber, and a sleeper's sleep adds only its 2-word continuation.
   A process record, a "<name>.wake" label or a wake-up closure per
   process fails the bounds. *)
let spawn_words ~sleep () =
  let eng = Engine.create () in
  let ran = ref 0 in
  let body () =
    if sleep then Engine.sleep eng 1;
    incr ran
  in
  let once () =
    Engine.spawn eng ~name:"p" body;
    Engine.run eng
  in
  once ();
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    once ()
  done;
  let words = Gc.minor_words () -. before in
  check_int "every process ran" (n + 1) !ran;
  words /. float_of_int n

let alloc_pin what measure bound () =
  let w = measure () in
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates %.1f <= %.0f words" what w bound)
    true (w <= bound)

(* ---------- rng snapshots ---------- *)

let draw r n =
  let acc = ref [] in
  for _ = 1 to n do
    acc := Rng.int r 1_000_000 :: !acc
  done;
  List.rev !acc

let prop_rng_restore =
  QCheck2.Test.make ~name:"restored rng replays the identical stream"
    QCheck2.Gen.(pair small_nat (int_bound 50))
    (fun (seed, k) ->
      let r = Rng.create ~seed in
      ignore (draw r k);
      let snap = Rng.save r in
      let forked = Rng.copy r in
      let original = draw r 64 in
      let replayed =
        Rng.restore r snap;
        draw r 64
      in
      let from_copy = draw forked 64 in
      original = replayed && original = from_copy)

let test_rng_copy_independent () =
  let r = Rng.create ~seed:42 in
  let c = Rng.copy r in
  let from_copy = draw c 20 in
  let from_orig = draw r 20 in
  Alcotest.(check (list int))
    "copy starts from the same state" from_orig from_copy;
  (* draining one generator must not advance the other *)
  ignore (draw c 100);
  let snap = Rng.save r in
  let a = draw r 5 in
  Rng.restore r snap;
  let b = draw r 5 in
  Alcotest.(check (list int)) "restore rewinds the original exactly" a b

(* ---------- waitq edge cases ---------- *)

let test_waitq_signal_empty () =
  let eng = Engine.create () in
  let q = Waitq.create eng in
  Alcotest.(check bool) "signal with no waiter is lost" false (Waitq.signal q);
  check_int "broadcast with no waiter wakes none" 0 (Waitq.broadcast q);
  check_int "no waiters" 0 (Waitq.waiters q)

let test_waitq_signal_skips_dead_entry () =
  let eng = Engine.create () in
  let q = Waitq.create eng in
  let out = ref `Signaled in
  let woke = ref false in
  let signal_found = ref false in
  Engine.spawn eng ~name:"timed" (fun () ->
      out := Waitq.wait_timeout q (us 5));
  Engine.spawn eng ~name:"patient" (fun () ->
      Waitq.wait q;
      woke := true);
  ignore
    (Engine.after eng (us 10) (fun () ->
         (* the timed-out entry is still physically queued ahead of the
            live waiter: signal must skip it, not deliver to a corpse *)
         signal_found := Waitq.signal q));
  Engine.run eng;
  Alcotest.(check bool) "first waiter timed out" true (!out = `Timeout);
  Alcotest.(check bool) "signal found the live waiter" true !signal_found;
  Alcotest.(check bool) "live waiter woken" true !woke

let test_waitq_signal_after_all_dead () =
  let eng = Engine.create () in
  let q = Waitq.create eng in
  let out = ref `Signaled in
  let late_signal = ref true in
  Engine.spawn eng (fun () -> out := Waitq.wait_timeout q (us 5));
  ignore (Engine.after eng (us 10) (fun () -> late_signal := Waitq.signal q));
  Engine.run eng;
  Alcotest.(check bool) "timed out" true (!out = `Timeout);
  Alcotest.(check bool)
    "signal after the only waiter died returns false" false !late_signal;
  check_int "dead entry drained from the queue" 0 (Waitq.waiters q)

(* ---------- resource edge cases ---------- *)

let test_resource_release_beyond_capacity () =
  let eng = Engine.create () in
  let r = Resource.create eng ~capacity:1 () in
  Alcotest.check_raises "release when not held"
    (Invalid_argument "Resource.release: not held") (fun () ->
      Resource.release r);
  (* the rejected release must not corrupt the accounting *)
  Engine.spawn eng (fun () -> Resource.use r (us 5));
  Engine.run eng;
  check_int "in_use back to zero" 0 (Resource.in_use r);
  check_int "busy time intact" (us 5) (Resource.busy_time r);
  Alcotest.check_raises "still rejected after a clean cycle"
    (Invalid_argument "Resource.release: not held") (fun () ->
      Resource.release r)

let test_resource_queue_drains_in_order () =
  let eng = Engine.create () in
  let r = Resource.create eng ~capacity:1 () in
  let order = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Resource.with_held r (fun () ->
            Engine.sleep eng (us 2);
            order := i :: !order))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo handoff" [ 1; 2; 3 ] (List.rev !order);
  check_int "queue drained" 0 (Resource.queue_length r);
  check_int "nothing held" 0 (Resource.in_use r)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "nectar_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event time order" `Quick test_event_order;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
          Alcotest.test_case "sleep" `Quick test_sleep_advances_clock;
          Alcotest.test_case "interleaving" `Quick test_nested_sleeps;
          Alcotest.test_case "failure propagates" `Quick
            test_process_failure_propagates;
          Alcotest.test_case "run ~until" `Quick test_run_until;
          Alcotest.test_case "suspend/resume value" `Quick
            test_suspend_resume_value;
          qtest (prop_queue_matches_model ~last:false);
          qtest (prop_queue_matches_model ~last:true);
          Alcotest.test_case "policy loser cancel" `Quick
            test_policy_loser_cancel;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "fifo wakeup" `Quick test_waitq_fifo_wakeup;
          Alcotest.test_case "timeout" `Quick test_waitq_timeout;
          Alcotest.test_case "signal beats timeout" `Quick
            test_waitq_signal_beats_timeout;
          Alcotest.test_case "broadcast" `Quick test_waitq_broadcast;
          Alcotest.test_case "signal on empty queue" `Quick
            test_waitq_signal_empty;
          Alcotest.test_case "signal skips dead entry" `Quick
            test_waitq_signal_skips_dead_entry;
          Alcotest.test_case "signal after all dead" `Quick
            test_waitq_signal_after_all_dead;
          Alcotest.test_case "signal and timeout at one instant" `Quick
            test_waitq_signal_timeout_same_instant;
          Alcotest.test_case "live waiter count" `Quick test_waitq_live_count;
        ] );
      ( "parking",
        [
          Alcotest.test_case "double wake fails" `Quick test_double_wake_fails;
          Alcotest.test_case "stale wake fails" `Quick test_stale_wake_fails;
          Alcotest.test_case "wake before block" `Quick test_wake_before_block;
          Alcotest.test_case "finished waker after slot reuse" `Quick
            test_finished_waker_after_reuse;
          Alcotest.test_case "orphan waker after exit" `Quick
            test_orphan_waker_after_exit;
          Alcotest.test_case "stale lane entry after slot reuse" `Quick
            test_stale_lane_entry;
          Alcotest.test_case "labels after slot reuse" `Quick
            test_labels_after_slot_reuse;
        ] );
      ( "tie-break",
        [
          Alcotest.test_case "identity policy pins default order" `Quick
            test_identity_tie_break_pins_default;
          Alcotest.test_case "reversing policy reorders" `Quick
            test_tie_break_reorders;
        ] );
      ( "alloc pin",
        [
          Alcotest.test_case "sleep minor words" `Quick
            (alloc_pin "Engine.sleep" sleep_words 4.);
          Alcotest.test_case "cpu consume minor words" `Quick
            (alloc_pin "Cpu.consume" consume_words 4.);
          Alcotest.test_case "yield minor words" `Quick
            (alloc_pin "Engine.yield" yield_words 4.);
          Alcotest.test_case "timed wait minor words" `Quick
            (alloc_pin "Waitq.wait_timeout" timed_wait_words 13.);
          Alcotest.test_case "plain wait minor words" `Quick
            (alloc_pin "Waitq.wait + signal" plain_wait_words 2.);
          Alcotest.test_case "after and fire minor words" `Quick
            (alloc_pin "Engine.after + fire" after_fire_words 0.);
          Alcotest.test_case "waker and wake minor words" `Quick
            (alloc_pin "Engine.waker + wake" waker_wake_words 0.);
          Alcotest.test_case "spawn minor words" `Quick
            (alloc_pin "Engine.spawn + run" (spawn_words ~sleep:false) 5.);
          Alcotest.test_case "sleeper spawn minor words" `Quick
            (alloc_pin "Engine.spawn + sleep + run" (spawn_words ~sleep:true)
               7.);
        ] );
      ( "order pin",
        [
          Alcotest.test_case "process soup firing log" `Quick
            test_soup_order_pinned;
          Alcotest.test_case "spawn/yield soup firing log" `Quick
            test_spawn_soup_order_pinned;
          Alcotest.test_case "same-instant lane grows in order" `Quick
            test_lane_grows_in_order;
          Alcotest.test_case "failure mid-instant, then resume" `Quick
            test_failure_mid_instant_resumes;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serializes" `Quick test_resource_serializes;
          Alcotest.test_case "try_acquire" `Quick test_resource_try_acquire;
          Alcotest.test_case "busy time" `Quick test_resource_busy_time;
          Alcotest.test_case "capacity 2" `Quick test_resource_capacity2;
          Alcotest.test_case "release beyond capacity" `Quick
            test_resource_release_beyond_capacity;
          Alcotest.test_case "queue drains in order" `Quick
            test_resource_queue_drains_in_order;
        ] );
      ( "byte_fifo",
        [
          Alcotest.test_case "backpressure" `Quick test_fifo_backpressure;
          Alcotest.test_case "pop blocks" `Quick
            test_fifo_pop_blocks_until_data;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "single consume" `Quick test_cpu_single_consume;
          Alcotest.test_case "fifo same priority" `Quick
            test_cpu_fifo_same_priority;
          Alcotest.test_case "preemption" `Quick test_cpu_preemption;
          Alcotest.test_case "atomic section" `Quick
            test_cpu_atomic_blocks_preemption;
          Alcotest.test_case "switch cost" `Quick test_cpu_switch_cost;
          Alcotest.test_case "owner accounting" `Quick
            test_cpu_owner_accounting;
          qtest prop_cpu_work_conservation;
          qtest prop_cpu_matches_model;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seeded replay" `Quick test_determinism ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary percentile edges" `Quick
            test_summary_percentile_edges;
          qtest prop_percentile_matches_sort;
          Alcotest.test_case "summary nearest rank" `Quick
            test_summary_nearest_rank;
          qtest prop_select_rank_matches_sort;
          Alcotest.test_case "throughput" `Quick test_throughput;
          Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
          qtest prop_rng_restore;
          Alcotest.test_case "rng copy independent" `Quick
            test_rng_copy_independent;
        ] );
    ]
