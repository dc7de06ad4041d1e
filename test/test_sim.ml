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
  ignore (Engine.after eng (us 1) (fun () -> Engine.cancel tm));
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

let test_suspend_resume_value () =
  let eng = Engine.create () in
  let resumer = ref (fun (_ : int) -> ()) in
  let got = ref 0 in
  Engine.spawn eng (fun () ->
      let v = Engine.suspend (fun resume -> resumer := resume) in
      got := v + 1);
  ignore (Engine.after eng (us 3) (fun () -> !resumer 41));
  Engine.run eng;
  check_int "resumed with value" 42 !got

(* ---------- Waitq ---------- *)

let test_waitq_fifo_wakeup () =
  let eng = Engine.create () in
  let q = Waitq.create eng () in
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
  let q = Waitq.create eng () in
  let out = ref `Signaled in
  Engine.spawn eng (fun () -> out := Waitq.wait_timeout q (us 7));
  Engine.run eng;
  Alcotest.(check bool) "timed out" true (!out = `Timeout);
  check_int "at timeout time" (us 7) (Engine.now eng)

let test_waitq_signal_beats_timeout () =
  let eng = Engine.create () in
  let q = Waitq.create eng () in
  let out = ref `Timeout in
  Engine.spawn eng (fun () -> out := Waitq.wait_timeout q (us 100));
  ignore (Engine.after eng (us 5) (fun () -> ignore (Waitq.signal q)));
  Engine.run eng;
  Alcotest.(check bool) "signaled" true (!out = `Signaled);
  check_int "no stray timeout event" 0 (Engine.pending_events eng)

let test_waitq_broadcast () =
  let eng = Engine.create () in
  let q = Waitq.create eng () in
  let woken = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () ->
        Waitq.wait q;
        incr woken)
  done;
  ignore (Engine.after eng (us 1) (fun () -> ignore (Waitq.broadcast q)));
  Engine.run eng;
  check_int "all woken" 4 !woken

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

(* ---------- Determinism ---------- *)

let scenario_trace seed =
  let eng = Engine.create () in
  let rng = Rng.create ~seed in
  let cpu = Cpu.create eng ~name:"c" () in
  let q = Waitq.create eng () in
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
  let s = Summary.create ~keep_samples:true () in
  List.iter (Summary.add s) [ 1.; 2.; 3.; 4. ];
  check_int "count" 4 (Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 4. (Summary.max s);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Summary.percentile s 0.5)

let test_summary_welford_offset () =
  (* naive sum-of-squares cancels catastrophically at this offset; Welford
     must still see the {0, 1, 2} spread around 1e9 *)
  let s = Summary.create () in
  List.iter (Summary.add s) [ 1e9; 1e9 +. 1.; 1e9 +. 2. ];
  Alcotest.(check (float 1e-9)) "mean" (1e9 +. 1.) (Summary.mean s);
  Alcotest.(check (float 1e-6))
    "stddev sqrt(2/3)"
    (sqrt (2. /. 3.))
    (Summary.stddev s)

let test_summary_percentile_edges () =
  let s = Summary.create ~keep_samples:true () in
  Summary.add s 7.;
  Alcotest.(check (float 1e-9)) "p=0 of one sample" 7.
    (Summary.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p=1 of one sample" 7.
    (Summary.percentile s 1.);
  List.iter (Summary.add s) [ 3.; 5.; 1. ];
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

let test_summary_empty_min_max () =
  let s = Summary.create () in
  Alcotest.check_raises "empty min raises"
    (Invalid_argument "Summary.min: empty") (fun () ->
      ignore (Summary.min s));
  Alcotest.check_raises "empty max raises"
    (Invalid_argument "Summary.max: empty") (fun () ->
      ignore (Summary.max s))

let test_summary_merge () =
  (* empty <-> populated in both directions preserves the populated
     side's moments and extrema *)
  let a = Summary.create () in
  List.iter (Summary.add a) [ 2.; 4.; 6. ];
  Summary.merge ~into:a (Summary.create ());
  check_int "empty src: count kept" 3 (Summary.count a);
  Alcotest.(check (float 1e-12)) "empty src: mean kept" 4. (Summary.mean a);
  Alcotest.(check (float 1e-12)) "empty src: min kept" 2. (Summary.min a);
  Alcotest.(check (float 1e-12)) "empty src: max kept" 6. (Summary.max a);
  let b = Summary.create () in
  Summary.merge ~into:b a;
  check_int "empty dst: count copied" 3 (Summary.count b);
  Alcotest.(check (float 1e-12)) "empty dst: stddev copied"
    (Summary.stddev a) (Summary.stddev b);
  (* two populated shards at a 1e9 offset must equal the single-stream
     fold (Chan's combine, no catastrophic cancellation) *)
  let x = Summary.create ~keep_samples:true () in
  let y = Summary.create ~keep_samples:true () in
  let all = Summary.create ~keep_samples:true () in
  let xs = [ 1e9; 1e9 +. 1.; 1e9 +. 2. ]
  and ys = [ 1e9 +. 100.; 1e9 +. 101. ] in
  List.iter (Summary.add x) xs;
  List.iter (Summary.add y) ys;
  List.iter (Summary.add all) (xs @ ys);
  Summary.merge ~into:x y;
  check_int "count" (Summary.count all) (Summary.count x);
  Alcotest.(check (float 1e-6)) "mean" (Summary.mean all)
    (Summary.mean x);
  Alcotest.(check (float 1e-6)) "stddev" (Summary.stddev all)
    (Summary.stddev x);
  Alcotest.(check (float 1e-12)) "max" (Summary.max all)
    (Summary.max x);
  (* kept samples concatenate, so percentiles keep working after merge *)
  Alcotest.(check (float 1e-12)) "p50 over merged samples"
    (Summary.percentile all 0.5)
    (Summary.percentile x 0.5)

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
  let q = Waitq.create eng ~name:"pin" () in
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
  ignore (Engine.after eng (us 1) (fun () -> Engine.cancel tm))

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
  let q = Waitq.create eng ~name:"soup" () in
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
                 if cancel_it then Option.iter Engine.cancel !victim));
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

(* ---------- allocation pins ---------- *)

(* Minor words per blocking call in a one-process loop, measured inside
   the process (so engine set-up is outside the window) and including the
   run loop's share.  The bounds sit a few words above the measured 41 and
   54, so a context switch that allocates a handler, a label or an event
   record again fails here. *)
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

let consume_words () =
  words_per_iteration ~n:10_000 (fun eng ->
      let cpu = Cpu.create eng ~name:"cpu" () in
      let thread = Cpu.owner cpu ~name:"thread" ~switch_in:0 in
      fun () -> Cpu.consume cpu thread ~priority:1 10)

let test_sleep_alloc_pin () =
  let w = sleep_words () in
  Alcotest.(check bool)
    (Printf.sprintf "Engine.sleep allocates %.1f <= 48 words" w)
    true (w <= 48.)

let test_consume_alloc_pin () =
  let w = consume_words () in
  Alcotest.(check bool)
    (Printf.sprintf "Cpu.consume allocates %.1f <= 70 words" w)
    true (w <= 70.)

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
  let q = Waitq.create eng () in
  Alcotest.(check bool) "signal with no waiter is lost" false (Waitq.signal q);
  check_int "broadcast with no waiter wakes none" 0 (Waitq.broadcast q);
  check_int "no waiters" 0 (Waitq.waiters q)

let test_waitq_signal_skips_dead_entry () =
  let eng = Engine.create () in
  let q = Waitq.create eng () in
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
  let q = Waitq.create eng () in
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
          Alcotest.test_case "sleep minor words" `Quick test_sleep_alloc_pin;
          Alcotest.test_case "cpu consume minor words" `Quick
            test_consume_alloc_pin;
        ] );
      ( "order pin",
        [
          Alcotest.test_case "process soup firing log" `Quick
            test_soup_order_pinned;
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
        ] );
      ( "determinism",
        [ Alcotest.test_case "seeded replay" `Quick test_determinism ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary welford offset" `Quick
            test_summary_welford_offset;
          Alcotest.test_case "summary percentile edges" `Quick
            test_summary_percentile_edges;
          Alcotest.test_case "summary empty min/max" `Quick
            test_summary_empty_min_max;
          Alcotest.test_case "summary parallel merge" `Quick
            test_summary_merge;
          Alcotest.test_case "throughput" `Quick test_throughput;
          Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
          qtest prop_rng_restore;
          Alcotest.test_case "rng copy independent" `Quick
            test_rng_copy_independent;
        ] );
    ]
