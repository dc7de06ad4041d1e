(* Second simulator/runtime suite: the synchronization primitives added
   during calibration (atomic release-and-wait, transparent interrupt
   owners) and behaviors the first wave left uncovered. *)

open Nectar_sim
open Nectar_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let us = Sim_time.us

(* ---------- Waitq.wait_releasing: the lost-wakeup guarantee ---------- *)

let test_wait_releasing_atomicity () =
  (* a signal issued by the party woken by [release] must find the waiter
     already queued — this is exactly the race that loses wakeups when
     release and wait are separated by a suspension point *)
  let eng = Engine.create () in
  let r = Resource.create eng () in
  let q = Waitq.create eng () in
  let woken = ref false in
  Engine.spawn eng ~name:"waiter" (fun () ->
      Resource.acquire r;
      Waitq.wait_releasing q ~release:(fun () -> Resource.release r);
      woken := true);
  Engine.spawn eng ~name:"signaler" (fun () ->
      Engine.sleep eng (us 1);
      (* blocks until the waiter releases, then immediately signals *)
      Resource.acquire r;
      ignore (Waitq.signal q);
      Resource.release r);
  Engine.run eng;
  check_bool "signal found the waiter" true !woken

let test_wait_timeout_releasing () =
  let eng = Engine.create () in
  let r = Resource.create eng () in
  let q = Waitq.create eng () in
  let result = ref `Signaled in
  Engine.spawn eng (fun () ->
      Resource.acquire r;
      result :=
        Waitq.wait_timeout_releasing q
          ~release:(fun () -> Resource.release r)
          (us 10));
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 1);
      Resource.acquire r (* proves the release happened *);
      Resource.release r);
  Engine.run eng;
  check_bool "timed out with the resource released" true (!result = `Timeout)

(* ---------- transparent (interrupt) CPU owners ---------- *)

let test_transparent_owner_no_resume_charge () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"c" () in
  let thread = Cpu.owner cpu ~name:"thread" ~switch_in:(us 20) in
  let irq = Cpu.owner ~transparent:true cpu ~name:"irq" ~switch_in:0 in
  let done_at = ref 0 in
  Engine.spawn eng (fun () ->
      Cpu.consume cpu thread ~priority:1 (us 100);
      done_at := Engine.now eng);
  ignore
    (Engine.after eng (us 50) (fun () ->
         Engine.spawn eng (fun () -> Cpu.consume cpu irq ~priority:9 (us 10))));
  Engine.run eng;
  (* 20 switch-in + 100 work + 10 interrupt — and NO second switch-in when
     the thread resumes after the interrupt *)
  check_int "no re-switch after interrupt return" (us 130) !done_at

let test_opaque_owner_still_pays () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"c" () in
  let a = Cpu.owner cpu ~name:"a" ~switch_in:(us 20) in
  let b = Cpu.owner cpu ~name:"b" ~switch_in:(us 20) in
  let done_at = ref 0 in
  Engine.spawn eng (fun () ->
      Cpu.consume cpu a ~priority:1 (us 100);
      done_at := Engine.now eng);
  ignore
    (Engine.after eng (us 50) (fun () ->
         Engine.spawn eng (fun () -> Cpu.consume cpu b ~priority:9 (us 10))));
  Engine.run eng;
  (* 20 + 100 work + (b: 20 + 10) + a's re-switch 20 *)
  check_int "preemption by another thread re-charges the switch" (us 170)
    !done_at

(* ---------- resource robustness ---------- *)

let test_resource_with_held_exception_safety () =
  let eng = Engine.create () in
  let r = Resource.create eng () in
  Engine.spawn eng (fun () ->
      (try Resource.with_held r (fun () -> failwith "boom")
       with Failure _ -> ());
      check_bool "released after exception" true (Resource.try_acquire r);
      Resource.release r);
  Engine.run eng

let test_mutex_with_lock_exception_safety () =
  let eng = Engine.create () in
  let net = Nectar_hub.Network.create eng ~hubs:1 () in
  let cab = Nectar_cab.Cab.create net ~hub:0 ~port:0 ~name:"cab" in
  let m = Lock.Mutex.create eng ~name:"m" in
  let reacquired = ref false in
  ignore
    (Thread.create cab ~name:"t" (fun ctx ->
         (try Lock.Mutex.with_lock ctx m (fun () -> failwith "boom")
          with Failure _ -> ());
         Lock.Mutex.with_lock ctx m (fun () -> reacquired := true)));
  Engine.run eng;
  check_bool "lock released after exception" true !reacquired

(* ---------- rng distributions ---------- *)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:100.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "sample mean near 100" true (mean > 95.0 && mean < 105.0)

let test_rng_shuffle_is_permutation () =
  let r = Rng.create ~seed:5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "permutation" true (sorted = Array.init 50 Fun.id);
  check_bool "actually shuffled" true (a <> Array.init 50 Fun.id)

(* ---------- engine odds and ends ---------- *)

let test_pending_events_counts_live_only () =
  let eng = Engine.create () in
  let t1 = Engine.after eng (us 10) (fun () -> ()) in
  let _t2 = Engine.after eng (us 20) (fun () -> ()) in
  check_int "two live" 2 (Engine.pending_events eng);
  Engine.cancel t1;
  check_int "one live after cancel" 1 (Engine.pending_events eng);
  Engine.run eng

let test_cancel_storm_compacts () =
  (* The RTO pattern: thousands of timers scheduled and almost all
     cancelled before firing.  Lazy cancellation must not let dead entries
     accumulate: the physical heap stays within 2x of the live events
     (plus the engine's small compaction threshold), and the events that
     do fire are unaffected. *)
  let eng = Engine.create () in
  let fired = ref 0 in
  let live = ref 0 in
  for i = 1 to 10_000 do
    let tm = Engine.after eng (us i) (fun () -> incr fired) in
    if i mod 10 <> 0 then Engine.cancel tm else incr live
  done;
  check_int "live events" !live (Engine.pending_events eng);
  check_bool
    (Printf.sprintf "heap bounded (queued %d, pending %d)"
       (Engine.queued_events eng) (Engine.pending_events eng))
    true
    (Engine.queued_events eng <= (2 * Engine.pending_events eng) + 64);
  Engine.run eng;
  check_int "only live timers fired" !live !fired;
  check_int "drained" 0 (Engine.queued_events eng)

let test_spawned_during_run () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      log := "outer" :: !log;
      Engine.spawn eng (fun () ->
          Engine.sleep eng (us 5);
          log := "inner" :: !log));
  Engine.run eng;
  Alcotest.(check (list string)) "nested spawn runs" [ "inner"; "outer" ] !log

(* ---------- message / mailbox extras ---------- *)

let null_ctx eng : Ctx.t =
  { eng; work = (fun _ -> ()); may_block = true; ctx_name = "t"; on_cpu = None }

let test_message_push_head_bounds () =
  let mem = Nectar_util.Region.of_bytes (Bytes.make 256 '\000') in
  let m = Message.make ~mem ~buf_off:100 ~buf_len:64 ~len:64
      ~free_buffer:(fun () -> ()) () in
  Message.adjust_head m 10;
  Message.push_head m 10;
  check_int "restored" 64 (Message.length m);
  Alcotest.check_raises "cannot grow past the buffer"
    (Invalid_argument "Message.push_head") (fun () -> Message.push_head m 1)

let test_message_blits () =
  let mem = Nectar_util.Region.of_bytes (Bytes.make 256 '\000') in
  let m = Message.make ~mem ~buf_off:16 ~buf_len:64 ~len:64
      ~free_buffer:(fun () -> ()) () in
  let src = Bytes.of_string "0123456789" in
  Message.blit_from m ~dst_pos:4 ~src ~src_pos:2 ~len:5;
  Alcotest.(check string) "blit_from" "23456"
    (Message.read_string m ~pos:4 ~len:5);
  let dst = Bytes.make 5 'z' in
  Message.blit_to m ~src_pos:4 ~dst ~dst_pos:0 ~len:5;
  Alcotest.(check string) "blit_to" "23456" (Bytes.to_string dst)

let test_mailbox_queued_bytes () =
  let eng = Engine.create () in
  let heap = Buffer_heap.create (Nectar_util.Region.create 4096) in
  let mb = Mailbox.create eng ~heap ~name:"m" ~cached_buffer_bytes:0 () in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      let m1 = Mailbox.begin_put ctx mb 100 in
      Mailbox.end_put ctx mb m1;
      let m2 = Mailbox.begin_put ctx mb 40 in
      Mailbox.end_put ctx mb m2;
      check_int "queued messages" 2 (Mailbox.queued_messages mb);
      check_int "queued bytes" 140 (Mailbox.queued_bytes mb);
      let r = Mailbox.begin_get ctx mb in
      check_int "one left" 1 (Mailbox.queued_messages mb);
      Mailbox.end_get ctx r;
      let r2 = Mailbox.begin_get ctx mb in
      Mailbox.end_get ctx r2);
  Engine.run eng

let test_sync_try_read () =
  let eng = Engine.create () in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      let s = Sync.alloc ctx eng ~name:"s" in
      Alcotest.(check (option int)) "empty" None (Sync.try_read ctx s);
      Sync.write ctx s 9;
      Alcotest.(check (option int)) "written" (Some 9) (Sync.try_read ctx s));
  Engine.run eng

let test_runtime_duplicate_port_rejected () =
  let eng = Engine.create () in
  let net = Nectar_hub.Network.create eng ~hubs:1 () in
  let cab = Nectar_cab.Cab.create net ~hub:0 ~port:0 ~name:"cab" in
  let rt = Runtime.create cab in
  ignore (Runtime.create_mailbox rt ~name:"one" ~port:5 ());
  Alcotest.check_raises "port conflict"
    (Invalid_argument "Runtime: port 5 already bound on cab") (fun () ->
      ignore (Runtime.create_mailbox rt ~name:"two" ~port:5 ()))

let () =
  Alcotest.run "nectar_sim2"
    [
      ( "waitq-atomicity",
        [
          Alcotest.test_case "wait_releasing" `Quick
            test_wait_releasing_atomicity;
          Alcotest.test_case "wait_timeout_releasing" `Quick
            test_wait_timeout_releasing;
        ] );
      ( "cpu-transparency",
        [
          Alcotest.test_case "interrupt return is free" `Quick
            test_transparent_owner_no_resume_charge;
          Alcotest.test_case "thread preemption is not" `Quick
            test_opaque_owner_still_pays;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "resource exception safety" `Quick
            test_resource_with_held_exception_safety;
          Alcotest.test_case "mutex exception safety" `Quick
            test_mutex_with_lock_exception_safety;
        ] );
      ( "rng",
        [
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick
            test_rng_shuffle_is_permutation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pending events" `Quick
            test_pending_events_counts_live_only;
          Alcotest.test_case "cancel storm compacts" `Quick
            test_cancel_storm_compacts;
          Alcotest.test_case "spawn during run" `Quick test_spawned_during_run;
        ] );
      ( "core-extras",
        [
          Alcotest.test_case "push_head bounds" `Quick
            test_message_push_head_bounds;
          Alcotest.test_case "message blits" `Quick test_message_blits;
          Alcotest.test_case "queued bytes" `Quick test_mailbox_queued_bytes;
          Alcotest.test_case "sync try_read" `Quick test_sync_try_read;
          Alcotest.test_case "duplicate port" `Quick
            test_runtime_duplicate_port_rejected;
        ] );
    ]
