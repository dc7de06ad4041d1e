(* nectar-vet checker tests: each test seeds a deliberate bug in a tiny
   world and asserts the matching checker fires — and that a clean world
   produces no findings at all. *)

open Nectar_sim
open Nectar_core
module Vet = Nectar_vet.Vet

let check_bool = Alcotest.(check bool)
let us = Sim_time.us

let null_ctx eng : Ctx.t =
  { eng; work = (fun _ -> ()); may_block = true; ctx_name = "test"; on_cpu = None }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let has ~checker ~sub findings =
  List.exists
    (fun f -> f.Vet.checker = checker && contains ~sub f.Vet.message)
    findings

let assert_finding ~checker ~sub findings =
  check_bool
    (Printf.sprintf "checker '%s' reports '%s'" checker sub)
    true
    (has ~checker ~sub findings)

let make_mailbox eng ?(cached_buffer_bytes = 0) name =
  let heap = Buffer_heap.create (Nectar_util.Region.create 8192) in
  ( Mailbox.create eng ~heap ~name ~cached_buffer_bytes (),
    Buffer_heap.region heap )

(* ---------- clean run ---------- *)

let test_clean_run () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let mb, _ = make_mailbox eng "mb" in
        let ctx = null_ctx eng in
        Engine.spawn eng (fun () ->
            let m = Mailbox.begin_put ctx mb 16 in
            Message.write_string m 0 "all above board";
            Mailbox.end_put ctx mb m;
            let r = Mailbox.begin_get ctx mb in
            Mailbox.end_get ctx r);
        Engine.run eng)
  in
  Alcotest.(check int) "no findings" 0 (List.length findings)

(* ---------- lock-order ---------- *)

let test_lock_cycle () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let net = Nectar_hub.Network.create eng ~hubs:1 () in
        let cab = Nectar_cab.Cab.create net ~hub:0 ~port:0 ~name:"cab" in
        let a = Lock.Mutex.create eng ~name:"a" in
        let b = Lock.Mutex.create eng ~name:"b" in
        (* one thread, both orders: never deadlocks at runtime, but the
           held-while-acquiring graph gains the cycle a -> b -> a *)
        ignore
          (Thread.create cab ~name:"t" (fun ctx ->
               Lock.Mutex.with_lock ctx a (fun () ->
                   Lock.Mutex.with_lock ctx b (fun () -> ()));
               Lock.Mutex.with_lock ctx b (fun () ->
                   Lock.Mutex.with_lock ctx a (fun () -> ()))));
        Engine.run eng)
  in
  assert_finding ~checker:"lock-order" ~sub:"cycle" findings

let test_lock_held_across_blocking () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let mb, _ = make_mailbox eng "mb" in
        let m = Lock.Mutex.create eng ~name:"m" in
        let ctx = null_ctx eng in
        Engine.spawn eng (fun () ->
            Lock.Mutex.with_lock ctx m (fun () ->
                (* parks on an empty mailbox with the mutex held *)
                let r = Mailbox.begin_get ctx mb in
                Mailbox.end_get ctx r));
        Engine.spawn eng (fun () ->
            Engine.sleep eng (us 10);
            let msg = Mailbox.begin_put ctx mb 4 in
            Mailbox.end_put ctx mb msg);
        Engine.run eng)
  in
  assert_finding ~checker:"lock-order" ~sub:"held across blocking" findings

(* ---------- two-phase ---------- *)

let test_leaked_begin_put () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let mb, _ = make_mailbox eng "mb" in
        let ctx = null_ctx eng in
        Engine.spawn eng (fun () ->
            (* begin_put with no end_put/abort_put: leaked write phase *)
            ignore (Mailbox.begin_put ctx mb 32));
        Engine.run eng)
  in
  assert_finding ~checker:"two-phase" ~sub:"leaked two-phase put" findings

let test_use_after_enqueue () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let heap = Buffer_heap.create (Nectar_util.Region.create 8192) in
        let src =
          Mailbox.create eng ~heap ~name:"src" ~cached_buffer_bytes:0 ()
        in
        let dst =
          Mailbox.create eng ~heap ~name:"dst" ~cached_buffer_bytes:0 ()
        in
        let ctx = null_ctx eng in
        Engine.spawn eng (fun () ->
            let m = Mailbox.begin_put ctx src 8 in
            Mailbox.end_put ctx src m;
            let held = Mailbox.begin_get ctx src in
            Mailbox.enqueue ctx held dst;
            (* the buffer now belongs to dst's reader: this is the
               zero-copy use-after-enqueue bug *)
            ignore (Message.get_u8 held 0);
            let r = Mailbox.begin_get ctx dst in
            Mailbox.end_get ctx r);
        Engine.run eng)
  in
  assert_finding ~checker:"two-phase" ~sub:"after enqueue" findings

(* ---------- heap ---------- *)

let test_double_free () =
  let _, findings =
    Vet.run (fun () ->
        let h = Buffer_heap.create (Nectar_util.Region.create 256) in
        let off = Option.get (Buffer_heap.alloc h 16) in
        Buffer_heap.free h off;
        Alcotest.check_raises "heap still rejects it"
          (Invalid_argument "Buffer_heap.free: not a live allocation")
          (fun () -> Buffer_heap.free h off))
  in
  assert_finding ~checker:"heap" ~sub:"double free" findings

let test_use_after_free_write () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let mb, mem = make_mailbox eng "mb" in
        let ctx = null_ctx eng in
        let freed_off = ref 0 in
        Engine.spawn eng (fun () ->
            let m = Mailbox.begin_put ctx mb 64 in
            freed_off := m.Message.off;
            Mailbox.abort_put ctx mb m);
        Engine.run eng;
        (* scribble on the freed (poisoned) block, as a stale DMA would *)
        Bytes.set (Nectar_util.Region.bytes mem) !freed_off 'X')
  in
  assert_finding ~checker:"heap" ~sub:"use-after-free write" findings

(* The seeded bug the refcounted transmit path fixed: a sender disposes
   its buffer before the tx DMA's dequeue-time snapshot, while a queued
   frame still aliases it, then rewrites the header for a retransmission
   and disposes again.  The heap grows between the dispose and the
   snapshot, so a frame, poison or header write holding the pre-growth
   bytes would miss the live backing; all three hold the region, so the
   frame carries the poison and both bugs are still caught. *)
let test_dispose_before_snapshot_across_growth () =
  let received = ref "" and grew = ref false and m_off = ref (-1) in
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let net = Nectar_hub.Network.create eng ~hubs:1 () in
        let a = Nectar_cab.Cab.create net ~hub:0 ~port:0 ~name:"a" in
        let b = Nectar_cab.Cab.create net ~hub:0 ~port:1 ~name:"b" in
        let rt = Runtime.create a in
        let mb =
          Runtime.create_mailbox rt ~name:"tx" ~cached_buffer_bytes:0 ()
        in
        let rx = Nectar_cab.Cab.rx b in
        Nectar_cab.Rx.set_frame_handler rx (fun _ p ->
            let dst = Bytes.create (Nectar_cab.Rx.total p) in
            Nectar_cab.Rx.dma_to_memory rx p
              ~dst:(Nectar_util.Region.of_bytes dst) ~dst_pos:0
              ~on_complete:(fun _ ~crc_ok:_ -> received := Bytes.to_string dst)
              ());
        let ctx = null_ctx eng in
        Engine.spawn eng (fun () ->
            let m = Mailbox.begin_put ctx mb 64 in
            m_off := m.Message.off;
            (* a live neighbour keeps m's block from coalescing into the
               free tail, so the big allocation below cannot reuse it *)
            let keep = Mailbox.begin_put ctx mb 4 in
            Message.write_string m 0 (String.make 64 'p');
            Nectar_cab.Cab.send_frame a
              ~route:
                (Nectar_hub.Network.route net ~src:(Nectar_cab.Cab.node_id a)
                   ~dst:(Nectar_cab.Cab.node_id b))
              ~header_bytes:16
              ~extents:[ (m.Message.mem, m.Message.off, 64) ]
              ~on_done:(fun _ -> ())
              ();
            Mailbox.dispose ctx m;
            let mem = Runtime.mem rt in
            let backed = Nectar_util.Region.resident_bytes mem in
            let big = Buffer_heap.alloc (Runtime.heap rt) (200 * 1024) in
            grew := Nectar_util.Region.resident_bytes mem > backed;
            (* the frame is snapshotted and delivered meanwhile *)
            Engine.sleep eng (Sim_time.ms 1);
            Bytes.set (Message.bytes m) m.Message.off 'H';
            (try Mailbox.dispose ctx m with Invalid_argument _ -> ());
            Mailbox.abort_put ctx mb keep;
            Option.iter (Buffer_heap.free (Runtime.heap rt)) big);
        Engine.run eng)
  in
  check_bool "the heap grew between dispose and snapshot" true !grew;
  Alcotest.(check string) "the frame carried the poisoned live bytes"
    (String.make 64 '\xde') !received;
  (* the rewrite ('H' = 0x48) is found in the disposed block itself *)
  assert_finding ~checker:"heap"
    ~sub:
      (Printf.sprintf
         "freed block at %d was modified at offset %d (found byte 0x48"
         !m_off !m_off)
    findings;
  assert_finding ~checker:"two-phase" ~sub:"double dispose" findings

(* ---------- slice (zero-copy buffer references) ---------- *)

let test_slice_double_release () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let mb, _ = make_mailbox eng "mb" in
        let ctx = null_ctx eng in
        Engine.spawn eng (fun () ->
            let m = Mailbox.begin_put ctx mb 32 in
            let s = Message.slice m ~pos:4 ~len:8 in
            Message.Slice.release s;
            (* second release of the same view: the seeded bug *)
            Message.Slice.release s;
            Mailbox.abort_put ctx mb m);
        Engine.run eng)
  in
  assert_finding ~checker:"slice" ~sub:"double release" findings

let test_slice_use_after_release () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let mb, _ = make_mailbox eng "mb" in
        let ctx = null_ctx eng in
        Engine.spawn eng (fun () ->
            let m = Mailbox.begin_put ctx mb 32 in
            Message.write_string m 0 "0123456789abcdef";
            let s = Message.slice m ~pos:0 ~len:16 in
            Message.Slice.release s;
            (* reading through a released view: stale extent access *)
            ignore (Message.Slice.read_string s ~pos:0 ~len:4);
            Mailbox.abort_put ctx mb m);
        Engine.run eng)
  in
  assert_finding ~checker:"slice" ~sub:"use after release" findings

let test_slice_leaked_at_teardown () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let mb, _ = make_mailbox eng "mb" in
        let ctx = null_ctx eng in
        Engine.spawn eng (fun () ->
            let m = Mailbox.begin_put ctx mb 32 in
            (* slice taken and never released: still live at teardown *)
            ignore (Message.slice m ~pos:0 ~len:8);
            Mailbox.abort_put ctx mb m);
        Engine.run eng)
  in
  assert_finding ~checker:"slice" ~sub:"leaked slice" findings;
  (* the unreleased slice also pins the owner-freed buffer *)
  assert_finding ~checker:"slice" ~sub:"leaked retain" findings

let test_over_release () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let mb, _ = make_mailbox eng "mb" in
        let ctx = null_ctx eng in
        Engine.spawn eng (fun () ->
            let m = Mailbox.begin_put ctx mb 32 in
            (* one retain, two releases: more releases than references *)
            Message.retain m;
            Message.release m;
            Mailbox.abort_put ctx mb m;
            Message.release m);
        Engine.run eng)
  in
  assert_finding ~checker:"slice" ~sub:"over-release" findings

let test_slice_clean_pair () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let mb, _ = make_mailbox eng "mb" in
        let ctx = null_ctx eng in
        Engine.spawn eng (fun () ->
            let m = Mailbox.begin_put ctx mb 32 in
            Message.write_string m 0 "balanced references";
            let s = Message.slice m ~pos:0 ~len:8 in
            let sub = Message.Slice.sub s ~pos:2 ~len:4 in
            Mailbox.end_put ctx mb m;
            let r = Mailbox.begin_get ctx mb in
            Mailbox.end_get ctx r;
            (* slices outlive the owner's free; releasing them drops the
               buffer *)
            Message.Slice.release sub;
            Message.Slice.release s);
        Engine.run eng)
  in
  Alcotest.(check int) "no findings" 0 (List.length findings)

(* ---------- interrupt ---------- *)

let test_blocking_lock_from_interrupt () =
  let _, findings =
    Vet.run (fun () ->
        let eng = Engine.create () in
        let net = Nectar_hub.Network.create eng ~hubs:1 () in
        let cab = Nectar_cab.Cab.create net ~hub:0 ~port:0 ~name:"cab" in
        let m = Lock.Mutex.create eng ~name:"m" in
        ignore
          (Thread.create cab ~name:"holder" (fun ctx ->
               Lock.Mutex.with_lock ctx m (fun () -> Engine.sleep eng (us 50))));
        let bad_ctx = null_ctx eng in
        ignore
          (* at 30us the holder is past its 20us switch-in and inside the
             critical section, so the handler's acquire is contended *)
          (Engine.after eng (us 30) (fun () ->
               Nectar_cab.Interrupts.post (Nectar_cab.Cab.irq cab) ~name:"bad"
                 (fun _ictx ->
                   (* smuggling a blocking context into a handler and
                      waiting on a contended lock: the discipline bug *)
                   Lock.Mutex.lock bad_ctx m;
                   Lock.Mutex.unlock bad_ctx m)));
        Engine.run eng)
  in
  assert_finding ~checker:"interrupt" ~sub:"interrupt handler" findings

(* ---------- starvation ---------- *)

let test_starvation_watchdog () =
  let config = { Vet.default_config with starvation_limit = us 50 } in
  let _, findings =
    Vet.run ~config (fun () ->
        let eng = Engine.create () in
        let net = Nectar_hub.Network.create eng ~hubs:1 () in
        let cab = Nectar_cab.Cab.create net ~hub:0 ~port:0 ~name:"cab" in
        ignore (Thread.create cab ~name:"hog" (fun ctx -> ctx.work (us 500)));
        ignore (Thread.create cab ~name:"starved" (fun ctx -> ctx.work (us 1)));
        Engine.run eng)
  in
  assert_finding ~checker:"starvation" ~sub:"waited" findings

let () =
  Alcotest.run "nectar_vet"
    [
      ("clean", [ Alcotest.test_case "no findings" `Quick test_clean_run ]);
      ( "lock-order",
        [
          Alcotest.test_case "cycle detected" `Quick test_lock_cycle;
          Alcotest.test_case "held across blocking" `Quick
            test_lock_held_across_blocking;
        ] );
      ( "two-phase",
        [
          Alcotest.test_case "leaked begin_put" `Quick test_leaked_begin_put;
          Alcotest.test_case "use after enqueue" `Quick test_use_after_enqueue;
        ] );
      ( "heap",
        [
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "use-after-free write" `Quick
            test_use_after_free_write;
          Alcotest.test_case "dispose before snapshot across growth" `Quick
            test_dispose_before_snapshot_across_growth;
        ] );
      ( "slice",
        [
          Alcotest.test_case "double release" `Quick test_slice_double_release;
          Alcotest.test_case "use after release" `Quick
            test_slice_use_after_release;
          Alcotest.test_case "leaked at teardown" `Quick
            test_slice_leaked_at_teardown;
          Alcotest.test_case "over-release" `Quick test_over_release;
          Alcotest.test_case "balanced pair is clean" `Quick
            test_slice_clean_pair;
        ] );
      ( "interrupt",
        [
          Alcotest.test_case "blocking lock from handler" `Quick
            test_blocking_lock_from_interrupt;
        ] );
      ( "starvation",
        [
          Alcotest.test_case "watchdog" `Quick test_starvation_watchdog;
        ] );
    ]
