open Nectar_sim
open Nectar_cab
module Net = Nectar_hub.Network
module Frame = Nectar_hub.Frame
module Region = Nectar_util.Region

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let us = Sim_time.us

(* ---------- Frame ---------- *)

let test_frame_crc () =
  (* the frame's extent aliases the caller's bytes (zero-copy), so
     mutating them after creation is exactly a wire corruption *)
  let data = Bytes.of_string "hello nectar" in
  let f = Frame.create ~id:0 ~src:0 ~data in
  check_bool "intact frame passes CRC" true (Frame.crc_ok f);
  Bytes.set data 3 'X';
  check_bool "corrupted frame fails CRC" false (Frame.crc_ok f)

let test_frame_sg_extents () =
  (* a scatter/gather frame must read and checksum exactly like the same
     bytes in one contiguous extent *)
  let whole = Bytes.of_string "header|payload bytes|tail" in
  let flat = Frame.create ~id:0 ~src:0 ~data:(Bytes.copy whole) in
  let released = ref 0 in
  let sg =
    Frame.create_sg ~id:1 ~src:0
      ~extents:
        [
          (Region.of_bytes (Bytes.sub whole 0 7), 0, 7);
          (Region.of_bytes whole, 7, 13);
          (Region.of_bytes (Bytes.sub whole 20 5), 0, 5);
        ]
      ~on_release:(fun () -> incr released)
  in
  check_int "sg length" (Bytes.length whole) (Frame.length sg);
  check_bool "sg crc matches flat crc" true
    (Frame.crc_ok sg && Frame.crc_ok flat);
  let out = Bytes.create (Bytes.length whole) in
  Frame.blit sg ~pos:0 ~dst:out ~dst_pos:0 ~len:(Bytes.length whole);
  Alcotest.(check string) "blit crosses extents" (Bytes.to_string whole)
    (Bytes.to_string out);
  (match Frame.view sg ~pos:7 ~len:13 with
  | Some (mem, off) ->
      Alcotest.(check string) "view within one extent" "payload bytes"
        (Bytes.sub_string mem off 13)
  | None -> Alcotest.fail "view within an extent must exist");
  check_bool "view straddling extents is refused" true
    (Frame.view sg ~pos:5 ~len:6 = None);
  Frame.release sg;
  check_int "on_release fired once" 1 !released;
  Alcotest.check_raises "double release rejected"
    (Invalid_argument "Frame.release: frame already released") (fun () ->
      Frame.release sg)

(* ---------- Network helpers ---------- *)

let make_sink eng name =
  let fifo = Byte_fifo.create eng ~capacity:Costs.fifo_bytes ~name in
  let started = ref [] and finished = ref [] in
  let sink =
    {
      Net.in_fifo = fifo;
      on_frame_start =
        (fun fr -> started := (fr.Frame.id, Engine.now eng) :: !started);
      on_chunk =
        (fun fr ~arrived ~last ->
          ignore arrived;
          (* drain immediately so the FIFO never backpressures *)
          Byte_fifo.pop fifo (Byte_fifo.level fifo);
          if last then finished := (fr.Frame.id, Engine.now eng) :: !finished);
    }
  in
  (sink, started, finished)

let test_single_hub_transmit_timing () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let sink_a, _, _ = make_sink eng "a" in
  let sink_b, _, finished = make_sink eng "b" in
  let a = Net.attach_node net ~hub:0 ~port:0 sink_a in
  let b = Net.attach_node net ~hub:0 ~port:1 sink_b in
  let route = Net.route net ~src:a ~dst:b in
  Alcotest.(check (list int)) "route is the destination port" [ 1 ] route;
  let data = Bytes.make 1000 'x' in
  let frame = Frame.create ~id:(Net.next_frame_id net) ~src:a ~data in
  let done_at = ref (-1) in
  Engine.spawn eng (fun () ->
      Net.transmit net ~src:a ~route frame;
      done_at := Engine.now eng);
  Engine.run eng;
  (* setup 700 + hop latency 300 + 1000 bytes x 80 ns *)
  check_int "cut-through timing" (700 + 300 + 80_000) !done_at;
  check_int "delivered once" 1 (List.length !finished)

let test_start_of_packet_early () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let sink_a, _, _ = make_sink eng "a" in
  let sink_b, started, finished = make_sink eng "b" in
  let a = Net.attach_node net ~hub:0 ~port:0 sink_a in
  let b = Net.attach_node net ~hub:0 ~port:1 sink_b in
  let route = Net.route net ~src:a ~dst:b in
  let data = Bytes.make 4096 'y' in
  let frame = Frame.create ~id:0 ~src:a ~data in
  Engine.spawn eng (fun () ->
      Net.transmit ~header_bytes:16 net ~src:a ~route frame);
  Engine.run eng;
  let start_t = List.assoc 0 !started and end_t = List.assoc 0 !finished in
  check_int "header after setup + 16 bytes" (1000 + (16 * 80)) start_t;
  check_bool "frame start long before last byte" true
    (end_t - start_t > us 300)

let test_port_contention () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let sink_a, _, _ = make_sink eng "a" in
  let sink_b, _, _ = make_sink eng "b" in
  let sink_c, _, finished = make_sink eng "c" in
  let a = Net.attach_node net ~hub:0 ~port:0 sink_a in
  let b = Net.attach_node net ~hub:0 ~port:1 sink_b in
  let c = Net.attach_node net ~hub:0 ~port:2 sink_c in
  let data () = Bytes.make 1000 'z' in
  Engine.spawn eng (fun () ->
      Net.transmit net ~src:a
        ~route:(Net.route net ~src:a ~dst:c)
        (Frame.create ~id:0 ~src:a ~data:(data ())));
  Engine.spawn eng (fun () ->
      Net.transmit net ~src:b
        ~route:(Net.route net ~src:b ~dst:c)
        (Frame.create ~id:1 ~src:b ~data:(data ())));
  Engine.run eng;
  let t0 = List.assoc 0 !finished and t1 = List.assoc 1 !finished in
  check_bool "second frame waits for the held output port" true
    (abs (t1 - t0) >= 80_000)

let test_multi_hub_route () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:3 () in
  (* chain: hub0 <-> hub1 <-> hub2 *)
  Net.connect_hubs net (0, 15) (1, 14);
  Net.connect_hubs net (1, 15) (2, 14);
  let sink_a, _, _ = make_sink eng "a" in
  let sink_b, _, finished = make_sink eng "b" in
  let a = Net.attach_node net ~hub:0 ~port:0 sink_a in
  let b = Net.attach_node net ~hub:2 ~port:3 sink_b in
  let route = Net.route net ~src:a ~dst:b in
  Alcotest.(check (list int)) "three-hop source route" [ 15; 15; 3 ] route;
  let data = Bytes.make 100 'm' in
  let done_at = ref (-1) in
  Engine.spawn eng (fun () ->
      Net.transmit net ~src:a ~route (Frame.create ~id:7 ~src:a ~data);
      done_at := Engine.now eng);
  Engine.run eng;
  (* 3 hubs: 3 x 700 setup + 3 x 300 hop latency + 100 x 80 serialization *)
  check_int "multi-hop timing" ((3 * 700) + (3 * 300) + 8000) !done_at;
  check_int "delivered" 1 (List.length !finished)

let test_unreachable_route () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:2 () in
  let sink_a, _, _ = make_sink eng "a" in
  let sink_b, _, _ = make_sink eng "b" in
  let a = Net.attach_node net ~hub:0 ~port:0 sink_a in
  let b = Net.attach_node net ~hub:1 ~port:0 sink_b in
  Alcotest.check_raises "no path between unconnected hubs" Not_found
    (fun () -> ignore (Net.route net ~src:a ~dst:b))

let test_fault_injection () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let sink_a, _, _ = make_sink eng "a" in
  let sink_b, _, finished = make_sink eng "b" in
  let a = Net.attach_node net ~hub:0 ~port:0 sink_a in
  let b = Net.attach_node net ~hub:0 ~port:1 sink_b in
  let send id verdict =
    Net.set_fault_hook net (Some (fun _ -> verdict));
    let frame =
      Frame.create ~id ~src:a ~data:(Bytes.make 100 'q')
    in
    Engine.spawn eng (fun () ->
        Net.transmit net ~src:a ~route:(Net.route net ~src:a ~dst:b) frame);
    Engine.run eng;
    frame
  in
  let f0 = send 0 `Deliver in
  check_bool "delivered ok" true (List.mem_assoc 0 !finished);
  check_bool "crc ok" true (Frame.crc_ok f0);
  let _f1 = send 1 `Drop in
  check_bool "dropped frame never arrives" false (List.mem_assoc 1 !finished);
  let f2 = send 2 `Corrupt in
  check_bool "corrupted frame arrives" true (List.mem_assoc 2 !finished);
  check_bool "but fails hardware CRC" false (Frame.crc_ok f2)

(* Random-topology routing: build a random connected HUB graph, attach two
   nodes, and check that BFS source routes exist and deliver. *)
let prop_random_topology_routes =
  QCheck2.Test.make ~count:25 ~name:"routes exist and deliver on random trees"
    QCheck2.Gen.(pair (int_range 2 6) (int_bound 10_000))
    (fun (hubs, seed) ->
      let eng = Engine.create () in
      let net = Net.create eng ~hubs () in
      let rng = Nectar_sim.Rng.create ~seed in
      (* random tree over the hubs: connect hub i to a random earlier hub *)
      let next_port = Array.make hubs 8 in
      for h = 1 to hubs - 1 do
        let parent = Nectar_sim.Rng.int rng h in
        Net.connect_hubs net (parent, next_port.(parent)) (h, next_port.(h));
        next_port.(parent) <- next_port.(parent) + 1;
        next_port.(h) <- next_port.(h) + 1
      done;
      let sink_a, _, _ = make_sink eng "a" in
      let sink_b, _, finished = make_sink eng "b" in
      let hub_a = Nectar_sim.Rng.int rng hubs in
      let hub_b = Nectar_sim.Rng.int rng hubs in
      let a = Net.attach_node net ~hub:hub_a ~port:0 sink_a in
      let b = Net.attach_node net ~hub:hub_b ~port:1 sink_b in
      let route = Net.route net ~src:a ~dst:b in
      (* route length = one output port per hub on the path; on a tree the
         path is unique, at most [hubs] hops *)
      List.length route <= hubs
      && begin
        Engine.spawn eng (fun () ->
            Net.transmit net ~src:a ~route
              (Frame.create ~id:0 ~src:a ~data:(Bytes.make 64 'r')));
        Engine.run eng;
        List.mem_assoc 0 !finished
      end)

(* ---------- Memory protection ---------- *)

let test_memory_protection () =
  let m = Memory.create ~data_bytes:(8 * 1024) () in
  Memory.checked_write m ~pos:0 ~len:8192;
  Memory.set_domain m 3;
  Alcotest.check_raises "no access in fresh domain"
    (Memory.Protection_fault { domain = 3; page = 0; write = false })
    (fun () -> Memory.checked_read m ~pos:0 ~len:4);
  Memory.grant_range m ~domain:3 ~pos:1024 ~len:2048 Memory.Read_only;
  Memory.checked_read m ~pos:1024 ~len:2048;
  Alcotest.check_raises "read-only page rejects write"
    (Memory.Protection_fault { domain = 3; page = 1; write = true })
    (fun () -> Memory.checked_write m ~pos:1500 ~len:4);
  Memory.grant_range m ~domain:3 ~pos:2048 ~len:1024 Memory.Read_write;
  Memory.checked_write m ~pos:2048 ~len:1024;
  Memory.set_domain m 0;
  Memory.checked_write m ~pos:0 ~len:8192

let test_memory_range_spanning_pages () =
  let m = Memory.create ~data_bytes:(4 * 1024) () in
  Memory.set_domain m 1;
  Memory.grant_range m ~domain:1 ~pos:0 ~len:1024 Memory.Read_write;
  (* len 1025 touches page 1, which is still No_access *)
  Alcotest.check_raises "access spanning into a protected page"
    (Memory.Protection_fault { domain = 1; page = 1; write = true })
    (fun () -> Memory.checked_write m ~pos:0 ~len:1025)

let test_memory_domain0_revoke_restore () =
  let m = Memory.create () in
  Memory.checked_write m ~pos:5000 ~len:4;
  Memory.set_page_perm m ~domain:0 ~page:4 Memory.Read_only;
  Alcotest.check_raises "revoked domain-0 page rejects writes"
    (Memory.Protection_fault { domain = 0; page = 4; write = true })
    (fun () -> Memory.checked_write m ~pos:5000 ~len:4);
  Memory.checked_read m ~pos:5000 ~len:4;
  Memory.checked_write m ~pos:3000 ~len:4 (* the other pages keep Read_write *);
  check_bool "other domains keep their default" true
    (Memory.page_perm m ~domain:1 ~page:4 = Memory.No_access);
  Memory.set_page_perm m ~domain:0 ~page:4 Memory.Read_write;
  Memory.checked_write m ~pos:5000 ~len:4

(* A fresh board holds no data bytes and no permission tables: its 1 MB
   memory is a few hundred words until the heap or a grant touches it. *)
let test_memory_fresh_footprint () =
  let m = Memory.create () in
  check_int "1 MB logical" (1 lsl 20) (Memory.data_bytes m);
  check_int "nothing backed" 0 (Memory.resident_bytes m);
  let words = Obj.reachable_words (Obj.repr m) in
  check_bool (Printf.sprintf "%d reachable words <= 300" words) true
    (words <= 300)

(* ---------- VME ---------- *)

let test_vme_pio_timing () =
  let eng = Engine.create () in
  let v = Vme.create eng ~name:"h0" in
  let cpu = Cpu.create eng ~name:"host" () in
  let o = Cpu.owner cpu ~name:"proc" ~switch_in:0 in
  let done_at = ref (-1) in
  Engine.spawn eng (fun () ->
      Vme.pio v ~cpu ~owner:o ~priority:1 ~bytes:128;
      done_at := Engine.now eng);
  Engine.run eng;
  check_int "128 bytes = 32 words x ~1us" (32 * Costs.vme_word_ns) !done_at;
  check_int "counter" 128 (Vme.bytes_moved v)

let test_vme_dma_timing () =
  let eng = Engine.create () in
  let v = Vme.create eng ~name:"h0" in
  let done_at = ref (-1) in
  Engine.spawn eng (fun () ->
      Vme.dma v ~bytes:1000;
      done_at := Engine.now eng);
  Engine.run eng;
  check_int "1000 bytes at ~30 Mbit/s" 267_000 !done_at

let test_vme_contention () =
  let eng = Engine.create () in
  let v = Vme.create eng ~name:"h0" in
  let cpu = Cpu.create eng ~name:"host" () in
  let o = Cpu.owner cpu ~name:"proc" ~switch_in:0 in
  let pio_done = ref (-1) in
  Engine.spawn eng (fun () -> Vme.dma v ~bytes:1000);
  Engine.spawn eng (fun () ->
      Vme.pio v ~cpu ~owner:o ~priority:1 ~bytes:4;
      pio_done := Engine.now eng);
  Engine.run eng;
  check_int "pio waits for dma burst" (267_000 + Costs.vme_word_ns) !pio_done

(* ---------- Interrupts ---------- *)

let test_interrupt_preempts_thread () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"cab" () in
  let irq = Interrupts.create eng cpu ~name:"cab" () in
  let thread = Cpu.owner cpu ~name:"thread" ~switch_in:0 in
  let thread_done = ref (-1) and irq_done = ref (-1) in
  Engine.spawn eng (fun () ->
      Cpu.consume cpu thread ~priority:Costs.prio_system (us 100);
      thread_done := Engine.now eng);
  ignore
    (Engine.after eng (us 10) (fun () ->
         Interrupts.post irq ~name:"test" (fun ctx ->
             Interrupts.work ctx (us 6);
             irq_done := Engine.now eng)));
  Engine.run eng;
  check_int "handler ran immediately (dispatch + work)"
    (us 10 + Costs.irq_dispatch_ns + us 6)
    !irq_done;
  check_int "thread finished late by the irq time"
    (us 100 + Costs.irq_dispatch_ns + us 6)
    !thread_done

let test_interrupt_handlers_serialize () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"cab" () in
  let irq = Interrupts.create eng cpu ~name:"cab" () in
  let order = ref [] in
  for i = 1 to 3 do
    Interrupts.post irq ~name:"h" (fun ctx ->
        Interrupts.work ctx (us 5);
        order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "run to completion, in post order" [ 1; 2; 3 ]
    (List.rev !order)

(* ---------- CAB end-to-end frame exchange ---------- *)

let two_cabs () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let a = Cab.create net ~hub:0 ~port:0 ~name:"cab-a" in
  let b = Cab.create net ~hub:0 ~port:1 ~name:"cab-b" in
  (eng, net, a, b)

let test_cab_frame_exchange () =
  let eng, net, a, b = two_cabs () in
  let payload = Bytes.of_string "HDRxHello from CAB A, via the HUB fabric!" in
  let received = ref None and recv_time = ref (-1) in
  Rx.set_frame_handler (Cab.rx b) (fun _ictx p ->
      let header = Rx.read_bytes (Cab.rx b) p 4 in
      Alcotest.(check string) "header" "HDRx" (Bytes.to_string header);
      let rest = Rx.total p - 4 in
      let dst = Bytes.create rest in
      Rx.dma_to_memory (Cab.rx b) p ~dst:(Region.of_bytes dst) ~dst_pos:0
        ~on_complete:(fun _ictx ~crc_ok ->
          received := Some (Bytes.to_string dst, crc_ok);
          recv_time := Engine.now eng)
        ());
  Engine.spawn eng (fun () ->
      Cab.send_frame a
        ~route:(Net.route net ~src:(Cab.node_id a) ~dst:(Cab.node_id b))
        ~header_bytes:4
        ~extents:[ (Region.of_bytes payload, 0, Bytes.length payload) ]
        ~on_done:(fun _ -> ())
        ());
  Engine.run eng;
  (match !received with
  | Some (text, crc_ok) ->
      Alcotest.(check string)
        "payload intact" "Hello from CAB A, via the HUB fabric!" text;
      check_bool "crc ok" true crc_ok
  | None -> Alcotest.fail "frame not received");
  check_bool "arrived within tens of microseconds" true
    (!recv_time > 0 && !recv_time < us 40);
  check_int "tx counted" 1 (Cab.frames_tx a)

let test_cab_discard_keeps_fifo_clean () =
  let eng, net, a, b = two_cabs () in
  let seen = ref 0 in
  Rx.set_frame_handler (Cab.rx b) (fun _ictx p ->
      incr seen;
      Rx.discard (Cab.rx b) p);
  Engine.spawn eng (fun () ->
      for _ = 1 to 5 do
        let data = Bytes.make 2000 'd' in
        Cab.send_frame a
          ~route:(Net.route net ~src:(Cab.node_id a) ~dst:(Cab.node_id b))
          ~header_bytes:16
          ~extents:[ (Region.of_bytes data, 0, 2000) ]
          ~on_done:(fun _ -> ())
          ()
      done);
  Engine.run eng;
  check_int "all frames seen" 5 !seen;
  check_int "fifo drained" 0 (Cab.in_fifo_level b);
  check_int "drop counter" 5 (Rx.dropped_frames (Cab.rx b))

let test_cab_large_frame_backpressure () =
  let eng, net, a, b = two_cabs () in
  (* 32 KB frame: 8x the FIFO; receiver DMA must keep draining. *)
  let len = 32 * 1024 in
  let data = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
  let ok = ref false in
  Rx.set_frame_handler (Cab.rx b) (fun _ictx p ->
      let dst = Bytes.create (Rx.total p) in
      Rx.dma_to_memory (Cab.rx b) p ~dst:(Region.of_bytes dst) ~dst_pos:0
        ~on_complete:(fun _ictx ~crc_ok -> ok := crc_ok && Bytes.equal dst data)
        ());
  Engine.spawn eng (fun () ->
      Cab.send_frame a
        ~route:(Net.route net ~src:(Cab.node_id a) ~dst:(Cab.node_id b))
        ~header_bytes:16
        ~extents:[ (Region.of_bytes data, 0, len) ]
        ~on_done:(fun _ -> ())
        ());
  Engine.run eng;
  check_bool "32 KB frame crossed intact" true !ok

let test_cab_rx_watch_fires_in_order () =
  let eng, net, a, b = two_cabs () in
  let events = ref [] in
  Rx.set_frame_handler (Cab.rx b) (fun _ictx p ->
      let dst = Bytes.create (Rx.total p) in
      Rx.dma_to_memory (Cab.rx b) p ~dst:(Region.of_bytes dst) ~dst_pos:0
        ~watch:[ (64, fun _ -> events := ("start-of-data", Engine.now eng) :: !events) ]
        ~on_complete:(fun _ictx ~crc_ok:_ ->
          events := ("end-of-data", Engine.now eng) :: !events)
        ());
  Engine.spawn eng (fun () ->
      Cab.send_frame a
        ~route:(Net.route net ~src:(Cab.node_id a) ~dst:(Cab.node_id b))
        ~header_bytes:16
        ~extents:[ (Region.of_bytes (Bytes.make 8192 'w'), 0, 8192) ]
        ~on_done:(fun _ -> ())
        ());
  Engine.run eng;
  match List.rev !events with
  | [ ("start-of-data", t1); ("end-of-data", t2) ] ->
      check_bool "start-of-data well before end-of-data" true
        (t2 - t1 > us 300)
  | evs ->
      Alcotest.failf "unexpected events: %s"
        (String.concat "," (List.map fst evs))

let () =
  Alcotest.run "nectar_fabric"
    [
      ( "frame",
        [
          Alcotest.test_case "hardware crc" `Quick test_frame_crc;
          Alcotest.test_case "scatter/gather extents" `Quick
            test_frame_sg_extents;
        ] );
      ( "network",
        [
          Alcotest.test_case "single hub timing" `Quick
            test_single_hub_transmit_timing;
          Alcotest.test_case "start-of-packet early" `Quick
            test_start_of_packet_early;
          Alcotest.test_case "port contention" `Quick test_port_contention;
          Alcotest.test_case "multi-hub route" `Quick test_multi_hub_route;
          Alcotest.test_case "unreachable" `Quick test_unreachable_route;
          Alcotest.test_case "fault injection" `Quick test_fault_injection;
          QCheck_alcotest.to_alcotest prop_random_topology_routes;
        ] );
      ( "memory",
        [
          Alcotest.test_case "protection domains" `Quick
            test_memory_protection;
          Alcotest.test_case "page spanning" `Quick
            test_memory_range_spanning_pages;
          Alcotest.test_case "domain 0 revoke and restore" `Quick
            test_memory_domain0_revoke_restore;
          Alcotest.test_case "fresh 1 MB footprint" `Quick
            test_memory_fresh_footprint;
        ] );
      ( "vme",
        [
          Alcotest.test_case "pio timing" `Quick test_vme_pio_timing;
          Alcotest.test_case "dma timing" `Quick test_vme_dma_timing;
          Alcotest.test_case "contention" `Quick test_vme_contention;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "preempts thread" `Quick
            test_interrupt_preempts_thread;
          Alcotest.test_case "handlers serialize" `Quick
            test_interrupt_handlers_serialize;
        ] );
      ( "cab",
        [
          Alcotest.test_case "frame exchange" `Quick test_cab_frame_exchange;
          Alcotest.test_case "discard" `Quick
            test_cab_discard_keeps_fifo_clean;
          Alcotest.test_case "large frame backpressure" `Quick
            test_cab_large_frame_backpressure;
          Alcotest.test_case "rx watch order" `Quick
            test_cab_rx_watch_fires_in_order;
        ] );
    ]
