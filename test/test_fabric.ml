open Nectar_sim
open Nectar_cab
module Net = Nectar_hub.Network
module Frame = Nectar_hub.Frame
module Region = Nectar_util.Region
module Router = Nectar_route.Router
module World = Nectar_fleet.World

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

(* A latched frame over [extents] (region, offset, length), as the
   transmit DMA leaves it. *)
let latched ?(owner = Frame.Unowned) = function
  | [] -> invalid_arg "latched: no extents"
  | (reg, off, len) :: rest ->
      let tail =
        List.map (fun (ereg, eoff, elen) -> { Frame.ereg; eoff; elen }) rest
      in
      let f =
        Frame.outgoing ~src:0 ~route:[] ~header_bytes:1 reg ~off ~len ~tail
          owner
      in
      Frame.latch f ~id:0;
      f

let test_frame_errors_name_their_function () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Frame.create: empty frame" (fun () ->
      ignore (Frame.create ~id:0 ~src:0 ~data:Bytes.empty));
  raises "Frame.of_wire: empty frame" (fun () ->
      ignore (Frame.of_wire ~id:0 ~src:0 ~wire_crc:0 ~data:Bytes.empty));
  let f = Frame.create ~id:0 ~src:0 ~data:(Bytes.make 4 'x') in
  raises "Frame.inline_bytes: outside frame" (fun () ->
      ignore (Frame.inline_bytes f ~pos:2 ~len:4))

let test_frame_sg_extents () =
  (* a scatter/gather frame must read and checksum exactly like the same
     bytes in one contiguous extent *)
  let whole = Bytes.of_string "header|payload bytes|tail" in
  let flat = Frame.create ~id:0 ~src:0 ~data:(Bytes.copy whole) in
  let released = ref 0 in
  let sg =
    latched
      ~owner:
        (Owner { value = released; ops = { release = incr; sent = ignore } })
      [
        (Region.of_bytes (Bytes.sub whole 0 7), 0, 7);
        (Region.of_bytes whole, 7, 13);
        (Region.of_bytes (Bytes.sub whole 20 5), 0, 5);
      ]
  in
  check_int "sg length" (Bytes.length whole) (Frame.length sg);
  check_bool "sg crc matches flat crc" true
    (Frame.crc_ok sg && Frame.crc_ok flat);
  let out = Bytes.create (Bytes.length whole) in
  Frame.blit sg ~pos:0 ~dst:out ~dst_pos:0 ~len:(Bytes.length whole);
  Alcotest.(check string) "blit crosses extents" (Bytes.to_string whole)
    (Bytes.to_string out);
  Alcotest.(check string) "in-place read within the inline extent" "header"
    (Bytes.sub_string (Frame.inline_bytes sg ~pos:0 ~len:6) sg.off 6);
  check_bool "in-place read past the inline extent is empty" true
    (Frame.inline_bytes sg ~pos:5 ~len:6 == Bytes.empty);
  Frame.release sg;
  check_int "on_release fired once" 1 !released;
  Alcotest.check_raises "double release rejected"
    (Invalid_argument "Frame.release: frame already released") (fun () ->
      Frame.release sg)

(* The rx DMA drain, the partition handoff, the CRC check and the
   datalink's in-place header read read a frame's extents on every frame;
   with no vet hook installed those reads must allocate nothing, or the
   vet hook has made every run slower. *)
let test_frame_reads_allocate_nothing () =
  check_bool "no vet hook installed" false (Vet_probe.installed ());
  let whole = Bytes.make 1500 'a' in
  let f =
    latched
      [
        (Region.of_bytes (Bytes.sub whole 0 24), 0, 24);
        (Region.of_bytes whole, 24, 1476);
      ]
  in
  let out = Bytes.create 1500 in
  let reads () =
    Frame.blit f ~pos:0 ~dst:out ~dst_pos:0 ~len:1500;
    Frame.blit f ~pos:20 ~dst:out ~dst_pos:0 ~len:8;
    ignore (Frame.crc_ok f);
    ignore (Frame.inline_bytes f ~pos:0 ~len:12)
  in
  reads ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    reads ()
  done;
  let words = Gc.minor_words () -. before in
  (* 40k reads: one word per read would be 40k; allow a small constant
     for the Gc calls themselves *)
  check_bool
    (Printf.sprintf "blit, crc_ok and inline_bytes allocation-free (%.0f words)"
       words)
    true (words < 64.)

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
  ignore (Net.attach_node net ~hub:0 ~port:1 sink_b);
  let route = [ 1 ] in
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
  ignore (Net.attach_node net ~hub:0 ~port:1 sink_b);
  let route = [ 1 ] in
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
  ignore (Net.attach_node net ~hub:0 ~port:2 sink_c);
  let data () = Bytes.make 1000 'z' in
  Engine.spawn eng (fun () ->
      Net.transmit net ~src:a
        ~route:[ 2 ]
        (Frame.create ~id:0 ~src:a ~data:(data ())));
  Engine.spawn eng (fun () ->
      Net.transmit net ~src:b
        ~route:[ 2 ]
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
  ignore (Net.attach_node net ~hub:2 ~port:3 sink_b);
  let route = [ 15; 15; 3 ] in
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
  check_bool "no path between unconnected hubs" true
    (match Router.lookup (Router.create net) ~src:a ~dst:b ~proto:0 with
    | _ -> false
    | exception Router.No_route { src; dst } -> src = a && dst = b)

let test_fault_injection () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let sink_a, _, _ = make_sink eng "a" in
  let sink_b, _, finished = make_sink eng "b" in
  let a = Net.attach_node net ~hub:0 ~port:0 sink_a in
  ignore (Net.attach_node net ~hub:0 ~port:1 sink_b);
  let send id verdict =
    Net.set_fault_hook net (Some (fun _ -> verdict));
    let frame =
      Frame.create ~id ~src:a ~data:(Bytes.make 100 'q')
    in
    Engine.spawn eng (fun () ->
        Net.transmit net ~src:a ~route:[ 1 ] frame);
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

(* A frame corrupted on the near side of a partition cut must still fail
   the hardware CRC on the far side: the handoff carries the sender's
   CRC, it is not recomputed over the damaged bytes. *)
let test_corruption_crosses_cut () =
  let eng = Engine.create () in
  let near = Net.create eng ~hubs:1 () and far = Net.create eng ~hubs:1 () in
  let sink_a, _, _ = make_sink eng "a" in
  let a = Net.attach_node near ~hub:0 ~port:0 sink_a in
  Net.connect_remote near (0, 13) ~link:0 ~latency_ns:1_000;
  let verdicts = ref [] in
  (* a receiver checking each frame's CRC as its last chunk lands *)
  let checking name =
    let fifo = Byte_fifo.create eng ~capacity:Costs.fifo_bytes ~name in
    {
      Net.in_fifo = fifo;
      on_frame_start = (fun _ -> ());
      on_chunk =
        (fun fr ~arrived:_ ~last ->
          Byte_fifo.pop fifo (Byte_fifo.level fifo);
          if last then verdicts := (fr.Frame.id, Frame.crc_ok fr) :: !verdicts);
    }
  in
  ignore (Net.attach_node near ~hub:0 ~port:1 (checking "c"));
  ignore (Net.attach_node far ~hub:0 ~port:0 (checking "b"));
  Net.set_remote_forward near
    (Some
       (fun ~link:_ ~at ~route ~src ~frame_id ~wire_crc ~payload ->
         ignore
           (Engine.at eng at (fun () ->
                Net.inject far ~hub:0 ~src ~frame_id ~wire_crc ~route
                  payload))));
  (* no CRC is read before the fault hook corrupts the frame: a created
     frame's pending CRC must be taken over the bytes as sent *)
  let send id route verdict =
    Net.set_fault_hook near (Some (fun _ -> verdict));
    Engine.spawn eng (fun () ->
        Net.transmit near ~src:a ~route
          (Frame.create ~id ~src:a ~data:(Bytes.make 300 'c')));
    Engine.run eng
  in
  let across = [ 13; 0 ] and local = [ 1 ] in
  send 0 across `Deliver;
  send 1 across `Corrupt;
  send 2 across (`Corrupt_burst 4);
  send 3 local `Deliver;
  send 4 local `Corrupt;
  send 5 local (`Corrupt_burst 4);
  Alcotest.(check (list (pair int bool)))
    "CRC verdicts across the cut and locally"
    [ (0, true); (1, false); (2, false); (3, true); (4, false); (5, false) ]
    (List.rev !verdicts)

(* The wire-level path reads no CRC: a created frame streamed to a sink
   that only drains its FIFO never has its bytes read, which a counting
   vet hook sees as zero DMA reads (one per frame while [Frame.create]
   took the CRC eagerly). *)
let test_plain_transmit_reads_no_crc () =
  let reads = ref 0 in
  Vet_probe.install
    {
      Vet_probe.cpu_wait = (fun ~cpu:_ ~owner:_ ~priority:_ ~waited:_ -> ());
      interrupt_enter = (fun ~pid:_ ~name:_ -> ());
      interrupt_exit = (fun ~pid:_ -> ());
      dma_read = (fun ~frame:_ ~region:_ ~off:_ ~len:_ -> incr reads);
    };
  Fun.protect ~finally:Vet_probe.uninstall (fun () ->
      let eng = Engine.create () in
      let net = Net.create eng ~hubs:1 () in
      let sink_a, _, _ = make_sink eng "a" in
      let sink_b, _, finished = make_sink eng "b" in
      let a = Net.attach_node net ~hub:0 ~port:0 sink_a in
      ignore (Net.attach_node net ~hub:0 ~port:1 sink_b);
      Engine.spawn eng (fun () ->
          for id = 0 to 9 do
            Net.transmit net ~src:a ~route:[ 1 ]
              (Frame.create ~id ~src:a ~data:(Bytes.make 256 'p'))
          done);
      Engine.run eng;
      check_int "frames delivered" 10 (List.length !finished);
      check_int "DMA reads over 10 messages" 0 !reads)

(* ---------- Circuit order ---------- *)

(* hub0 -> hub1 -> hub2 over ports 15 -> 14, plus a spare hub0 -> hub1
   trunk on 13 -> 12, so a second circuit can share just the middle hop
   of the first *)
let three_hub_line eng =
  let net = Net.create eng ~hubs:3 () in
  Net.connect_hubs net (0, 15) (1, 14);
  Net.connect_hubs net (1, 15) (2, 14);
  Net.connect_hubs net (0, 13) (1, 12);
  net

(* A circuit tears down from the destination side: the waiter queued on
   its last hop's port resumes before the one queued on its first hop's,
   though both are handed their ports at the same instant. *)
let test_circuit_releases_last_hop_first () =
  let eng = Engine.create () in
  let net = three_hub_line eng in
  let attach hub port name =
    let sink, _, finished = make_sink eng name in
    (Net.attach_node net ~hub ~port sink, finished)
  in
  let a, _ = attach 0 0 "a" in
  let first_waiter, _ = attach 0 1 "b" in
  let last_waiter, _ = attach 2 5 "c" in
  let _, to_d = attach 2 3 "d" in
  let _, to_e = attach 2 4 "e" in
  (* the same-instant events, in the order the default policy fires them
     (ascending index); recorded whenever two or more compete *)
  let instants = ref [] in
  Engine.set_tie_break eng
    (Some
       (fun cands ->
         instants :=
           ( cands.(0).Engine.c_time,
             Array.to_list (Array.map (fun c -> c.Engine.c_label) cands) )
           :: !instants;
         0));
  let send ~name ~src ~route ~at id =
    Engine.spawn eng ~name (fun () ->
        Engine.sleep eng at;
        Net.transmit net ~src ~route
          (Frame.create ~id ~src ~data:(Bytes.make 1000 'o')))
  in
  send ~name:"circuit" ~src:a ~route:[ 15; 15; 3 ] ~at:0 0;
  (* both queue once the circuit holds all three of its ports (2.1 us) *)
  send ~name:"first-hop-waiter" ~src:first_waiter ~route:[ 15; 15; 4 ]
    ~at:3_000 1;
  send ~name:"last-hop-waiter" ~src:last_waiter ~route:[ 3 ] ~at:3_000 2;
  Engine.run eng;
  check_int "all three frames delivered" 3
    (List.length !to_d + List.length !to_e);
  let released =
    (3 * Net.hub_setup_ns) + (3 * Net.hop_latency_ns)
    + (1000 * Net.fiber_ns_per_byte)
  in
  let waiter l = l = "first-hop-waiter" || l = "last-hop-waiter" in
  let resumed =
    match List.rev !instants |> List.filter (fun (at, _) -> at = released) with
    | (_, labels) :: _ -> List.filter waiter labels
    | [] -> []
  in
  Alcotest.(check (list string))
    "ports come back last hop first"
    [ "last-hop-waiter"; "first-hop-waiter" ]
    resumed

(* A second circuit that shares only the first circuit's middle port
   takes its own first hop, runs the middle HUB's controller command, and
   only then waits — at the middle port. *)
let test_circuit_waits_at_shared_hop () =
  let eng = Engine.create () in
  let net = three_hub_line eng in
  let sink_a, _, _ = make_sink eng "a" in
  let sink_b, _, _ = make_sink eng "b" in
  let sink_d, _, to_d = make_sink eng "d" in
  let sink_e, _, to_e = make_sink eng "e" in
  let a = Net.attach_node net ~hub:0 ~port:0 sink_a in
  let b = Net.attach_node net ~hub:0 ~port:1 sink_b in
  ignore (Net.attach_node net ~hub:2 ~port:3 sink_d);
  ignore (Net.attach_node net ~hub:2 ~port:4 sink_e);
  Engine.spawn eng (fun () ->
      Net.transmit net ~src:a ~route:[ 15; 15; 3 ]
        (Frame.create ~id:0 ~src:a ~data:(Bytes.make 1000 'a')));
  (* starts once the first circuit holds the middle port (1.4 us) *)
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1_500;
      Net.transmit net ~src:b ~route:[ 13; 15; 4 ]
        (Frame.create ~id:1 ~src:b ~data:(Bytes.make 100 'b')));
  Engine.run eng;
  let setup = Net.hub_setup_ns and hop = Net.hop_latency_ns in
  let wire n = n * Net.fiber_ns_per_byte in
  let first_done = (3 * setup) + (3 * hop) + wire 1000 in
  check_int "first circuit uncontended" first_done (List.assoc 0 !to_d);
  (* the middle port frees at [first_done]; what remains is the last
     HUB's setup, the propagation and the bytes *)
  check_int "second circuit resumes at the middle hop"
    (first_done + setup + (3 * hop) + wire 100)
    (List.assoc 1 !to_e);
  check_int "one contended port" 1 (Net.port_waits net);
  check_int "waited from its middle setup to the release"
    (first_done - (1_500 + (2 * setup)))
    (Net.port_wait_ns net)

(* A port that is down anywhere along the route, not only at either end,
   blackholes the frame: it still holds the circuit for its wire time,
   and is counted as a link-down drop, on the source side and after a
   partition crossing alike. *)
let test_down_trunk_mid_route () =
  let eng = Engine.create () in
  let net = three_hub_line eng in
  let sink_a, _, _ = make_sink eng "a" in
  let sink_d, _, to_d = make_sink eng "d" in
  let a = Net.attach_node net ~hub:0 ~port:0 sink_a in
  ignore (Net.attach_node net ~hub:2 ~port:3 sink_d);
  Net.set_link_up net ~hub:1 ~port:15 false;
  let done_at = ref (-1) in
  Engine.spawn eng (fun () ->
      Net.transmit net ~src:a ~route:[ 15; 15; 3 ]
        (Frame.create ~id:0 ~src:a ~data:(Bytes.make 100 'x'));
      done_at := Engine.now eng);
  Engine.run eng;
  check_int "never delivered" 0 (List.length !to_d);
  check_int "counted as a link-down drop" 1 (Net.link_down_drops net);
  check_int "wire time still passes"
    ((3 * Net.hub_setup_ns) + (3 * Net.hop_latency_ns)
    + (100 * Net.fiber_ns_per_byte))
    !done_at;
  let payload = String.make 100 'y' in
  Net.inject net ~hub:0 ~src:a ~frame_id:1
    ~wire_crc:(Nectar_util.Crc32.digest_string payload)
    ~route:[ 15; 15; 3 ] payload;
  Engine.run eng;
  check_int "an injected frame is blackholed too" 0 (List.length !to_d);
  check_int "and counted" 2 (Net.link_down_drops net);
  Net.set_link_up net ~hub:1 ~port:15 true;
  Engine.spawn eng (fun () ->
      Net.transmit net ~src:a ~route:[ 15; 15; 3 ]
        (Frame.create ~id:2 ~src:a ~data:(Bytes.make 100 'z')));
  Engine.run eng;
  check_int "delivered once the trunk is back" 1 (List.length !to_d)

(* A 0-byte first chunk never advances the stream, so a header size
   below 1 used to spin forever inside [transmit] (and inside [inject]'s
   process); both refuse it before anything moves. *)
let test_zero_header_refused () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let sink_a, _, _ = make_sink eng "a" in
  let sink_b, started, _ = make_sink eng "b" in
  let a = Net.attach_node net ~hub:0 ~port:0 sink_a in
  ignore (Net.attach_node net ~hub:0 ~port:1 sink_b);
  let outcomes = ref [] in
  let attempt what f =
    let outcome =
      match f () with () -> "sent" | exception Invalid_argument m -> m
    in
    outcomes := (what, outcome) :: !outcomes
  in
  Engine.spawn eng ~name:"sender" (fun () ->
      attempt "transmit" (fun () ->
          Net.transmit net ~header_bytes:0 ~src:a ~route:[ 1 ]
            (Frame.create ~id:0 ~src:a ~data:(Bytes.make 256 'h'))));
  attempt "inject" (fun () ->
      Net.inject net ~header_bytes:0 ~hub:0 ~src:a ~frame_id:1 ~wire_crc:0
        ~route:[ 1 ] (String.make 256 'i'));
  Engine.run eng;
  Alcotest.(check (list (pair string string)))
    "both refused"
    [
      ("inject", "Network.inject: header_bytes must be at least 1");
      ("transmit", "Network.transmit: header_bytes must be at least 1");
    ]
    (List.sort compare !outcomes);
  check_int "nothing reached the wire" 0 (List.length !started)

(* ---------- Allocation pins ---------- *)

(* A frame's trip through the fabric allocates nothing per hop or per
   chunk: what a transmit allocates is its route check's result, and the
   continuation of each timed parking (one controller command per hop).
   Frames are built before the measured loop (see [Perf.transmit_words],
   which BENCH_perf.json's [net_transmit_hop_words] records). *)
let test_transmit_allocation () =
  check_bool "no vet hook installed" false (Vet_probe.installed ());
  let transmit_words = Nectar_bench.Perf.transmit_words in
  let one = transmit_words ~hops:1 and six = transmit_words ~hops:6 in
  check_bool
    (Printf.sprintf "1-hop 256 B transmit allocates %.1f <= 18 words" one)
    true (one <= 18.);
  let per_hop = (six -. one) /. 5. in
  check_bool
    (Printf.sprintf "each further hop allocates %.1f <= 2 words" per_hop)
    true (per_hop <= 2.)

(* A 64 B datagram from CAB to CAB allocates its two messages, its frame
   record with its owner and receive blocks, one fiber's effect closure
   per interrupt and per receive DMA (their process slots keep their
   records), and its parkings' continuations — no descriptor records,
   queue cells, side tables or closures (497 words before the frame path
   lost them).  Measured end to end by [Perf.cab_datagram_words],
   which BENCH_perf.json's [cab_datagram_words] records. *)
let test_cab_datagram_allocation () =
  check_bool "no vet hook installed" false (Vet_probe.installed ());
  let words = Nectar_bench.Perf.cab_datagram_words () in
  check_bool
    (Printf.sprintf "a CAB datagram allocates %.1f <= 158 words" words)
    true (words <= 158.)

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
  (eng, a, b)

(* Queue all of [data] on [a]'s transmit ring for port 1, unowned. *)
let send ?(header_bytes = 16) a data =
  Cab.send a
    (Frame.outgoing ~src:(Cab.node_id a) ~route:[ 1 ] ~header_bytes
       (Region.of_bytes data) ~off:0 ~len:(Bytes.length data) ~tail:[]
       Frame.Unowned)

(* A receive client whose frame value is the pair of its start-of-data
   and end-of-data upcalls, the latter given the CRC verdict. *)
let upcalls =
  {
    Rx.watched = (fun _ _ () (sod, _) -> sod ());
    completed = (fun _ f () (_, eod) -> eod (Frame.crc_verdict f));
  }

let receive b p dst ?(watch_at = max_int) ?(sod = ignore) eod =
  Rx.receive (Cab.rx b) p ~dst:(Region.of_bytes dst) ~dst_pos:0 ~watch_at
    upcalls () (sod, eod)

let test_cab_frame_exchange () =
  let eng, a, b = two_cabs () in
  let payload = Bytes.of_string "HDRxHello from CAB A, via the HUB fabric!" in
  let received = ref None and recv_time = ref (-1) in
  Rx.set_frame_handler (Cab.rx b) (fun _ictx p ->
      let header = Rx.read_view (Cab.rx b) p 4 in
      Alcotest.(check string) "header" "HDRx"
        (Bytes.sub_string header (Rx.view_offset (Cab.rx b)) 4);
      let dst = Bytes.create (Rx.total p - 4) in
      receive b p dst (fun crc_ok ->
          received := Some (Bytes.to_string dst, crc_ok);
          recv_time := Engine.now eng));
  Engine.spawn eng (fun () -> send ~header_bytes:4 a payload);
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

let test_cab_zero_header_refused () =
  let eng, a, b = two_cabs () in
  let seen = ref 0 in
  Rx.set_frame_handler (Cab.rx b) (fun _ictx p ->
      incr seen;
      Rx.discard (Cab.rx b) p);
  Alcotest.check_raises "send refuses a 0-byte header"
    (Invalid_argument "Cab.send: header_bytes must be at least 1")
    (fun () -> send ~header_bytes:0 a (Bytes.make 64 'z'));
  Engine.run eng;
  check_int "nothing sent" 0 (Cab.frames_tx a);
  check_int "nothing received" 0 !seen

let test_cab_discard_keeps_fifo_clean () =
  let eng, a, b = two_cabs () in
  let seen = ref 0 in
  Rx.set_frame_handler (Cab.rx b) (fun _ictx p ->
      incr seen;
      Rx.discard (Cab.rx b) p);
  Engine.spawn eng (fun () ->
      for _ = 1 to 5 do
        send a (Bytes.make 2000 'd')
      done);
  Engine.run eng;
  check_int "all frames seen" 5 !seen;
  check_int "fifo drained" 0 (Cab.in_fifo_level b);
  check_int "drop counter" 5 (Rx.dropped_frames (Cab.rx b))

let test_cab_large_frame_backpressure () =
  let eng, a, b = two_cabs () in
  (* 32 KB frame: 8x the FIFO; receiver DMA must keep draining. *)
  let len = 32 * 1024 in
  let data = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
  let ok = ref false in
  Rx.set_frame_handler (Cab.rx b) (fun _ictx p ->
      let dst = Bytes.create (Rx.total p) in
      receive b p dst (fun crc_ok -> ok := crc_ok && Bytes.equal dst data));
  Engine.spawn eng (fun () -> send a data);
  Engine.run eng;
  check_bool "32 KB frame crossed intact" true !ok

let test_cab_rx_watch_fires_in_order () =
  let eng, a, b = two_cabs () in
  let events = ref [] in
  let note what () = events := (what, Engine.now eng) :: !events in
  Rx.set_frame_handler (Cab.rx b) (fun _ictx p ->
      receive b p (Bytes.create (Rx.total p)) ~watch_at:64
        ~sod:(note "start-of-data") (fun _ -> note "end-of-data" ()));
  Engine.spawn eng (fun () -> send a (Bytes.make 8192 'w'));
  Engine.run eng;
  match List.rev !events with
  | [ ("start-of-data", t1); ("end-of-data", t2) ] ->
      check_bool "start-of-data well before end-of-data" true
        (t2 - t1 > us 300)
  | evs ->
      Alcotest.failf "unexpected events: %s"
        (String.concat "," (List.map fst evs))

(* A header read that runs past the inline extent into [tail] cannot
   borrow one backing store: [Rx.read_view] copies the span into fresh
   bytes (offset 0) and meters the copy. *)
let test_cab_read_view_across_extents () =
  let eng, a, b = two_cabs () in
  let n = 9 in
  let inline = Bytes.of_string "..HDR.." and rest = "-split|and payload" in
  let frame =
    Frame.outgoing ~src:(Cab.node_id a) ~route:[ 1 ] ~header_bytes:n
      (Region.of_bytes inline) ~off:2 ~len:3
      ~tail:
        [
          {
            Frame.ereg = Region.of_bytes (Bytes.of_string rest);
            eoff = 0;
            elen = String.length rest;
          };
        ]
      Frame.Unowned
  in
  let rxread () =
    Nectar_util.Copy_meter.bytes_copied ~site:Nectar_util.Copy_meter.Rxread ()
  in
  let before = rxread () in
  let header = ref "" and offset = ref (-1) and metered = ref (-1) in
  let received = ref None in
  Rx.set_frame_handler (Cab.rx b) (fun _ictx p ->
      let view = Rx.read_view (Cab.rx b) p n in
      offset := Rx.view_offset (Cab.rx b);
      header := Bytes.sub_string view !offset n;
      metered := rxread () - before;
      let dst = Bytes.create (Rx.total p - n) in
      receive b p dst (fun crc_ok ->
          received := Some (Bytes.to_string dst, crc_ok)));
  Engine.spawn eng (fun () -> Cab.send a frame);
  Engine.run eng;
  Alcotest.(check string) "header spans both extents" "HDR-split" !header;
  check_int "a copy starts at offset 0" 0 !offset;
  check_int "the copy is metered" n !metered;
  Alcotest.(check (option (pair string bool)))
    "rest of the frame intact"
    (Some ("|and payload", true))
    !received

(* ---------- frame-path order pin ---------- *)

module Stack = Nectar_proto.Stack
module Datalink = Nectar_proto.Datalink

(* The whole CAB frame path under a recording tie-break policy that
   always answers 0 (the default order): CABs 0 and 2 send back-to-back
   64 B and 8 KB datagrams into CAB 1, so its rx DMAs and queued
   interrupts overlap; then one frame the fault hook corrupts, an RMP
   exchange whose first data frame the hook drops (one retransmit), and
   one [output_sg] with a slice tail.  The log holds every same-instant
   choice (time and candidate labels in order), the trace of every
   handler, DMA and datalink span, and a delivery log (time, dst, length,
   CRC verdict).  Returns (log digest, choices, final time). *)
let frame_path_log () =
  let w =
    World.build ~seats:(World.ports 3)
      ~stack:(fun rt -> Stack.create rt ~rmp_rto:(us 400) ())
      ()
  in
  let eng = w.World.eng in
  let log = Buffer.create 65536 in
  let choices = ref 0 in
  let dls = Array.map (fun (s : Stack.t) -> s.dl) w.World.stacks in
  let crc_seen = Array.make (Array.length dls) 0 in
  let note_crc_drops () =
    Array.iteri
      (fun i dl ->
        let d = Datalink.drops_crc dl in
        if d <> crc_seen.(i) then begin
          crc_seen.(i) <- d;
          Printf.bprintf log "deliver %d cab-%d crc-bad %d\n" (Engine.now eng)
            i d
        end)
      dls
  in
  Engine.set_tie_break eng
    (Some
       (fun cands ->
         incr choices;
         note_crc_drops ();
         Printf.bprintf log "%d" cands.(0).Engine.c_time;
         Array.iter (fun c -> Printf.bprintf log " %s" c.Engine.c_label) cands;
         Buffer.add_char log '\n';
         0));
  let corrupt_next = ref false and drop_next = ref false in
  Net.set_fault_hook w.World.net
    (Some
       (fun _ ->
         if !corrupt_next then begin
           corrupt_next := false;
           `Corrupt
         end
         else if !drop_next then begin
           drop_next := false;
           `Drop
         end
         else `Deliver));
  let tracer = Trace.create ~capacity:(1 lsl 20) eng in
  Trace.install tracer;
  let port = 700 in
  let s0 = w.World.stacks.(0) and s1 = w.World.stacks.(1) in
  let s2 = w.World.stacks.(2) in
  let inbox =
    Nectar_core.Runtime.create_mailbox s1.Stack.rt ~name:"pin-inbox" ~port
      ~byte_limit:(256 * 1024) ()
  in
  let thread (s : Stack.t) name body =
    ignore (Nectar_core.Runtime.spawn_thread s.rt ~name body)
  in
  thread s1 "pin-sink" (fun ctx ->
      while true do
        let m = Nectar_core.Mailbox.begin_get ctx inbox in
        Printf.bprintf log "deliver %d cab-1 %d crc-ok\n" (Engine.now eng)
          (Nectar_core.Message.length m);
        Nectar_core.Mailbox.end_get ctx m
      done);
  let dgram ctx (s : Stack.t) n =
    Nectar_proto.Dgram.send_string ctx s.dgram ~dst_cab:1 ~dst_port:port
      (String.make n 'p')
  in
  thread s2 "pin-side" (fun ctx ->
      List.iter (dgram ctx s2) [ 64; 64; 8192; 64 ]);
  thread s0 "pin-main" (fun ctx ->
      List.iter (dgram ctx s0) [ 8192; 64; 8192; 64 ];
      Engine.sleep eng (Sim_time.ms 3);
      corrupt_next := true;
      dgram ctx s0 64;
      dgram ctx s0 64;
      Engine.sleep eng (Sim_time.ms 3);
      drop_next := true;
      Nectar_proto.Rmp.send_string ctx s0.rmp ~dst_cab:1 ~dst_port:port
        (String.make 200 'r');
      Engine.sleep eng (Sim_time.ms 1);
      (* a datagram header message plus a slice of another message *)
      let dl = s0.dl in
      let hdr = Datalink.alloc_frame_blocking ctx dl 8 in
      let body = Datalink.alloc_frame_blocking ctx dl 100 in
      Nectar_core.Message.write_string body 0 (String.make 100 's');
      let tail = Nectar_core.Message.slice body ~pos:20 ~len:60 in
      Nectar_core.Mailbox.dispose ctx body;
      Nectar_core.Message.set_u16 hdr 0 port;
      Nectar_core.Message.set_u16 hdr 2 0;
      Nectar_core.Message.set_u16 hdr 4 60;
      Nectar_core.Message.set_u16 hdr 6 0;
      Datalink.output_sg ctx dl ~dst_cab:1 ~proto:Nectar_proto.Wire.proto_dgram
        ~msg:hdr ~tail:[ tail ] ~free:true);
  Fun.protect ~finally:Trace.uninstall (fun () -> Engine.run eng);
  note_crc_drops ();
  List.iter
    (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Span_begin ->
          Printf.bprintf log "B %d %s %s\n" e.time e.track e.label
      | Trace.Span_end -> Printf.bprintf log "E %d\n" e.time
      | Trace.Instant -> Printf.bprintf log "I %d %s %s\n" e.time e.track e.label)
    (Trace.events tracer);
  check_int "trace dropped nothing" 0 (Trace.dropped tracer);
  check_int "one retransmit" 1 (Nectar_proto.Rmp.retransmits s0.rmp);
  check_int "one CRC drop" 1 (Datalink.drops_crc s1.dl);
  (Digest.to_hex (Digest.string (Buffer.contents log)), !choices, Engine.now eng)

(* Pinned before the CAB frame path lost its per-frame closures, queue
   cells and side tables: that work must not move one event. *)
let test_frame_path_order_pinned () =
  Alcotest.(check (triple string int int))
    "(log digest, choices, final time)"
    ("abfed4febf151c6527f07e815d19ac6d", 81, 7941508)
    (frame_path_log ())

let () =
  Alcotest.run "nectar_fabric"
    [
      ( "frame",
        [
          Alcotest.test_case "hardware crc" `Quick test_frame_crc;
          Alcotest.test_case "reads allocate nothing" `Quick
            test_frame_reads_allocate_nothing;
          Alcotest.test_case "scatter/gather extents" `Quick
            test_frame_sg_extents;
          Alcotest.test_case "errors name their function" `Quick
            test_frame_errors_name_their_function;
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
          Alcotest.test_case "corruption crosses a partition cut" `Quick
            test_corruption_crosses_cut;
          Alcotest.test_case "wire-level transmit reads no CRC" `Quick
            test_plain_transmit_reads_no_crc;
          Alcotest.test_case "circuit releases last hop first" `Quick
            test_circuit_releases_last_hop_first;
          Alcotest.test_case "circuit waits at the shared hop" `Quick
            test_circuit_waits_at_shared_hop;
          Alcotest.test_case "down trunk mid-route" `Quick
            test_down_trunk_mid_route;
          Alcotest.test_case "transmit allocates nothing per hop" `Quick
            test_transmit_allocation;
          Alcotest.test_case "zero header size refused" `Quick
            test_zero_header_refused;
          Alcotest.test_case "a CAB datagram allocates one record set" `Quick
            test_cab_datagram_allocation;
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
          Alcotest.test_case "zero header size refused" `Quick
            test_cab_zero_header_refused;
          Alcotest.test_case "large frame backpressure" `Quick
            test_cab_large_frame_backpressure;
          Alcotest.test_case "rx watch order" `Quick
            test_cab_rx_watch_fires_in_order;
          Alcotest.test_case "read_view across extents copies and meters"
            `Quick test_cab_read_view_across_extents;
          Alcotest.test_case "frame path order pinned" `Quick
            test_frame_path_order_pinned;
        ] );
    ]
