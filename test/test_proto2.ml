(* Second protocol suite: wire-format properties, transport edge cases and
   failure-path coverage beyond test_proto.ml's happy paths. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
module Net = Nectar_hub.Network
module Cab = Nectar_cab.Cab
module World = Nectar_fleet.World

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let spawn_on (s : Stack.t) ~name body =
  ignore (Thread.create (Runtime.cab s.Stack.rt) ~name body)

(* ---------- wire formats ---------- *)

let prop_dl_header_roundtrip =
  QCheck2.Test.make ~name:"datalink header encode/decode roundtrip"
    QCheck2.Gen.(
      tup4 (int_bound 255) (int_bound 0xffff) (int_bound 0xffff)
        (int_bound 0xffff))
    (fun (proto, len, src, dst) ->
      let b = Bytes.create 16 in
      Wire.write_dl b ~pos:2 ~proto ~payload_len:len ~src_cab:src ~dst_cab:dst;
      Wire.dl_proto b 2 = proto
      && Wire.dl_payload_len b 2 = len
      && Wire.dl_src_cab b 2 = src && Wire.dl_dst_cab b 2 = dst)

let prop_ipv4_addr_roundtrip =
  QCheck2.Test.make ~name:"cab id <-> IPv4 address roundtrip"
    QCheck2.Gen.(int_bound 1000)
    (fun cab -> Ipv4.cab_of_addr (Ipv4.addr_of_cab cab) = cab)

let test_ipv4_addr_rendering () =
  check_string "dotted quad" "10.1.0.1"
    (Ipv4.string_of_addr (Ipv4.addr_of_cab 0));
  check_string "dotted quad" "10.1.0.26"
    (Ipv4.string_of_addr (Ipv4.addr_of_cab 25))

(* ---------- datagram payload integrity over real frames ---------- *)

let prop_dgram_payload_roundtrip =
  QCheck2.Test.make ~count:30
    ~name:"datagram payloads of any size and content cross intact"
    QCheck2.Gen.(string_size (int_range 0 4000))
    (fun payload ->
      let w = World.build () in
      let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
      let inbox =
        Runtime.create_mailbox b.Stack.rt ~name:"in" ~port:700 ()
      in
      let got = ref None in
      spawn_on b ~name:"r" (fun ctx ->
          let m = Mailbox.begin_get ctx inbox in
          got := Some (Message.to_string m);
          Mailbox.end_get ctx m);
      spawn_on a ~name:"s" (fun ctx ->
          Dgram.send_string ctx a.Stack.dgram ~dst_cab:1 ~dst_port:700
            payload);
      Engine.run eng;
      !got = Some payload)

(* ---------- RMP failure paths ---------- *)

let test_rmp_delivery_timeout_on_dead_wire () =
  let w = World.build () in
  let eng = w.eng and net = w.net and a = w.stacks.(0) in
  Net.set_fault_hook net (Some (fun _ -> `Drop));
  let outcome = ref "" in
  spawn_on a ~name:"s" (fun ctx ->
      try
        Rmp.send_string ctx a.Stack.rmp ~dst_cab:1 ~dst_port:700 "lost cause"
      with Rmp.Delivery_timeout { dst_cab = 1; dst_port = 700 } ->
        outcome := "timeout");
  Engine.run eng;
  check_string "bounded retries then failure" "timeout" !outcome

let test_rmp_interleaved_channels () =
  (* messages to two different ports of the same CAB use independent
     channels; a stall on one must not block the other *)
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let in1 = Runtime.create_mailbox b.Stack.rt ~name:"p1" ~port:701 () in
  let in2 = Runtime.create_mailbox b.Stack.rt ~name:"p2" ~port:702 () in
  let order = ref [] in
  let drain name inbox =
    spawn_on b ~name (fun ctx ->
        for _ = 1 to 4 do
          let m = Mailbox.begin_get ctx inbox in
          order := (name, Message.to_string m) :: !order;
          Mailbox.end_get ctx m
        done)
  in
  drain "one" in1;
  drain "two" in2;
  spawn_on a ~name:"s1" (fun ctx ->
      for i = 1 to 4 do
        Rmp.send_string ctx a.Stack.rmp ~dst_cab:1 ~dst_port:701
          (Printf.sprintf "a%d" i)
      done);
  spawn_on a ~name:"s2" (fun ctx ->
      for i = 1 to 4 do
        Rmp.send_string ctx a.Stack.rmp ~dst_cab:1 ~dst_port:702
          (Printf.sprintf "b%d" i)
      done);
  Engine.run eng;
  let per name =
    List.filter_map (fun (n, s) -> if n = name then Some s else None)
      (List.rev !order)
  in
  Alcotest.(check (list string)) "channel 1 in order"
    [ "a1"; "a2"; "a3"; "a4" ] (per "one");
  Alcotest.(check (list string)) "channel 2 in order"
    [ "b1"; "b2"; "b3"; "b4" ] (per "two")

(* ---------- UDP without checksums ---------- *)

let test_udp_checksum_disabled_roundtrip () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let mk i =
    let cab = Cab.create net ~hub:0 ~port:i ~name:(Printf.sprintf "c%d" i) in
    let rt = Runtime.create cab in
    let dl = Datalink.create rt in
    let ip = Ipv4.create dl () in
    (rt, Udp.create ip ~checksum:false ())
  in
  let rt_a, udp_a = mk 0 in
  let rt_b, udp_b = mk 1 in
  let inbox = Runtime.create_mailbox rt_b ~name:"in" () in
  Udp.bind udp_b ~port:9 inbox;
  let got = ref None in
  ignore
    (Thread.create (Runtime.cab rt_b) ~name:"r" (fun ctx ->
         let m = Mailbox.begin_get ctx inbox in
         got := Some (Message.to_string m);
         Mailbox.end_get ctx m));
  ignore
    (Thread.create (Runtime.cab rt_a) ~name:"s" (fun ctx ->
         Udp.send_string ctx udp_a ~src_port:9 ~dst:(Ipv4.addr_of_cab 1)
           ~dst_port:9 "zero checksum means not computed"));
  Engine.run eng;
  Alcotest.(check (option string)) "delivered"
    (Some "zero checksum means not computed") !got

(* ---------- ICMP payload sweep ---------- *)

let test_icmp_payload_sweep () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let rtts = ref [] in
  spawn_on a ~name:"ping" (fun ctx ->
      List.iter
        (fun n ->
          match
            Icmp.ping ctx a.Stack.icmp ~dst:(Stack.addr b) ~payload_bytes:n ()
          with
          | Some rtt -> rtts := (n, rtt) :: !rtts
          | None -> Alcotest.failf "ping with %d bytes timed out" n)
        [ 8; 64; 512; 4096 ]);
  Engine.run eng;
  let rtts = List.rev !rtts in
  check_int "all pings answered" 4 (List.length rtts);
  (* round trip grows with payload (wire is 80 ns/byte each way) *)
  let ordered =
    let rec mono = function
      | (_, a) :: ((_, b) :: _ as rest) -> a < b && mono rest
      | _ -> true
    in
    mono rtts
  in
  check_bool "monotone in payload size" true ordered

(* ---------- TCP extras ---------- *)

let test_tcp_listener_rejects_duplicate_port () =
  let w = World.build () in
  let eng = w.eng and b = w.stacks.(1) in
  ignore eng;
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun _ -> ());
  Alcotest.check_raises "second listen on same port"
    (Invalid_argument "Tcp.listen: port in use") (fun () ->
      Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun _ -> ()))

let test_tcp_recv_mailbox_direct () =
  (* the receive interface is a plain mailbox: read it directly instead of
     through recv_string, like a host process would *)
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let pieces = ref [] in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      spawn_on b ~name:"sink" (fun ctx ->
          let mb = Tcp.recv_mailbox conn in
          for _ = 1 to 2 do
            let m = Mailbox.begin_get ctx mb in
            pieces := Message.to_string m :: !pieces;
            Mailbox.end_get ctx m
          done));
  spawn_on a ~name:"src" (fun ctx ->
      let conn = Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 () in
      Tcp.send ctx conn "first";
      Engine.sleep eng (Sim_time.ms 1);
      Tcp.send ctx conn "second");
  Engine.run eng;
  Alcotest.(check (list string)) "segments as messages"
    [ "first"; "second" ] (List.rev !pieces)

let test_tcp_big_transfer_with_fragmentation_and_checksum () =
  (* mss 4096 over mtu 1500: every segment fragments; software checksums
     verify end to end across reassembly *)
  let w =
    World.build
      ~stack:(fun rt ->
        Stack.create rt ~tcp_checksum:true ~mtu:1500 ~tcp_mss:4096 ())
      ()
  in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let total = 128 * 1024 in
  let received = ref 0 in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      spawn_on b ~name:"sink" (fun ctx ->
          while !received < total do
            received := !received + String.length (Tcp.recv_string ctx conn)
          done));
  spawn_on a ~name:"src" (fun ctx ->
      let conn = Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 () in
      for _ = 1 to total / 8192 do
        Tcp.send ctx conn (String.make 8192 'f')
      done);
  Engine.run eng;
  check_int "all received" total !received;
  check_bool "fragmentation happened" true (Ipv4.fragments_out a.Stack.ip > 50);
  check_int "no checksum failures through reassembly" 0
    (Tcp.bad_checksums b.Stack.tcp)

(* ---------- reqresp extras ---------- *)

let test_reqresp_concurrent_calls () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  Reqresp.register_server b.Stack.reqresp ~port:7 ~mode:Reqresp.Upcall_server
    (fun _ req -> "r:" ^ req);
  let results = Array.make 4 "" in
  for i = 0 to 3 do
    spawn_on a ~name:(Printf.sprintf "c%d" i) (fun ctx ->
        results.(i) <-
          Reqresp.call ctx a.Stack.reqresp ~dst_cab:1 ~dst_port:7
            (Printf.sprintf "q%d" i))
  done;
  Engine.run eng;
  for i = 0 to 3 do
    check_string "each caller got its own answer"
      (Printf.sprintf "r:q%d" i)
      results.(i)
  done

let test_reqresp_large_payloads () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  Reqresp.register_server b.Stack.reqresp ~port:7 ~mode:Reqresp.Thread_server
    (fun _ req -> String.uppercase_ascii req);
  let answer = ref "" in
  let request = String.init 20_000 (fun i -> Char.chr (97 + (i mod 26))) in
  spawn_on a ~name:"client" (fun ctx ->
      answer :=
        Reqresp.call ctx a.Stack.reqresp ~dst_cab:1 ~dst_port:7 request);
  Engine.run eng;
  check_int "20 KB response intact" 20_000 (String.length !answer);
  check_string "content transformed" (String.uppercase_ascii request) !answer

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "nectar_proto2"
    [
      ( "wire",
        [
          qtest prop_dl_header_roundtrip;
          qtest prop_ipv4_addr_roundtrip;
          Alcotest.test_case "addr rendering" `Quick test_ipv4_addr_rendering;
        ] );
      ("dgram", [ qtest prop_dgram_payload_roundtrip ]);
      ( "rmp",
        [
          Alcotest.test_case "delivery timeout" `Quick
            test_rmp_delivery_timeout_on_dead_wire;
          Alcotest.test_case "independent channels" `Quick
            test_rmp_interleaved_channels;
        ] );
      ( "udp",
        [
          Alcotest.test_case "checksum disabled" `Quick
            test_udp_checksum_disabled_roundtrip;
        ] );
      ( "icmp",
        [ Alcotest.test_case "payload sweep" `Quick test_icmp_payload_sweep ] );
      ( "tcp",
        [
          Alcotest.test_case "duplicate listen" `Quick
            test_tcp_listener_rejects_duplicate_port;
          Alcotest.test_case "recv mailbox direct" `Quick
            test_tcp_recv_mailbox_direct;
          Alcotest.test_case "fragmented checksummed bulk" `Quick
            test_tcp_big_transfer_with_fragmentation_and_checksum;
        ] );
      ( "reqresp",
        [
          Alcotest.test_case "concurrent calls" `Quick
            test_reqresp_concurrent_calls;
          Alcotest.test_case "large payloads" `Quick
            test_reqresp_large_payloads;
        ] );
    ]
