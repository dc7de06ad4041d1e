(* Figure 8: host-to-host throughput vs message size.

   Paper shape: both Nectar transports flatten against the ~30 Mbit/s VME
   bus — RMP tops out around 28 Mbit/s and TCP around 24 Mbit/s — while the
   network-device mode manages 6.4 Mbit/s and 10 Mbit/s Ethernet 7.2
   (its on-board interface bypasses VME). *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
open Bench_world

let sizes = [ 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]

let message_count size = max 60 (min 400 (1_000_000 / size))

(* ---------- RMP over the host path ---------- *)

let rmp_throughput size =
  let w = World.build () in
  let drv_a = World.add_host w 0 in
  let drv_b = World.add_host w 1 in
  let port = 900 in
  let inbox =
    Runtime.create_mailbox w.stacks.(1).Stack.rt ~name:"f8-inbox" ~port
      ~byte_limit:(128 * 1024) ()
  in
  let send_mb =
    Runtime.create_mailbox w.stacks.(0).Stack.rt ~name:"f8-send"
      ~byte_limit:(128 * 1024) ()
  in
  spawn_cab_thread w.stacks.(0) ~name:"send-server" (fun ctx ->
      while true do
        let m = Mailbox.begin_get ctx send_mb in
        let payload = Message.read_string m ~pos:0 ~len:(Message.length m) in
        Mailbox.end_get ctx m;
        Rmp.send_string ctx w.stacks.(0).Stack.rmp ~dst_cab:1 ~dst_port:port
          payload
      done);
  let h_send =
    Hostlib.attach drv_a send_mb ~mode:Hostlib.Shared_memory ~readers:`Cab
  in
  let h_in =
    Hostlib.attach drv_b inbox ~mode:Hostlib.Shared_memory ~readers:`Host
  in
  let k = message_count size in
  let done_at = ref 0 and started = ref 0 in
  Host.spawn_process (Cab_driver.host drv_b) ~name:"sink" (fun ctx ->
      for _ = 1 to k do
        let m = Hostlib.begin_get ctx h_in in
        ignore (Hostlib.read_string ctx h_in m);
        Hostlib.end_get ctx h_in m
      done;
      done_at := Engine.now w.eng);
  Host.spawn_process (Cab_driver.host drv_a) ~name:"source" (fun ctx ->
      started := Engine.now w.eng;
      let payload = String.make size 'r' in
      for _ = 1 to k do
        let m = Hostlib.begin_put ctx h_send size in
        Hostlib.write_string ctx h_send m ~pos:0 payload;
        Hostlib.end_put ctx h_send m
      done);
  Engine.run w.eng;
  Stats.Throughput.mbit_per_s ~bytes_moved:(k * size)
    ~elapsed:(!done_at - !started)

(* ---------- TCP over the host path ---------- *)

let tcp_throughput size =
  let w =
    World.build
      ~stack:(fun rt -> Stack.create rt ~tcp_checksum:true ~tcp_mss:size ())
      ()
  in
  let drv_a = World.add_host w 0 in
  let drv_b = World.add_host w 1 in
  let k = message_count size in
  let total = k * size in
  let conn_ref = ref None and accepted = ref None in
  Tcp.listen w.stacks.(1).Stack.tcp ~port:80 ~on_accept:(fun c ->
      accepted := Some c);
  (* establish from a CAB thread, then hand the connection to the hosts *)
  spawn_cab_thread w.stacks.(0) ~name:"connector" (fun ctx ->
      conn_ref :=
        Some
          (Tcp.connect ctx w.stacks.(0).Stack.tcp ~dst:(Stack.addr w.stacks.(1))
             ~dst_port:80 ()));
  Engine.run w.eng;
  let conn = Option.get !conn_ref and peer = Option.get !accepted in
  let send_req =
    Hostlib.attach drv_a
      (Tcp.send_request_mailbox w.stacks.(0).Stack.tcp)
      ~mode:Hostlib.Shared_memory ~readers:`Cab
  in
  let recv_h =
    Hostlib.attach drv_b (Tcp.recv_mailbox peer)
      ~mode:Hostlib.Shared_memory ~readers:`Host
  in
  let done_at = ref 0 and started = ref 0 in
  Host.spawn_process (Cab_driver.host drv_b) ~name:"sink" (fun ctx ->
      let received = ref 0 in
      while !received < total do
        let m = Hostlib.begin_get ctx recv_h in
        received := !received + String.length (Hostlib.read_string ctx recv_h m);
        Hostlib.end_get ctx recv_h m
      done;
      done_at := Engine.now w.eng);
  Host.spawn_process (Cab_driver.host drv_a) ~name:"source" (fun ctx ->
      started := Engine.now w.eng;
      let payload = String.make size 't' in
      for _ = 1 to k do
        let m = Hostlib.begin_put ctx send_req (4 + size) in
        Message.set_u32 m 0 (Tcp.conn_id conn);
        Hostlib.write_string ctx send_req m ~pos:4 payload;
        Hostlib.end_put ctx send_req m
      done);
  Engine.run w.eng;
  Stats.Throughput.mbit_per_s ~bytes_moved:total ~elapsed:(!done_at - !started)

(* ---------- network-device mode ---------- *)

let netdev_throughput size =
  let eng, (host_a, nd_a), (host_b, nd_b) = netdev_pair () in
  Netdev.bind nd_a ~port:11;
  Netdev.bind nd_b ~port:10;
  let k = max 40 (min 200 (300_000 / size)) in
  let total = k * size in
  let t0 = ref 0 and t1 = ref 0 in
  Host.spawn_process host_b ~name:"sink" (fun ctx ->
      Host_stream.run_receiver ctx
        (Host_stream.netdev_io nd_b ~peer:0)
        ~data_port:10 ~ack_port:11 ~total);
  Host.spawn_process host_a ~name:"source" (fun ctx ->
      t0 := Engine.now eng;
      let io = Host_stream.netdev_io nd_a ~peer:1 in
      let io = { io with Host_stream.stream_mtu = min size io.Host_stream.stream_mtu } in
      Host_stream.run_sender ctx io ~data_port:10 ~ack_port:11 ~total ();
      t1 := Engine.now eng);
  Engine.run eng;
  Stats.Throughput.mbit_per_s ~bytes_moved:total ~elapsed:(!t1 - !t0)

(* ---------- Ethernet ---------- *)

let ethernet_throughput size =
  let eng = Engine.create () in
  let seg = Ethernet.create eng in
  let ha = Host.create eng ~name:"ha" and hb = Host.create eng ~name:"hb" in
  let sa = Ethernet.attach seg ha and sb = Ethernet.attach seg hb in
  Ethernet.bind sa ~port:11;
  Ethernet.bind sb ~port:10;
  let k = max 40 (min 200 (300_000 / size)) in
  let total = k * size in
  let t0 = ref 0 and t1 = ref 0 in
  Host.spawn_process hb ~name:"sink" (fun ctx ->
      Host_stream.run_receiver ctx
        (Host_stream.ethernet_io sb ~peer:(Ethernet.station_id sa))
        ~data_port:10 ~ack_port:11 ~total);
  Host.spawn_process ha ~name:"source" (fun ctx ->
      t0 := Engine.now eng;
      let io = Host_stream.ethernet_io sa ~peer:(Ethernet.station_id sb) in
      let io = { io with Host_stream.stream_mtu = min size io.Host_stream.stream_mtu } in
      Host_stream.run_sender ctx io ~data_port:10 ~ack_port:11 ~total ();
      t1 := Engine.now eng);
  Engine.run eng;
  Stats.Throughput.mbit_per_s ~bytes_moved:total ~elapsed:(!t1 - !t0)

let run () =
  section "Figure 8: host-to-host throughput (Mbit/s) vs message size";
  Printf.printf "  %-12s %10s %10s %10s %10s\n" "size (bytes)" "TCP/IP" "RMP"
    "netdev" "ethernet";
  Printf.printf "  %-12s %10s %10s %10s %10s\n" "------------" "------" "---"
    "------" "--------";
  List.iter
    (fun size ->
      let tcp = tcp_throughput size in
      let rmp = rmp_throughput size in
      let nd = netdev_throughput size in
      let eth = ethernet_throughput size in
      Printf.printf "  %-12d %10s %10s %10s %10s\n" size (fmt_mbps tcp)
        (fmt_mbps rmp) (fmt_mbps nd) (fmt_mbps eth))
    sizes;
  Printf.printf
    "  paper anchors at 8 KB: RMP ~28, TCP ~24 (VME-bus limited, ~30);\n\
    \  netdev mode 6.4; Ethernet 7.2 (bypasses VME).\n"
