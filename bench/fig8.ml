(* Figure 8: host-to-host throughput vs message size.

   Paper shape: both Nectar transports flatten against the ~30 Mbit/s VME
   bus — RMP tops out around 28 Mbit/s and TCP around 24 Mbit/s — while the
   network-device mode manages 6.4 Mbit/s and 10 Mbit/s Ethernet 7.2
   (its on-board interface bypasses VME). *)

open Nectar_sim
open Nectar_host
open Bench_world

let sizes = [ 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]

let message_count size = max 60 (min 400 (1_000_000 / size))

(* ---------- network-device mode ---------- *)

let netdev_throughput size =
  let eng, (host_a, nd_a), (host_b, nd_b) = netdev_pair () in
  Netdev.bind nd_a ~port:11;
  Netdev.bind nd_b ~port:10;
  stream_throughput eng ~size
    (host_a, Host_stream.netdev_io nd_a ~peer:1)
    (host_b, Host_stream.netdev_io nd_b ~peer:0)

(* ---------- Ethernet ---------- *)

let ethernet_throughput size =
  let eng = Engine.create () in
  let seg = Ethernet.create eng in
  let ha = Host.create eng ~name:"ha" and hb = Host.create eng ~name:"hb" in
  let sa = Ethernet.attach seg ha and sb = Ethernet.attach seg hb in
  Ethernet.bind sa ~port:11;
  Ethernet.bind sb ~port:10;
  stream_throughput eng ~size
    (ha, Host_stream.ethernet_io sa ~peer:(Ethernet.station_id sb))
    (hb, Host_stream.ethernet_io sb ~peer:(Ethernet.station_id sa))

let run () =
  section "Figure 8: host-to-host throughput (Mbit/s) vs message size";
  Printf.printf "  %-12s %10s %10s %10s %10s\n" "size (bytes)" "TCP/IP" "RMP"
    "netdev" "ethernet";
  Printf.printf "  %-12s %10s %10s %10s %10s\n" "------------" "------" "---"
    "------" "--------";
  List.iter
    (fun size ->
      let count = message_count size in
      let tcp = Fig7.throughput ~host:true Tcp ~checksum:true ~size ~count in
      let rmp = Fig7.throughput ~host:true Rmp ~checksum:true ~size ~count in
      let nd = netdev_throughput size in
      let eth = ethernet_throughput size in
      Printf.printf "  %-12d %10s %10s %10s %10s\n" size (fmt_mbps tcp)
        (fmt_mbps rmp) (fmt_mbps nd) (fmt_mbps eth))
    sizes;
  Printf.printf
    "  paper anchors at 8 KB: RMP ~28, TCP ~24 (VME-bus limited, ~30);\n\
    \  netdev mode 6.4; Ethernet 7.2 (bypasses VME).\n"
