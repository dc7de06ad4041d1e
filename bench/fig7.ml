(* Figure 7: CAB-to-CAB throughput vs message size, for TCP/IP, TCP without
   software checksums, and the Nectar reliable message protocol.

   Paper shape: throughput doubles with message size while per-packet
   overhead dominates (up to ~256 bytes); RMP reaches ~90 of the
   100 Mbit/s physical bandwidth at 8 KB; TCP w/o checksum is close
   behind; full TCP is limited by its software checksums. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Bench_world

let sizes = [ 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]

let message_count size = max 100 (min 600 (1_500_000 / size))

(* ---------- RMP ---------- *)

let rmp_throughput size =
  let w = World.build () in
  let port = 900 in
  let inbox =
    Runtime.create_mailbox w.stacks.(1).Stack.rt ~name:"f7-inbox" ~port
      ~byte_limit:(128 * 1024) ()
  in
  let k = message_count size in
  let done_at = ref 0 in
  spawn_cab_thread w.stacks.(1) ~name:"sink" (fun ctx ->
      for _ = 1 to k do
        let m = Mailbox.begin_get ctx inbox in
        Mailbox.end_get ctx m
      done;
      done_at := Engine.now w.eng);
  let started = ref 0 in
  spawn_cab_thread w.stacks.(0) ~name:"source" (fun ctx ->
      started := Engine.now w.eng;
      let payload = String.make size 'r' in
      for _ = 1 to k do
        Rmp.send_string ctx w.stacks.(0).Stack.rmp
          ~dst_cab:(Stack.node_id w.stacks.(1)) ~dst_port:port payload
      done);
  Engine.run w.eng;
  mbps ~bytes:(k * size) ~ns:(!done_at - !started)

(* ---------- TCP ---------- *)

let tcp_throughput ~checksum size =
  (* mss = message size: one segment per application write, like the
     original implementation the figure measured *)
  let w =
    World.build
      ~stack:(fun rt -> Stack.create rt ~tcp_checksum:checksum ~tcp_mss:size ())
      ()
  in
  let k = message_count size in
  let total = k * size in
  let done_at = ref 0 and started = ref 0 in
  Tcp.listen w.stacks.(1).Stack.tcp ~port:80 ~on_accept:(fun conn ->
      spawn_cab_thread w.stacks.(1) ~name:"sink" (fun ctx ->
          let received = ref 0 in
          while !received < total do
            received := !received + String.length (Tcp.recv_string ctx conn)
          done;
          done_at := Engine.now w.eng));
  spawn_cab_thread w.stacks.(0) ~name:"source" (fun ctx ->
      let conn =
        Tcp.connect ctx w.stacks.(0).Stack.tcp ~dst:(Stack.addr w.stacks.(1))
          ~dst_port:80 ()
      in
      started := Engine.now w.eng;
      let payload = String.make size 't' in
      for _ = 1 to k do
        Tcp.send ctx conn payload
      done);
  Engine.run w.eng;
  mbps ~bytes:total ~ns:(!done_at - !started)

let run () =
  section "Figure 7: CAB-to-CAB throughput (Mbit/s) vs message size";
  row4 "size (bytes)" "TCP/IP" "TCP w/o cksum" "RMP";
  row4 "------------" "------" "-------------" "---";
  List.iter
    (fun size ->
      let tcp = tcp_throughput ~checksum:true size in
      let tcp_nc = tcp_throughput ~checksum:false size in
      let rmp = rmp_throughput size in
      row4 (string_of_int size) (fmt_mbps tcp) (fmt_mbps tcp_nc)
        (fmt_mbps rmp))
    sizes;
  Printf.printf
    "  paper anchors at 8 KB: RMP ~90, TCP w/o cksum slightly below,\n\
    \  TCP/IP below both (software checksum cost); doubling per size\n\
    \  step up to ~256 bytes.\n"
