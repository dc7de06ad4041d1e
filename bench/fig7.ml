(* Figure 7: CAB-to-CAB throughput vs message size, for TCP/IP, TCP without
   software checksums, and the Nectar reliable message protocol.

   Paper shape: throughput doubles with message size while per-packet
   overhead dominates (up to ~256 bytes); RMP reaches ~90 of the
   100 Mbit/s physical bandwidth at 8 KB; TCP w/o checksum is close
   behind; full TCP is limited by its software checksums. *)

open Bench_world

let sizes = [ 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]

let message_count size = max 100 (min 600 (1_500_000 / size))

(* Mbit/s of [count] [size]-byte messages from stack 0 to stack 1, from
   the first send to the last arrival, between CAB threads or, with
   [host], host processes (Figure 8).  TCP runs with mss = message size:
   one segment per application write, like the original implementation
   the figures measured. *)
let throughput ~host transport ~checksum ~size ~count =
  let w =
    World.build
      ~stack:(fun rt ->
        Nectar_proto.Stack.create rt ~tcp_checksum:checksum ~tcp_mss:size ())
      ()
  in
  goodput (bulk w transport ~host ~size ~count)

let run () =
  section "Figure 7: CAB-to-CAB throughput (Mbit/s) vs message size";
  row4 "size (bytes)" "TCP/IP" "TCP w/o cksum" "RMP";
  row4 "------------" "------" "-------------" "---";
  List.iter
    (fun size ->
      let count = message_count size in
      let tcp = throughput ~host:false Tcp ~checksum:true ~size ~count in
      let tcp_nc = throughput ~host:false Tcp ~checksum:false ~size ~count in
      let rmp = throughput ~host:false Rmp ~checksum:true ~size ~count in
      row4 (string_of_int size) (fmt_mbps tcp) (fmt_mbps tcp_nc)
        (fmt_mbps rmp))
    sizes;
  Printf.printf
    "  paper anchors at 8 KB: RMP ~90, TCP w/o cksum slightly below,\n\
    \  TCP/IP below both (software checksum cost); doubling per size\n\
    \  step up to ~256 bytes.\n"
