(* Graceful degradation: goodput against injected wire loss for RMP and
   TCP, emitted as JSON (the source for the degradation table in
   EXPERIMENTS.md).

   Each point moves a fixed 256 KB CAB-to-CAB under a seeded per-frame
   drop rate.  Goodput counts only bytes that reached the receiving
   application, over the time of the last arrival; sends that exhaust the
   retry budget surface as typed errors and are counted, not crashed on. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
module Chaos = Nectar_chaos.Chaos
module Plan = Nectar_chaos.Chaos.Plan
module World = Nectar_fleet.World
let seed = 1990
let rates = [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2 ]
let msg_bytes = 4096
let total_bytes = 256 * 1024

type point = { drop : float; goodput : float; retx : int; errors : int }

let drop_faults w drop =
  Chaos.install w
    {
      Plan.seed;
      steps =
        [
          Plan.step Sim_time.zero
            (Plan.Wire_faults { drop; corrupt = 0.0; burst = 1 });
        ];
    }

let rmp_point drop =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  drop_faults w drop;
  let k = total_bytes / msg_bytes in
  let received = ref 0 and last_rx = ref 1 in
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"chaos-bench-sink" ~port:900
      ~byte_limit:(128 * 1024) ()
  in
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"sink" (fun ctx ->
         while true do
           let m = Mailbox.begin_get ctx inbox in
           Mailbox.end_get ctx m;
           incr received;
           last_rx := Engine.now w.eng
         done));
  let errors = ref 0 in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"source" (fun ctx ->
         let payload = String.make msg_bytes 'r' in
         for _ = 1 to k do
           match
             Rmp.send_string ctx a.Stack.rmp ~dst_cab:(Stack.node_id b)
               ~dst_port:900 payload
           with
           | () -> ()
           | exception Rmp.Delivery_timeout _ -> incr errors
         done));
  Engine.run w.eng;
  {
    drop;
    goodput =
      Stats.Throughput.mbit_per_s ~bytes_moved:(!received * msg_bytes)
        ~elapsed:!last_rx;
    retx = Rmp.retransmits a.Stack.rmp;
    errors = !errors;
  }

let tcp_point drop =
  let w =
    World.build ~stack:(fun rt -> Stack.create rt ~tcp_mss:msg_bytes ()) ()
  in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  drop_faults w drop;
  let k = total_bytes / msg_bytes in
  let received = ref 0 and last_rx = ref 1 in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      ignore
        (Thread.create (Runtime.cab b.Stack.rt) ~name:"sink" (fun ctx ->
             while !received < total_bytes do
               received := !received + String.length (Tcp.recv_string ctx conn);
               last_rx := Engine.now w.eng
             done)));
  let errors = ref 0 in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"source" (fun ctx ->
         let conn =
           Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 ()
         in
         let payload = String.make msg_bytes 't' in
         try
           for _ = 1 to k do
             Tcp.send ctx conn payload
           done
         with Tcp.Connection_timed_out | Tcp.Connection_reset -> incr errors));
  Engine.run w.eng;
  {
    drop;
    goodput =
      Stats.Throughput.mbit_per_s ~bytes_moved:!received ~elapsed:!last_rx;
    retx = Tcp.retransmissions a.Stack.tcp;
    errors = !errors;
  }

let json_points points =
  String.concat ","
    (List.map
       (fun p ->
         Printf.sprintf
           "\n      {\"drop\":%g,\"goodput_mbit_s\":%.2f,\"retransmits\":%d,\"errors\":%d}"
           p.drop p.goodput p.retx p.errors)
       points)

let run () =
  let rmp = List.map rmp_point rates in
  let tcp = List.map tcp_point rates in
  Printf.printf
    "{\n\
    \  \"experiment\": \"chaos-degradation\",\n\
    \  \"seed\": %d,\n\
    \  \"transfer_bytes\": %d,\n\
    \  \"message_bytes\": %d,\n\
    \  \"series\": [\n\
    \    {\"protocol\": \"rmp\", \"points\": [%s]},\n\
    \    {\"protocol\": \"tcp\", \"points\": [%s]}\n\
    \  ]\n\
     }\n"
    seed total_bytes msg_bytes (json_points rmp) (json_points tcp)
