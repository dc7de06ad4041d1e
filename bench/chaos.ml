(* Graceful degradation: goodput against injected wire loss for RMP and
   TCP, emitted as JSON (the source for the degradation table in
   EXPERIMENTS.md).

   Each point moves a fixed 256 KB CAB-to-CAB under a seeded per-frame
   drop rate.  Goodput counts only bytes that reached the receiving
   application, over the time of the last arrival; sends that exhaust the
   retry budget surface as typed errors and are counted, not crashed on. *)

open Nectar_sim
open Nectar_proto
open Bench_world
module Chaos = Nectar_chaos.Chaos
module Plan = Nectar_chaos.Chaos.Plan
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

(* Goodput counts from t = 0, so connection set-up is part of it. *)
let point transport drop =
  let w =
    World.build ~stack:(fun rt -> Stack.create rt ~tcp_mss:msg_bytes ()) ()
  in
  drop_faults w drop;
  let a = w.stacks.(0) in
  let r =
    bulk w transport ~host:false ~size:msg_bytes
      ~count:(total_bytes / msg_bytes)
  in
  {
    drop;
    goodput =
      Stats.Throughput.mbit_per_s ~bytes_moved:r.delivered
        ~elapsed:r.last_arrival;
    retx =
      (if transport = Rmp then Rmp.retransmits a.Stack.rmp
       else Tcp.retransmissions a.Stack.tcp);
    errors = r.errors;
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
  let rmp = List.map (point Rmp) rates in
  let tcp = List.map (point Tcp) rates in
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
