(* Shared world builders and measurement helpers for the paper-reproduction
   benches.  Each bench builds a fresh simulation, runs a workload, and
   reports simulated time — absolute hardware truth comes from the cost
   model in Nectar_cab.Costs (see DESIGN.md section 5). *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
module Net = Nectar_hub.Network
module Cab = Nectar_cab.Cab

type cab_world = {
  eng : Engine.t;
  net : Net.t;
  stack_a : Stack.t;
  stack_b : Stack.t;
}

let cab_pair ?tcp_checksum ?tcp_mss ?tcp_input_mode ?rmp_window ?rmp_ack_delay
    () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let make i =
    let cab = Cab.create net ~hub:0 ~port:i ~name:(Printf.sprintf "cab%d" i) in
    Stack.create (Runtime.create cab) ?tcp_checksum ?tcp_mss ?tcp_input_mode
      ?rmp_window ?rmp_ack_delay ()
  in
  let stack_a = make 0 in
  let stack_b = make 1 in
  { eng; net; stack_a; stack_b }

type host_world = {
  heng : Engine.t;
  hnet : Net.t;
  hstack_a : Stack.t;
  hstack_b : Stack.t;
  host_a : Host.t;
  host_b : Host.t;
  drv_a : Cab_driver.t;
  drv_b : Cab_driver.t;
}

let host_pair ?tcp_checksum ?tcp_mss () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let make i =
    let cab = Cab.create net ~hub:0 ~port:i ~name:(Printf.sprintf "cab%d" i) in
    let rt = Runtime.create cab in
    let stack = Stack.create rt ?tcp_checksum ?tcp_mss () in
    let host = Host.create eng ~name:(Printf.sprintf "host%d" i) in
    let drv = Cab_driver.attach host rt in
    (stack, host, drv)
  in
  let stack_a, host_a, drv_a = make 0 in
  let stack_b, host_b, drv_b = make 1 in
  { heng = eng; hnet = net; hstack_a = stack_a; hstack_b = stack_b;
    host_a; host_b; drv_a; drv_b }

let spawn_cab_thread stack ~name body =
  ignore
    (Thread.create (Runtime.cab stack.Stack.rt) ~priority:Thread.System ~name
       body)

(* ---------- checks ---------- *)

(* The one assertion sink of the gated benches: a failed check prints
   its message, and [finish] turns any failure into exit status 1. *)
let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "  FAIL: %s\n" what
  end

let finish name =
  if !failures > 0 then begin
    Printf.printf "  %s: %d check(s) FAILED\n" name !failures;
    exit 1
  end
  else Printf.printf "  %s: all deterministic checks passed\n" name

(* ---------- formatting ---------- *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row4 a b c d = Printf.printf "  %-26s %14s %14s %14s\n" a b c d

let fmt_us ns = Printf.sprintf "%.0f us" (Sim_time.to_us ns)
let fmt_mbps v = Printf.sprintf "%.1f" v

let mbps ~bytes ~ns = Stats.Throughput.mbit_per_s ~bytes_moved:bytes ~elapsed:ns
