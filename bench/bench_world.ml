(* Shared measurement helpers for the paper-reproduction benches.  Each
   bench builds a fresh World, runs a workload, and reports simulated
   time — absolute hardware truth comes from the cost
   model in Nectar_cab.Costs (see DESIGN.md section 5). *)

open Nectar_sim
open Nectar_core
open Nectar_proto
module World = Nectar_fleet.World

let spawn_cab_thread stack ~name body =
  ignore
    (Thread.create (Runtime.cab stack.Stack.rt) ~priority:Thread.System ~name
       body)

(* ---------- checks ---------- *)

(* A gate's typed verdict on one claim.  The gated benches return lists
   of these; the scenario registry's runner prints the failed ones and
   owns the exit status. *)
type check = { msg : string; ok : bool }

let check msg ok = { msg; ok }

(* A gate's checks in the order it makes them: the function that records
   one, and the function that lists those recorded so far. *)
let collector () =
  let acc = ref [] in
  ((fun msg ok -> acc := check msg ok :: !acc), fun () -> List.rev !acc)

(* ---------- formatting ---------- *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row4 a b c d = Printf.printf "  %-26s %14s %14s %14s\n" a b c d

let fmt_us ns = Printf.sprintf "%.0f us" (Sim_time.to_us ns)
let fmt_mbps v = Printf.sprintf "%.1f" v

let mbps ~bytes ~ns = Stats.Throughput.mbit_per_s ~bytes_moved:bytes ~elapsed:ns
