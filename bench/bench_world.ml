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
