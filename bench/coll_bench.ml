(* Collectives bench (beyond the paper — see EXPERIMENTS.md).

   CAB-resident barrier/reduce/broadcast over the lib/coll spanning tree
   versus the host-driven baseline (every participant's arrival crosses
   to the host at the root), on 64/256/1024-CAB torus fleets.  All
   latencies are simulated and deterministic — pure functions of the
   cost model — so the smoke form gates them in CI:

   - the tree path wakes the host exactly once per operation (the
     baseline exactly once per participant), asserted from the root
     runtime's notification count;
   - the tree path's barrier p99 beats the baseline's at every size;
   - the recorded 64-CAB tree barrier p50 reproduces exactly;
   - the CAB data memory backed per CAB after the run stays within 1.5x
     of the recorded 1024-CAB figure;
   - every node completes every operation.

   The root's per-operation critical path is also span-traced
   ("coll.op" / "coll.host_op" on the root's track) and the mean span
   must agree with the measured latencies. *)

open Nectar_sim
open Nectar_core
module Coll = Nectar_coll.Coll
module Tree = Nectar_coll.Coll.Tree
module Topology = Nectar_fleet.Topology
module Stack = Nectar_proto.Stack

open Bench_world

let torus_for cabs =
  match Topology.torus_of_cabs cabs with
  | Some t -> t
  | None -> invalid_arg "coll: unknown size"

type point = {
  cabs : int;
  mode : string; (* "tree" | "host" *)
  ops : int;
  depth : int;
  fanout : int;
  wakeups : int;
  b_p50_us : float;
  b_p99_us : float;
  r_p50_us : float;
  r_p99_us : float;
  c_p50_us : float;
  c_p99_us : float;
  span_mean_us : float;
  cab_mem_bytes : int; (* data-memory bytes backed per CAB after the run *)
  wall_s : float;
}

let pct s p = Nectar_util.Summary.percentile s p /. 1e3

(* Mean duration of the completed [label] spans in the tracer ring. *)
let span_mean_us tracer label =
  let durations =
    List.filter_map
      (fun (sp : Trace.span) ->
        if sp.s_label = label then Some (sp.s_end - sp.s_begin) else None)
      (Trace.spans tracer)
  in
  match durations with
  | [] -> 0.
  | _ ->
      float_of_int (List.fold_left ( + ) 0 durations)
      /. float_of_int (List.length durations)
      /. 1e3

(* Under [verbose], the tree run also dumps the root stack's metrics
   registry (the coll service counters included). *)
let run_point ~check ?(verbose = false) ~cabs ~ops ~host () =
  let w = Coll.World.build (torus_for cabs) in
  let n = Array.length w.Coll.World.colls in
  let root = Tree.root w.Coll.World.tree in
  (* Span-trace the root's critical path.  Every layer under the
     collective also emits events once a tracer is installed, so tracing
     the whole run would wrap the ring and evict the "coll.op" begins;
     instead the root installs the tracer for the final iteration only —
     zero simulated cost, so the measured latencies are unchanged. *)
  (* the ring must hold one full iteration of every layer's events even
     at 1024 CABs (~4k frames/op, dozens of events each) *)
  let tracer = Trace.create ~capacity:(1 lsl 20) w.Coll.World.eng in
  let t0 = Unix.gettimeofday () in
  let b_lat, r_lat, c_lat = Coll.World.run ~tracer w ~ops ~host in
  let wall = Unix.gettimeofday () -. t0 in
  let backed =
    Array.fold_left
      (fun acc st ->
        acc
        + Nectar_cab.Memory.resident_bytes
            (Nectar_cab.Cab.memory (Runtime.cab st.Stack.rt)))
      0 w.Coll.World.stacks
  in
  let mode = if host then "host" else "tree" in
  let what fmt =
    Printf.ksprintf
      (fun s -> Printf.sprintf "coll %d/%s: %s" cabs mode s)
      fmt
  in
  if verbose && not host then begin
    let reg = Nectar_util.Metrics.create () in
    Stack.register_metrics w.Coll.World.stacks.(root) reg;
    Printf.printf "  %d-CAB tree, root metrics:\n" cabs;
    Nectar_util.Metrics.dump reg
  end;
  let wakeups = Runtime.host_notifications w.Coll.World.stacks.(root).Stack.rt in
  let per_op = 3 * ops in
  if host then
    check
      (what "one wakeup per participant per op (%d)" wakeups)
      (wakeups = per_op * n)
  else
    check (what "exactly one wakeup per op (%d)" wakeups) (wakeups = per_op);
  Array.iteri
    (fun i st ->
      if i <> root then
        check
          (what "no wakeups off the root")
          (Runtime.host_notifications st.Stack.rt = 0))
    w.Coll.World.stacks;
  check
    (what "every node completed %d ops" per_op)
    (Array.for_all (fun c -> Coll.ops_completed c = per_op) w.Coll.World.colls);
  let sp =
    span_mean_us tracer (if host then "coll.host_op" else "coll.op")
  in
  (* every timed primitive contributes to the span population, so the
     traced critical path must bracket the per-primitive medians *)
  check
    (what "span mean %.1f us consistent with latencies" sp)
    (sp > 0.
    && sp >= (pct b_lat 0.5 /. 2.)
    && sp <= 2. *. Float.max (pct c_lat 0.99) (Float.max (pct b_lat 0.99) (pct r_lat 0.99)));
  {
    cabs;
    mode;
    ops;
    depth = Tree.max_depth w.Coll.World.tree;
    fanout = Tree.max_fanout w.Coll.World.tree;
    wakeups;
    b_p50_us = pct b_lat 0.5;
    b_p99_us = pct b_lat 0.99;
    r_p50_us = pct r_lat 0.5;
    r_p99_us = pct r_lat 0.99;
    c_p50_us = pct c_lat 0.5;
    c_p99_us = pct c_lat 0.99;
    span_mean_us = sp;
    cab_mem_bytes = backed / n;
    wall_s = wall;
  }

(* Recorded regression point for the coll smoke (BENCH_perf.json
   "collectives"): the 64-CAB tree barrier p50, simulated and
   deterministic, asserted exactly. *)
let recorded_tree_barrier_p50_us_64 = 236.3

(* Recorded regression point for the coll smoke (BENCH_perf.json
   "collectives"): CAB data memory backed per CAB after a 1024-CAB run.
   The figure is per CAB, so the 64-CAB smoke points are held to it too;
   gated at 1.5x like the fleet build footprint. *)
let recorded_cab_mem_bytes_per_cab = 4096

type result = { r_points : point list }

let measure ~check ?verbose ~smoke () =
  let ops = if smoke then 3 else 10 in
  let sizes = if smoke then [ 64 ] else [ 64; 256; 1024 ] in
  let points =
    List.concat_map
      (fun cabs ->
        let tree = run_point ~check ?verbose ~cabs ~ops ~host:false () in
        let host = run_point ~check ~cabs ~ops ~host:true () in
        (* the headline claim: combining on the CABs beats hauling every
           arrival across the VME boundary, and the gap grows with n *)
        check
          (Printf.sprintf
             "coll %d: tree barrier p99 %.1f us < host %.1f us" cabs
             tree.b_p99_us host.b_p99_us)
          (tree.b_p99_us < host.b_p99_us);
        [ tree; host ])
      sizes
  in
  if smoke then
    List.iter
      (fun p ->
        check
          (Printf.sprintf
             "BENCH_perf.json collectives: %d-CAB %s run backs %d B of CAB \
              memory per CAB, within 1.5x of recorded %d"
             p.cabs p.mode p.cab_mem_bytes recorded_cab_mem_bytes_per_cab)
          (p.cab_mem_bytes <= recorded_cab_mem_bytes_per_cab * 3 / 2);
        if p.cabs = 64 && p.mode = "tree" then
          check
            (Printf.sprintf
               "BENCH_perf.json collectives: 64-CAB tree barrier p50 %.1f us \
                (recorded %.1f)"
               p.b_p50_us recorded_tree_barrier_p50_us_64)
            (Float.round (p.b_p50_us *. 10.) /. 10.
            = recorded_tree_barrier_p50_us_64))
      points;
  { r_points = points }

let print r =
  Printf.printf
    "  collectives (torus, 4 CABs/hub; latencies simulated at the root):\n";
  Printf.printf "    %5s %-5s %3s %3s %9s %9s %9s %9s %9s %8s\n" "cabs" "mode"
    "dep" "fan" "bar_p50" "bar_p99" "red_p99" "bc_p99" "span_us" "wakeups";
  List.iter
    (fun p ->
      Printf.printf
        "    %5d %-5s %3d %3d %9.1f %9.1f %9.1f %9.1f %9.1f %8d\n" p.cabs
        p.mode p.depth p.fanout p.b_p50_us p.b_p99_us p.r_p99_us p.c_p99_us
        p.span_mean_us p.wakeups)
    r.r_points;
  Printf.printf "    cab_mem_bytes_per_cab (backed after the run): %s\n"
    (String.concat ", "
       (List.map
          (fun p -> Printf.sprintf "%d/%s %d" p.cabs p.mode p.cab_mem_bytes)
          r.r_points))

let json_fragment r =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "  \"collectives\": {\n\
    \    \"note\": \"CAB-resident spanning-tree collectives vs host-driven \
     baseline; simulated, deterministic, smoke-gated (single wakeup per op, \
     tree p99 < host p99)\",\n\
    \    \"points\": [\n";
  List.iteri
    (fun i p ->
      Printf.bprintf b
        "    { \"cabs\": %d, \"mode\": \"%s\", \"ops\": %d, \"depth\": %d, \
         \"fanout\": %d, \"host_wakeups\": %d, \"barrier_p50_us\": %.1f, \
         \"barrier_p99_us\": %.1f, \"reduce_p50_us\": %.1f, \
         \"reduce_p99_us\": %.1f, \"bcast_p50_us\": %.1f, \"bcast_p99_us\": \
         %.1f, \"root_span_mean_us\": %.1f, \"cab_mem_bytes_per_cab\": %d \
         }%s\n"
        p.cabs p.mode p.ops p.depth p.fanout p.wakeups p.b_p50_us p.b_p99_us
        p.r_p50_us p.r_p99_us p.c_p50_us p.c_p99_us p.span_mean_us
        p.cab_mem_bytes
        (if i = List.length r.r_points - 1 then "" else ","))
    r.r_points;
  Buffer.add_string b "  ] }";
  Buffer.contents b

(* The coll registry entry. *)
let run ?verbose ~smoke () =
  let check, checks = collector () in
  section
    (if smoke then
       "Collectives (smoke: 64 CABs, wakeup + latency + span gates)"
     else "Collectives: 64/256/1024 CABs, tree vs host-driven baseline");
  print (measure ~check ?verbose ~smoke ());
  checks ()
