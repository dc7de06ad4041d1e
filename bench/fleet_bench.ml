(* Fleet-scale bench (beyond the paper — see EXPERIMENTS.md).

   Two sweeps of lib/fleet Driver configurations, driven wire-level
   through the conservative parallel engine and gated point by point:
   delivery totals, per-partition wire conservation, handoff balance,
   crossings, and double-run determinism.

   - fleet: 256/512/1024-CAB torus fleets under synthetic workloads
     (incast fan-in, all-to-all, Zipfian hotspot).  Reported but
     machine-independent: tail latency (p50/p99/max), per-sender goodput
     spread, HUB port contention.
   - scaling: one 64-CAB 8x2 torus swept over 1/2/4/8 domains.  Its
     wall-clock speedup over the single-domain run is recorded, and
     gated only on a machine with >= 4 cores.

   Both record a build footprint (bytes per node of a built, unrun
   world); the fleet smoke gates it against BENCH_perf.json. *)

module Topology = Nectar_fleet.Topology
module Workload = Nectar_fleet.Workload
module Driver = Nectar_fleet.Driver

open Bench_world

(* ---------- fleet points ---------- *)

let pattern_of = function
  | "incast" -> Workload.Incast { sinks = 8 }
  | "all-to-all" -> Workload.All_to_all
  | "hotspot" -> Workload.Hotspot { alpha = 1.1 }
  | p -> invalid_arg ("fleet: unknown pattern " ^ p)

let cfg ~cabs ~pattern ~msgs ~domains =
  let topo =
    match Topology.torus_of_cabs cabs with
    | Some t -> t
    | None -> invalid_arg "fleet: unknown size"
  in
  Driver.config ~domains ~frame_bytes:256 ~topo
    ~workload:
      (Workload.make ~pattern:(pattern_of pattern)
         ~arrivals:(Workload.Closed { think_ns = 20_000 })
         ~msgs_per_node:msgs ~seed:1990)
    ()

type point = {
  cabs : int;
  pattern : string;
  domains : int;
  offered : int;
  wall_s : float;
  delivered : int;
  windows : int;
  crossed : int;
  spread : float;
  lat_p50 : int;
  lat_p99 : int;
  lat_max : int;
  port_waits : int;
  port_wait_us_per_msg : float;
  final_ns : int;
}

let run_point ~check ~pattern (c : Driver.config) ~determinism =
  let t0 = Unix.gettimeofday () in
  let r = Driver.run c in
  let wall = Unix.gettimeofday () -. t0 in
  let cabs = r.Driver.nodes and domains = c.domains in
  let what fmt =
    Printf.ksprintf
      (fun s -> Printf.sprintf "fleet %d/%s/%dd: %s" cabs pattern domains s)
      fmt
  in
  check
    (what "delivered %d/%d" (Driver.delivered r) r.Driver.total_msgs)
    (Driver.delivered r = r.Driver.total_msgs);
  check (what "wire conservation") r.Driver.conserved;
  check
    (what "handoffs balance (%d out, %d in)" (Driver.handed_off r)
       (Driver.injected r))
    (Driver.handed_off r = Driver.injected r);
  if domains > 1 then
    check
      (what "crossings counted (%d)" r.Driver.crossed)
      (r.Driver.crossed = Driver.handed_off r && r.Driver.crossed > 0);
  check (what "fan-in queues on HUB ports") (r.Driver.port_waits > 0);
  if determinism then begin
    let r2 = Driver.run c in
    check (what "double-run determinism") (Driver.deterministic_eq r r2)
  end;
  {
    cabs;
    pattern;
    domains;
    offered = r.Driver.total_msgs;
    wall_s = wall;
    delivered = Driver.delivered r;
    windows = r.Driver.windows;
    crossed = r.Driver.crossed;
    spread = r.Driver.spread;
    lat_p50 = r.Driver.lat_p50;
    lat_p99 = r.Driver.lat_p99;
    lat_max = r.Driver.lat_max;
    port_waits = r.Driver.port_waits;
    port_wait_us_per_msg =
      (if Driver.delivered r = 0 then 0.
       else
         float_of_int r.Driver.port_wait_ns
         /. float_of_int (Driver.delivered r) /. 1e3);
    final_ns = Array.fold_left max 0 r.Driver.finals;
  }

(* ---------- footprint ---------- *)

(* Bytes per node reachable from a built, unrun world.  A heap walk, so
   the figure depends neither on GC timing nor on what earlier runs (and
   their finished domains) left on the heap. *)
let bytes_per_node ~check ~what (c : Driver.config) =
  let nodes = Topology.node_count (Topology.build c.topo) in
  let words = Obj.reachable_words (Obj.repr (Driver.build c)) in
  let b = words * (Sys.word_size / 8) / nodes in
  check (Printf.sprintf "%s %d B/node sane" what b) (b > 0 && b < 2_000_000);
  b

(* Recorded regression point for the fleet smoke: resident bytes per node of
   a built 256-CAB fleet world (BENCH_perf.json "fleet_scale").  Gated at
   1.5x so allocator or world-build regressions fail CI without making
   the gate machine-sensitive. *)
let recorded_bytes_per_node = 1_667

let bytes_per_node_gate ~check ~smoke =
  let b =
    bytes_per_node ~check ~what:"fleet: build footprint"
      (cfg ~cabs:256 ~pattern:"incast" ~msgs:4 ~domains:1)
  in
  if smoke then
    check
      (Printf.sprintf
         "BENCH_perf.json fleet_scale: %d B/node within 1.5x of recorded %d" b
         recorded_bytes_per_node)
      (b <= recorded_bytes_per_node * 3 / 2);
  b

(* ---------- fleet sweep ---------- *)

type result = { r_points : point list; r_bytes_per_node : int; r_cores : int }

let measure ~check ~smoke () =
  let b = bytes_per_node_gate ~check ~smoke in
  let points =
    if smoke then
      [ run_point ~check ~pattern:"incast"
          (cfg ~cabs:256 ~pattern:"incast" ~msgs:4 ~domains:2)
          ~determinism:true ]
    else
      List.concat_map
        (fun (cabs, msgs) ->
          List.map
            (fun pattern ->
              (* the acceptance point: the 1024-CAB world re-runs and
                 must reproduce bit-for-bit *)
              let determinism = cabs = 1024 && pattern = "incast" in
              run_point ~check ~pattern (cfg ~cabs ~pattern ~msgs ~domains:4)
                ~determinism)
            [ "incast"; "all-to-all"; "hotspot" ])
        [ (256, 400); (512, 400); (1024, 400) ]
  in
  {
    r_points = points;
    r_bytes_per_node = b;
    r_cores = Domain.recommended_domain_count ();
  }

let print r =
  Printf.printf
    "  fleet worlds (torus, 4 CABs/hub, closed loop, %d cores):\n" r.r_cores;
  Printf.printf
    "    %5s %-10s %2s %8s %7s %9s %9s %9s %6s %8s\n"
    "cabs" "pattern" "d" "msgs" "wall_s" "p50_us" "p99_us" "max_us" "fair"
    "wait_us";
  List.iter
    (fun p ->
      Printf.printf
        "    %5d %-10s %2d %8d %7.2f %9.1f %9.1f %9.1f %6.2f %8.2f\n"
        p.cabs p.pattern p.domains p.offered p.wall_s
        (float_of_int p.lat_p50 /. 1e3)
        (float_of_int p.lat_p99 /. 1e3)
        (float_of_int p.lat_max /. 1e3)
        p.spread p.port_wait_us_per_msg)
    r.r_points;
  Printf.printf "  build footprint %d B/node\n" r.r_bytes_per_node

let json_fragment r =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "  \"fleet_scale\": {\n\
    \    \"note\": \"wall clock is machine-dependent (this run: %d cores); \
     counts, latencies and fairness are deterministic and asserted\",\n\
    \    \"bytes_per_node\": %d,\n\
    \    \"points\": [\n"
    r.r_cores r.r_bytes_per_node;
  List.iteri
    (fun i p ->
      Printf.bprintf b
        "    { \"cabs\": %d, \"pattern\": \"%s\", \"domains\": %d, \
         \"msgs\": %d, \"wall_s\": %.3f, \"windows\": %d, \"crossings\": %d, \
         \"lat_p50_ns\": %d, \"lat_p99_ns\": %d, \"lat_max_ns\": %d, \
         \"goodput_spread\": %.3f, \"port_waits\": %d, \"final_sim_ms\": \
         %.1f }%s\n"
        p.cabs p.pattern p.domains p.offered p.wall_s p.windows p.crossed
        p.lat_p50 p.lat_p99 p.lat_max p.spread p.port_waits
        (float_of_int p.final_ns /. 1e6)
        (if i = List.length r.r_points - 1 then "" else ","))
    r.r_points;
  Buffer.add_string b "  ] }";
  Buffer.contents b

(* The fleet registry entry. *)
let run ~smoke () =
  let check, checks = collector () in
  section
    (if smoke then
       "Fleet scale (smoke: 256 CABs, conservation + determinism + footprint)"
     else "Fleet scale: 256/512/1024 CABs x incast/all-to-all/hotspot");
  print (measure ~check ~smoke ());
  checks ()

(* ---------- parallel scaling sweep ---------- *)

(* The parallel engine's yardstick: 64 CABs on an 8x2 torus exchanging
   1 KB frames all-to-all, one row block per domain.  The same offered
   load at every domain count; final sim times differ across counts,
   because boundary trunks are store-and-forward. *)
let scaling_rows = 8
let scaling_cols = 2

let scaling_cfg ~msgs ~domains =
  Driver.config ~domains ~frame_bytes:1024
    ~topo:
      (Topology.Torus { rows = scaling_rows; cols = scaling_cols; seats = 4 })
    ~workload:
      (Workload.make ~pattern:Workload.All_to_all
         ~arrivals:(Workload.Closed { think_ns = 31_000 })
         ~msgs_per_node:msgs ~seed:1990)
    ()

type scaling = {
  s_msgs : int;
  s_lookahead_ns : int;
  s_cores : int;
  s_bytes_per_node : int;
  s_points : point list;
}

let speedup s p = (List.hd s.s_points).wall_s /. p.wall_s

let measure_scaling ~check ~smoke () =
  let msgs = if smoke then 4 else 32 in
  let points =
    List.map
      (fun domains ->
        run_point ~check ~pattern:"all-to-all" (scaling_cfg ~msgs ~domains)
          ~determinism:(domains > 1))
      (if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ])
  in
  let c = scaling_cfg ~msgs ~domains:1 in
  let s =
    {
      s_msgs = msgs;
      s_lookahead_ns = c.lookahead_ns;
      s_cores = Domain.recommended_domain_count ();
      s_bytes_per_node =
        bytes_per_node ~check ~what:"scaling: engine footprint" c;
      s_points = points;
    }
  in
  (* The >= 2x-at-4-domains acceptance gate is a statement about parallel
     hardware: on fewer than 4 cores the honest numbers are recorded but
     asserting them would only test the host machine. *)
  List.iter
    (fun p ->
      if p.domains = 4 && s.s_cores >= 4 then
        check
          (Printf.sprintf "scaling: >= 2.0x at 4 domains (%.2fx on %d cores)"
             (speedup s p) s.s_cores)
          (speedup s p >= 2.0))
    points;
  s

let print_scaling s =
  Printf.printf
    "  parallel engine, %d CABs on a %dx%d torus, %d msgs/node (%d cores):\n"
    (List.hd s.s_points).cabs scaling_rows scaling_cols s.s_msgs s.s_cores;
  List.iter
    (fun p ->
      Printf.printf
        "    %d domain%s  %6.3f s wall  %5.2fx  (%d windows, %d crossings)\n"
        p.domains
        (if p.domains = 1 then " " else "s")
        p.wall_s (speedup s p) p.windows p.crossed)
    s.s_points;
  Printf.printf "    engine footprint %d B/node\n" s.s_bytes_per_node

let scaling_json_fragment s =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "  \"scaling\": {\n\
    \    \"note\": \"wall clock and speedup are machine-dependent (this run: \
     %d cores); delivered/windows/crossings are deterministic and asserted\",\n\
    \    \"nodes\": %d, \"torus\": \"%dx%d\", \"msgs_per_node\": %d,\n\
    \    \"lookahead_ns\": %d, \"mem_bytes_per_node\": %d, \"cores\": %d,\n\
    \    \"points\": [\n"
    s.s_cores (List.hd s.s_points).cabs scaling_rows scaling_cols s.s_msgs
    s.s_lookahead_ns s.s_bytes_per_node s.s_cores;
  List.iteri
    (fun i p ->
      Printf.bprintf b
        "    { \"domains\": %d, \"wall_s\": %.3f, \"speedup\": %.2f, \
         \"windows\": %d, \"crossings\": %d, \"delivered\": %d, \
         \"final_sim_ns\": %d }%s\n"
        p.domains p.wall_s (speedup s p) p.windows p.crossed p.delivered
        p.final_ns
        (if i = List.length s.s_points - 1 then "" else ","))
    s.s_points;
  Buffer.add_string b "  ] }";
  Buffer.contents b

(* The parallel registry entry. *)
let run_scaling ~smoke () =
  let check, checks = collector () in
  section
    (if smoke then "Parallel scaling (smoke: 2 domains, determinism gates)"
     else "Parallel scaling: 64-CAB torus over 1/2/4/8 domains");
  print_scaling (measure_scaling ~check ~smoke ());
  checks ()
