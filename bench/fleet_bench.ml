(* Fleet-scale bench (beyond the paper — see EXPERIMENTS.md).

   256/512/1024-CAB torus fleets under synthetic workloads (incast
   fan-in, all-to-all, Zipfian hotspot), driven wire-level through the
   conservative parallel engine by lib/fleet.  Deterministic and gated:
   delivery totals, per-partition wire conservation, handoff balance,
   and double-run determinism on the 1024-CAB world.  Reported but
   machine-independent: tail latency (p50/p99/max), per-sender goodput
   spread, HUB port contention.  perf-smoke re-gates the recorded
   build footprint (bytes per node). *)

module Topology = Nectar_fleet.Topology
module Workload = Nectar_fleet.Workload
module Driver = Nectar_fleet.Driver

(* ---------- fleet points ---------- *)

let torus_for cabs =
  match cabs with
  | 256 -> Topology.Torus { rows = 8; cols = 8; seats = 4 }
  | 512 -> Topology.Torus { rows = 16; cols = 8; seats = 4 }
  | 1024 -> Topology.Torus { rows = 16; cols = 16; seats = 4 }
  | _ -> invalid_arg "fleet: unknown size"

let pattern_of = function
  | "incast" -> Workload.Incast { sinks = 8 }
  | "all-to-all" -> Workload.All_to_all
  | "hotspot" -> Workload.Hotspot { alpha = 1.1 }
  | p -> invalid_arg ("fleet: unknown pattern " ^ p)

let cfg ~cabs ~pattern ~msgs ~domains =
  Driver.config ~domains ~frame_bytes:256 ~topo:(torus_for cabs)
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
  final_ms : float;
}

let run_point ~check ~cabs ~pattern ~msgs ~domains ~determinism =
  let c = cfg ~cabs ~pattern ~msgs ~domains in
  let t0 = Unix.gettimeofday () in
  let r = Driver.run c in
  let wall = Unix.gettimeofday () -. t0 in
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
    final_ms =
      float_of_int (Array.fold_left max 0 r.Driver.finals) /. 1e6;
  }

(* ---------- footprint gate ---------- *)

(* Recorded regression point for perf-smoke: resident bytes per node of
   a built 256-CAB fleet world (BENCH_perf.json "fleet_scale").  Gated at
   1.5x so allocator or world-build regressions fail CI without making
   the gate machine-sensitive. *)
let recorded_bytes_per_node = 1_670

let bytes_per_node_gate ~check ~smoke =
  let c = cfg ~cabs:256 ~pattern:"incast" ~msgs:4 ~domains:1 in
  let b = Driver.build_bytes_per_node c in
  check
    (Printf.sprintf "fleet: build footprint %d B/node sane" b)
    (b > 0 && b < 2_000_000);
  if smoke then
    check
      (Printf.sprintf
         "BENCH_perf.json fleet_scale: %d B/node within 1.5x of recorded %d" b
         recorded_bytes_per_node)
      (b <= recorded_bytes_per_node * 3 / 2);
  b

(* ---------- sweep ---------- *)

type result = { r_points : point list; r_bytes_per_node : int; r_cores : int }

let measure ~smoke ~check () =
  (* measured first, on a heap no finished domain has touched *)
  let b = bytes_per_node_gate ~check ~smoke in
  let points =
    if smoke then
      [ run_point ~check ~cabs:256 ~pattern:"incast" ~msgs:4 ~domains:2
          ~determinism:true ]
    else
      List.concat_map
        (fun (cabs, msgs) ->
          List.map
            (fun pattern ->
              (* the acceptance point: the 1024-CAB world re-runs and
                 must reproduce bit-for-bit *)
              let determinism = cabs = 1024 && pattern = "incast" in
              run_point ~check ~cabs ~pattern ~msgs ~domains:4 ~determinism)
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
        p.lat_p50 p.lat_p99 p.lat_max p.spread p.port_waits p.final_ms
        (if i = List.length r.r_points - 1 then "" else ","))
    r.r_points;
  Buffer.add_string b "  ] }";
  Buffer.contents b

(* Standalone experiment (the @fleet CI alias runs the smoke form). *)
let run ~smoke () =
  Bench_world.section
    (if smoke then
       "Fleet scale (smoke: 256 CABs, conservation + determinism + footprint)"
     else "Fleet scale: 256/512/1024 CABs x incast/all-to-all/hotspot");
  let failures = ref 0 in
  let check what ok =
    if not ok then begin
      incr failures;
      Printf.printf "  FAIL: %s\n" what
    end
  in
  let r = measure ~smoke ~check () in
  print r;
  if !failures > 0 then begin
    Printf.printf "  fleet: %d check(s) FAILED\n" !failures;
    exit 1
  end
  else Printf.printf "  fleet: all deterministic checks passed\n"
