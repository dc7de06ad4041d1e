(* The fleet layer (lib/fleet): topology generator properties
   (connectivity, degree, diameter, verifier acceptance across seeds), a
   pinned small-torus route table, workload determinism and shape, and
   the wire-level driver's conservation/determinism gates. *)

open Nectar_sim
module Net = Nectar_hub.Network
module Frame = Nectar_hub.Frame
module Router = Nectar_route.Router
module Topology = Nectar_fleet.Topology
module Workload = Nectar_fleet.Workload
module Driver = Nectar_fleet.Driver
module World = Nectar_fleet.World

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- topology helpers ---------- *)

(* Walk [route] over the trunk list from src's hub; it must cross real
   trunk ports and end by naming dst's seat on dst's hub. *)
let route_reaches topo ~src ~dst =
  let port_map = Hashtbl.create 64 in
  List.iter
    (fun ((ha, pa), (hb, pb)) ->
      Hashtbl.replace port_map (ha, pa) hb;
      Hashtbl.replace port_map (hb, pb) ha)
    (Topology.trunks topo);
  let dst_hub, dst_port = Topology.attachment topo dst in
  let rec walk hub = function
    | [] -> false
    | [ p ] -> hub = dst_hub && p = dst_port
    | p :: rest -> (
        match Hashtbl.find_opt port_map (hub, p) with
        | Some peer -> walk peer rest
        | None -> false)
  in
  walk (fst (Topology.attachment topo src)) (Topology.route topo ~src ~dst)

let connected topo =
  let hubs = Topology.hub_count topo in
  let adj = Array.make hubs [] in
  List.iter
    (fun ((ha, _), (hb, _)) ->
      adj.(ha) <- hb :: adj.(ha);
      adj.(hb) <- ha :: adj.(hb))
    (Topology.trunks topo);
  let seen = Array.make hubs false in
  let rec dfs h =
    if not seen.(h) then begin
      seen.(h) <- true;
      List.iter dfs adj.(h)
    end
  in
  dfs 0;
  Array.for_all (fun b -> b) seen

let trunk_degree topo =
  let deg = Array.make (Topology.hub_count topo) 0 in
  List.iter
    (fun ((ha, _), (hb, _)) ->
      deg.(ha) <- deg.(ha) + 1;
      deg.(hb) <- deg.(hb) + 1)
    (Topology.trunks topo);
  deg

let some_pairs nodes =
  (* a deterministic spread of pairs, enough to cover every hub *)
  List.concat_map
    (fun s ->
      List.filter_map
        (fun d -> if s <> d then Some (s, d) else None)
        [ 0; nodes / 3; nodes / 2; nodes - 1 ])
    [ 0; 1; nodes / 2; nodes - 1 ]
  |> List.sort_uniq Stdlib.compare

(* ---------- torus ---------- *)

let test_torus_shape () =
  let topo = Topology.build (Topology.Torus { rows = 4; cols = 3; seats = 2 }) in
  check_int "hubs" 12 (Topology.hub_count topo);
  check_int "nodes" 24 (Topology.node_count topo);
  check_bool "connected" true (connected topo);
  (* wrapped grid: every hub has exactly 4 trunk endpoints *)
  Array.iteri
    (fun h d -> check_int (Printf.sprintf "hub %d degree" h) 4 d)
    (trunk_degree topo);
  List.iter
    (fun (src, dst) ->
      check_bool
        (Printf.sprintf "route %d->%d reaches" src dst)
        true
        (route_reaches topo ~src ~dst))
    (some_pairs (Topology.node_count topo));
  (* e-cube is no-wrap dimension-ordered: length = |dr| + |dc| + 1 *)
  List.iter
    (fun (src, dst) ->
      let sh, _ = Topology.attachment topo src
      and dh, _ = Topology.attachment topo dst in
      let dr = abs ((sh / 3) - (dh / 3)) and dc = abs ((sh mod 3) - (dh mod 3)) in
      check_int
        (Printf.sprintf "route %d->%d length" src dst)
        (dr + dc + 1)
        (List.length (Topology.route topo ~src ~dst)))
    (some_pairs (Topology.node_count topo))

(* The pinned table: a 2x2 torus with 2 seats per hub, every route of a
   representative pair set written out by hand.  Hub layout:
     0 1
     2 3     east = port 15 (into 14), south = 13 (into 12). *)
let test_torus_pinned_routes () =
  let topo = Topology.build (Topology.Torus { rows = 2; cols = 2; seats = 2 }) in
  let expect =
    [
      (0, 1, [ 1 ]); (* same hub: dst seat only *)
      (0, 2, [ 15; 0 ]); (* hub 0 -> hub 1: east *)
      (0, 7, [ 15; 13; 1 ]); (* hub 0 -> hub 3: east then south *)
      (0, 4, [ 13; 0 ]); (* hub 0 -> hub 2: south *)
      (6, 0, [ 14; 12; 0 ]); (* hub 3 -> hub 0: west then north *)
      (4, 1, [ 12; 1 ]); (* hub 2 -> hub 0: north *)
      (3, 0, [ 14; 0 ]); (* hub 1 -> hub 0: west *)
    ]
  in
  List.iter
    (fun (src, dst, ports) ->
      Alcotest.(check (list int))
        (Printf.sprintf "route %d->%d" src dst)
        ports
        (Topology.route topo ~src ~dst))
    expect

(* ---------- fat tree ---------- *)

let test_fat_tree_shape () =
  let topo =
    Topology.build (Topology.Fat_tree { leaves = 4; spines = 2; seats = 3 })
  in
  check_int "hubs" 6 (Topology.hub_count topo);
  check_int "nodes" 12 (Topology.node_count topo);
  check_int "trunks" 8 (List.length (Topology.trunks topo));
  check_bool "connected" true (connected topo);
  let nodes = Topology.node_count topo in
  for src = 0 to nodes - 1 do
    for dst = 0 to nodes - 1 do
      if src <> dst then begin
        check_bool
          (Printf.sprintf "route %d->%d reaches" src dst)
          true
          (route_reaches topo ~src ~dst);
        let sh, _ = Topology.attachment topo src
        and dh, _ = Topology.attachment topo dst in
        check_int
          (Printf.sprintf "route %d->%d length" src dst)
          (if sh = dh then 1 else 3)
          (List.length (Topology.route topo ~src ~dst))
      end
    done
  done

(* ---------- irregular meshes across seeds ---------- *)

let test_irregular_seeds () =
  for seed = 0 to 19 do
    let hubs = 4 + (seed mod 9) in
    let degree = 2 + (seed mod 3) in
    let seats = 1 + (seed mod 2) in
    let topo =
      Topology.build (Topology.Irregular { hubs; degree; seed; seats })
    in
    let what fmt = Printf.sprintf ("seed %d: " ^^ fmt) seed in
    check_bool (what "connected") true (connected topo);
    check_bool
      (what "spanning tree present")
      true
      (List.length (Topology.trunks topo) >= hubs - 1);
    (* port budget: trunk degree never eats into the seat band *)
    Array.iteri
      (fun h d ->
        check_bool (what "hub %d port budget" h) true (d <= 16 - seats))
      (trunk_degree topo);
    (* identical seed, identical fabric *)
    let again =
      Topology.build (Topology.Irregular { hubs; degree; seed; seats })
    in
    check_bool
      (what "pure function of seed")
      true
      (Topology.trunks topo = Topology.trunks again);
    List.iter
      (fun (src, dst) ->
        check_bool
          (what "route %d->%d reaches" src dst)
          true
          (route_reaches topo ~src ~dst))
      (some_pairs (Topology.node_count topo))
  done

(* ---------- verifier acceptance ---------- *)

let null_sink eng name =
  let fifo = Byte_fifo.create eng ~capacity:4096 ~name in
  {
    Net.in_fifo = fifo;
    on_frame_start = (fun _ -> ());
    on_chunk =
      (fun frame ~arrived:_ ~last ->
        if last then begin
          ignore (Byte_fifo.try_pop fifo (Frame.length frame));
          Frame.release frame
        end);
  }

(* Every generated policy must pass the route verifier (reachability,
   loop freedom, no stale routes) on its own fabric, and the compiled
   lookups must agree with the generator's own routes where the policy
   pins them (torus e-cube, irregular static). *)
let test_policies_verify () =
  List.iter
    (fun (name, spec, pinned) ->
      let topo = Topology.build spec in
      let eng = Engine.create () in
      let net = Net.create eng ~hubs:(Topology.hub_count topo) () in
      Topology.wire net topo;
      Topology.attach_all topo net (fun n ->
          null_sink eng (Printf.sprintf "%s%d" name n));
      let r = Router.create ~policy:(Topology.policy topo) net in
      let errs = Router.verify r in
      List.iter
        (fun e -> Printf.printf "  %s: %s\n" name (Router.string_of_error e))
        errs;
      check_int (name ^ ": verifier clean") 0 (List.length errs);
      if pinned then
        for src = 0 to Topology.node_count topo - 1 do
          for dst = 0 to Topology.node_count topo - 1 do
            if src <> dst then
              Alcotest.(check (list int))
                (Printf.sprintf "%s: lookup %d->%d pinned" name src dst)
                (Topology.route topo ~src ~dst)
                (Router.lookup r ~src ~dst ~proto:0)
          done
        done)
    [
      ("torus", Topology.Torus { rows = 3; cols = 3; seats = 1 }, true);
      ("fat-tree", Topology.Fat_tree { leaves = 3; spines = 2; seats = 2 }, false);
      ( "irregular",
        Topology.Irregular { hubs = 6; degree = 3; seed = 7; seats = 1 },
        true );
    ]

(* ---------- workloads ---------- *)

let test_workload_shapes () =
  let nodes = 32 in
  let w pattern arrivals =
    Workload.make ~pattern ~arrivals ~msgs_per_node:40 ~seed:11
  in
  (* purity: the same (seed, node) always yields the same plan *)
  let inc = w (Workload.Incast { sinks = 4 }) (Workload.Closed { think_ns = 500 }) in
  check_bool "plan is pure" true
    (Workload.plan inc ~nodes ~node:9 = Workload.plan inc ~nodes ~node:9);
  (* incast: sinks are silent, everyone else targets only sinks *)
  for n = 0 to 3 do
    check_int "sink sends nothing" 0 (Array.length (Workload.plan inc ~nodes ~node:n))
  done;
  for n = 4 to nodes - 1 do
    Array.iter
      (fun (s : Workload.send) ->
        check_bool "incast targets a sink" true (s.dst < 4))
      (Workload.plan inc ~nodes ~node:n)
  done;
  check_int "incast offered load" ((nodes - 4) * 40)
    (Workload.total_messages inc ~nodes);
  (* all-to-all and hotspot: never a self-send *)
  List.iter
    (fun pat ->
      let wl = w pat (Workload.Closed { think_ns = 500 }) in
      for n = 0 to nodes - 1 do
        Array.iter
          (fun (s : Workload.send) ->
            check_bool "no self-send" true (s.dst <> n && s.dst < nodes))
          (Workload.plan wl ~nodes ~node:n)
      done)
    [ Workload.All_to_all; Workload.Hotspot { alpha = 1.2 } ];
  (* hotspot: node 0 draws more traffic than the median node *)
  let hot = w (Workload.Hotspot { alpha = 1.2 }) (Workload.Closed { think_ns = 0 }) in
  let hits = Array.make nodes 0 in
  for n = 0 to nodes - 1 do
    Array.iter
      (fun (s : Workload.send) -> hits.(s.dst) <- hits.(s.dst) + 1)
      (Workload.plan hot ~nodes ~node:n)
  done;
  check_bool
    (Printf.sprintf "zipf skew (%d vs %d)" hits.(0) hits.(nodes / 2))
    true
    (hits.(0) > 3 * hits.(nodes / 2));
  (* open loop: due times are non-decreasing *)
  let op = w Workload.All_to_all (Workload.Open { interval_ns = 2_000 }) in
  let plan = Workload.plan op ~nodes ~node:5 in
  let ok = ref true in
  Array.iteri
    (fun k (s : Workload.send) -> if k > 0 then ok := !ok && s.at >= plan.(k - 1).at)
    plan;
  check_bool "open-loop due times monotone" true !ok

(* The Rng.float boundary bug: the zipf CDF's floating-point tail could
   land strictly below 1.0, so a draw of u = 1.0 (or just under) fell
   off the end of the table.  The CDF now clamps its last entry to 1.0
   exactly; draws at u in {0.0, pred 1.0, 1.0} must all map to a valid
   rank. *)
let test_zipf_boundaries () =
  List.iter
    (fun alpha ->
      List.iter
        (fun n ->
          let cdf = Workload.zipf_cdf ~alpha n in
          check_int "cdf length" n (Array.length cdf);
          check_bool "tail clamped to 1.0" true (cdf.(n - 1) = 1.0);
          let mono = ref true in
          for k = 1 to n - 1 do
            if cdf.(k) < cdf.(k - 1) then mono := false
          done;
          check_bool "cdf monotone" true !mono;
          check_int "u = 0.0 draws the head" 0 (Workload.zipf_draw cdf 0.0);
          check_int "u = 1.0 draws the tail" (n - 1)
            (Workload.zipf_draw cdf 1.0);
          let near_one = Workload.zipf_draw cdf (Float.pred 1.0) in
          check_bool "u just under 1.0 in range" true
            (near_one >= 0 && near_one < n);
          (* every CDF knot and its neighborhood stays in range *)
          Array.iter
            (fun u ->
              List.iter
                (fun u' ->
                  if u' >= 0.0 && u' <= 1.0 then begin
                    let r = Workload.zipf_draw cdf u' in
                    check_bool "knot draw in range" true (r >= 0 && r < n)
                  end)
                [ u; Float.pred u; Float.succ u ])
            cdf)
        [ 1; 2; 7; 64; 1000 ])
    [ 0.5; 1.0; 1.2; 2.5 ];
  (try
     ignore (Workload.zipf_draw [||] 0.5);
     Alcotest.fail "empty cdf accepted"
   with Invalid_argument _ -> ())

(* ---------- HUB port-wait attribution ---------- *)

let contention_sink eng name =
  let fifo =
    Byte_fifo.create eng ~capacity:Nectar_cab.Costs.fifo_bytes ~name
  in
  {
    Net.in_fifo = fifo;
    on_frame_start = (fun _ -> ());
    on_chunk =
      (fun _ ~arrived ~last ->
        ignore arrived;
        ignore last;
        Byte_fifo.pop fifo (Byte_fifo.level fifo));
  }

(* A circuit that queues at two different ports must be counted once per
   contended port, not once per circuit (the pre-fix lump-sum
   accounting).  Frame X holds hub0's trunk port, frame Y holds c's port
   on hub1; frame Z then crosses both and waits twice. *)
let test_two_hop_port_wait_attribution () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:2 () in
  Net.connect_hubs net (0, 15) (1, 14);
  let a = Net.attach_node net ~hub:0 ~port:0 (contention_sink eng "a") in
  let b = Net.attach_node net ~hub:0 ~port:1 (contention_sink eng "b") in
  let _c = Net.attach_node net ~hub:1 ~port:0 (contention_sink eng "c") in
  let d = Net.attach_node net ~hub:1 ~port:1 (contention_sink eng "d") in
  let _e = Net.attach_node net ~hub:1 ~port:2 (contention_sink eng "e") in
  (* X: a -> e, 2000 bytes; holds the trunk port for ~160 us *)
  Engine.spawn eng (fun () ->
      Net.transmit net ~src:a ~route:[ 15; 2 ]
        (Frame.create ~id:0 ~src:a ~data:(Bytes.make 2000 'x')));
  (* Y: d -> c on hub1 only, 20000 bytes; holds c's port for ~1.6 ms *)
  Engine.spawn eng (fun () ->
      Net.transmit net ~src:d ~route:[ 0 ]
        (Frame.create ~id:1 ~src:d ~data:(Bytes.make 20_000 'y')));
  (* Z: b -> c, starts last; queues behind X at the trunk, then behind Y
     at c's port *)
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1_000;
      Net.transmit net ~src:b ~route:[ 15; 0 ]
        (Frame.create ~id:2 ~src:b ~data:(Bytes.make 1000 'z')));
  Engine.run eng;
  check_int "one wait per contended port" 2 (Net.port_waits net);
  (* trunk wait ~ X's residual drain; c-port wait ~ Y's residual drain *)
  check_bool "waited time spans both holds" true
    (Net.port_wait_ns net > 1_000_000)

(* ---------- driver ---------- *)

let small_cfg ?(domains = 1) () =
  Driver.config ~domains ~frame_bytes:64
    ~topo:(Topology.Torus { rows = 4; cols = 2; seats = 2 })
    ~workload:
      (Workload.make
         ~pattern:(Workload.Incast { sinks = 2 })
         ~arrivals:(Workload.Closed { think_ns = 8_000 })
         ~msgs_per_node:5 ~seed:42)
    ()

let test_driver_conservation () =
  List.iter
    (fun domains ->
      let r = Driver.run (small_cfg ~domains ()) in
      let what fmt = Printf.sprintf ("%dd: " ^^ fmt) domains in
      check_int (what "all offered messages delivered") r.Driver.total_msgs
        (Driver.delivered r);
      check_bool (what "wire conservation") true r.Driver.conserved;
      check_int (what "handoffs balance") (Driver.handed_off r)
        (Driver.injected r);
      if domains > 1 then
        check_int (what "crossings counted") (Driver.handed_off r)
          r.Driver.crossed;
      check_bool (what "latencies sane") true
        (r.Driver.lat_p50 > 0
        && r.Driver.lat_p50 <= r.Driver.lat_p99
        && r.Driver.lat_p99 <= r.Driver.lat_max);
      (* an incast fan-in must queue on the sink hub's ports *)
      check_bool (what "port contention observed") true (r.Driver.port_waits > 0);
      let r2 = Driver.run (small_cfg ~domains ()) in
      check_bool (what "double-run determinism") true
        (Driver.deterministic_eq r r2))
    (* at 4 domains every partition is one row: both the north and the
       south trunk of every hub cross a cut *)
    [ 1; 2; 4 ]

(* The per-node build footprint is the heap reachable from a built world
   (the figure the fleet and scaling benches record).  A live-word delta
   across the build read 0 B/node after a multi-domain run, whose
   finished domains left stale words in the "before" count; the heap walk
   must give the fresh-heap value whatever ran before it. *)
let test_footprint_independent_of_runs () =
  let cfg domains =
    Driver.config ~domains ~frame_bytes:1024
      ~topo:(Topology.Torus { rows = 8; cols = 2; seats = 4 })
      ~workload:
        (Workload.make ~pattern:Workload.All_to_all
           ~arrivals:(Workload.Closed { think_ns = 31_000 })
           ~msgs_per_node:4 ~seed:1990)
      ()
  in
  let bytes_per_node () =
    Obj.reachable_words (Obj.repr (Driver.build (cfg 1)))
    * (Sys.word_size / 8) / 64
  in
  let fresh = bytes_per_node () in
  check_bool (Printf.sprintf "fresh footprint %d B/node positive" fresh) true
    (fresh > 0);
  List.iter
    (fun domains ->
      let r = Driver.run (cfg domains) in
      check_int
        (Printf.sprintf "%dd: all delivered" domains)
        r.Driver.total_msgs (Driver.delivered r);
      check_int
        (Printf.sprintf "footprint after a %d-domain run" domains)
        fresh (bytes_per_node ()))
    [ 2; 4; 8 ]

(* ---------- stack-level worlds ---------- *)

(* Trunks are wired before seats, so the network's own port checks turn
   away a seat on a trunk port, a duplicate seat and a seat past the
   last hub — on both multipath shapes. *)
let test_world_rejects_bad_seats () =
  List.iter
    (fun (name, hubs, trunks, trunk_port) ->
      let build seats = World.build ~hubs ~trunks ~seats () in
      check_int (name ^ ": valid seats") 2
        (Array.length (build [ (0, 2); (1, 2) ]).World.stacks);
      List.iter
        (fun (what, seats) ->
          check_bool
            (Printf.sprintf "%s: %s rejected" name what)
            true
            (match build seats with
            | _ -> false
            | exception Invalid_argument _ -> true))
        [
          ("seat on a trunk port", [ (0, 2); trunk_port ]);
          ("duplicate seat", [ (0, 2); (0, 2) ]);
          ("seat past the last hub", [ (0, 2); (hubs, 2) ]);
        ])
    [
      ("3x3 torus", 9, Topology.torus_trunks ~rows:3 ~cols:3, (4, 13));
      ( "4-leaf/2-spine fat tree",
        6,
        Topology.fat_tree_trunks ~leaves:4 ~spines:2,
        (3, 14) );
    ]

let () =
  Alcotest.run "fleet"
    [
      ( "topology",
        [
          Alcotest.test_case "torus shape" `Quick test_torus_shape;
          Alcotest.test_case "pinned 2x2 torus routes" `Quick
            test_torus_pinned_routes;
          Alcotest.test_case "fat-tree shape" `Quick test_fat_tree_shape;
          Alcotest.test_case "irregular meshes across seeds" `Quick
            test_irregular_seeds;
          Alcotest.test_case "policies pass the verifier" `Quick
            test_policies_verify;
        ] );
      ( "workload",
        [
          Alcotest.test_case "shapes and purity" `Quick test_workload_shapes;
          Alcotest.test_case "zipf draw boundaries" `Quick
            test_zipf_boundaries;
        ] );
      ( "wire",
        [
          Alcotest.test_case "2-hop port-wait attribution" `Quick
            test_two_hop_port_wait_attribution;
        ] );
      ( "driver",
        [
          Alcotest.test_case "conservation and determinism" `Quick
            test_driver_conservation;
          Alcotest.test_case "build footprint independent of prior runs"
            `Quick test_footprint_independent_of_runs;
        ] );
      ( "world",
        [
          Alcotest.test_case "bad seats rejected" `Quick
            test_world_rejects_bad_seats;
        ] );
    ]
