(* The routing-policy layer (lib/route): compiled tables pinned to
   hand-written shortest routes, typed refusals, the verifier's
   obligations (loop freedom, reachability, no stale route past a downed
   port), link-state recompute, and the [set_link_up] edge cases on the
   fabric itself. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
module Net = Nectar_hub.Network
module Cab = Nectar_cab.Cab
module Chaos = Nectar_chaos.Chaos
module Plan = Nectar_chaos.Chaos.Plan
module Router = Nectar_route.Router
module Policy = Nectar_route.Policy
module Vet = Nectar_vet.Vet
module World = Nectar_fleet.World
module Topology = Nectar_fleet.Topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let port = 700

(* Two stacks on two chained HUBs: hub 0's port 15 is the only trunk. *)
let chain2 () =
  World.build ~hubs:2
    ~trunks:(Topology.chain_trunks ~hubs:2)
    ~seats:[ (0, 2); (1, 2) ]
    ()

let pairs n =
  List.concat_map
    (fun s -> List.filter_map (fun d -> if s <> d then Some (s, d) else None)
        (List.init n Fun.id))
    (List.init n Fun.id)

(* ---------- default policy: smallest shortest path ---------- *)

(* The whole byte-identical guarantee: on an all-up topology the default
   policy compiles, for every pair, the lexicographically smallest
   shortest port list.  The expected routes are written out by hand, on
   both a chain (one path) and a ring (two arcs at distance 2: the lex
   tie-break takes port 14 over port 15). *)
let test_default_policy_routes () =
  let cases =
    [
      ( "chain",
        World.build ~hubs:3
          ~trunks:(Topology.chain_trunks ~hubs:3)
          ~seats:[ (0, 2); (1, 2); (2, 2) ]
          (),
        [
          ((0, 1), [ 15; 2 ]); ((0, 2), [ 15; 15; 2 ]);
          ((1, 0), [ 14; 2 ]); ((1, 2), [ 15; 2 ]);
          ((2, 0), [ 14; 14; 2 ]); ((2, 1), [ 14; 2 ]);
        ] );
      ( "ring",
        World.build ~hubs:4
          ~trunks:(Topology.ring_trunks ~hubs:4)
          ~seats:[ (0, 2); (1, 2); (2, 2); (3, 2) ]
          (),
        [
          ((0, 1), [ 15; 2 ]); ((0, 2), [ 14; 14; 2 ]); ((0, 3), [ 14; 2 ]);
          ((1, 0), [ 14; 2 ]); ((1, 2), [ 15; 2 ]); ((1, 3), [ 14; 14; 2 ]);
          ((2, 0), [ 14; 14; 2 ]); ((2, 1), [ 14; 2 ]); ((2, 3), [ 15; 2 ]);
          ((3, 0), [ 15; 2 ]); ((3, 1), [ 14; 14; 2 ]); ((3, 2), [ 14; 2 ]);
        ] );
    ]
  in
  List.iter
    (fun (name, (w : World.t), expected) ->
      let r = Router.create w.net in
      Alcotest.(check (list (pair int int)))
        (name ^ ": every pair listed")
        (pairs (Array.length w.stacks))
        (List.map fst expected);
      List.iter
        (fun ((src, dst), route) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s %d->%d" name src dst)
            route
            (Router.lookup r ~src ~dst ~proto:0))
        expected)
    cases

(* ---------- lookup on bare fabrics ---------- *)

let test_three_hop_chain_route () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:3 () in
  Net.connect_hubs net (0, 15) (1, 14);
  Net.connect_hubs net (1, 15) (2, 14);
  let a = Cab.node_id (Cab.create net ~hub:0 ~port:0 ~name:"a") in
  let b = Cab.node_id (Cab.create net ~hub:2 ~port:3 ~name:"b") in
  Alcotest.(check (list int))
    "one output port per HUB" [ 15; 15; 3 ]
    (Router.lookup (Router.create net) ~src:a ~dst:b ~proto:0)

(* Random-topology routing: build a random tree of HUBs, seat two CABs,
   and check that the looked-up source route exists, takes at most one
   output port per HUB and delivers. *)
let prop_random_tree_routes =
  QCheck2.Test.make ~count:25 ~name:"routes deliver on random trees"
    QCheck2.Gen.(pair (int_range 2 6) (int_bound 10_000))
    (fun (hubs, seed) ->
      let eng = Engine.create () in
      let net = Net.create eng ~hubs () in
      let rng = Rng.create ~seed in
      (* random tree over the hubs: connect hub i to a random earlier hub *)
      let next_port = Array.make hubs 8 in
      for h = 1 to hubs - 1 do
        let parent = Rng.int rng h in
        Net.connect_hubs net (parent, next_port.(parent)) (h, next_port.(h));
        next_port.(parent) <- next_port.(parent) + 1;
        next_port.(h) <- next_port.(h) + 1
      done;
      let a = Cab.create net ~hub:(Rng.int rng hubs) ~port:0 ~name:"a" in
      let b = Cab.create net ~hub:(Rng.int rng hubs) ~port:1 ~name:"b" in
      let delivered = ref 0 in
      Nectar_cab.Rx.set_frame_handler (Cab.rx b) (fun _ p ->
          incr delivered;
          Nectar_cab.Rx.discard (Cab.rx b) p);
      let route =
        Router.lookup (Router.create net) ~src:(Cab.node_id a)
          ~dst:(Cab.node_id b) ~proto:0
      in
      List.length route <= hubs
      && begin
        Engine.spawn eng (fun () ->
            Cab.send a
              (Nectar_hub.Frame.outgoing ~src:(Cab.node_id a) ~route
                 ~header_bytes:16
                 (Nectar_util.Region.of_bytes (Bytes.make 64 'r'))
                 ~off:0 ~len:64 ~tail:[] Unowned));
        Engine.run eng;
        !delivered = 1
      end)

(* ---------- route or typed refusal ---------- *)

(* The option-shaped contract of a lookup: a physically partitioned pair
   is refused with No_route (and counted), a connected pair gets its
   route. *)
let test_route_opt_and_no_route () =
  (* two HUBs with no trunk between them: a physically partitioned pair *)
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:2 () in
  let a = Cab.node_id (Cab.create net ~hub:0 ~port:2 ~name:"a") in
  let b = Cab.node_id (Cab.create net ~hub:1 ~port:2 ~name:"b") in
  let r = Router.create net in
  check_bool "lookup raises No_route" true
    (match Router.lookup r ~src:a ~dst:b ~proto:0 with
    | _ -> false
    | exception Router.No_route { src; dst } -> src = a && dst = b);
  check_int "the refusal is counted" 1 (Router.no_route_refusals r);
  (* and on a connected pair the lookup answers with the route *)
  let w = chain2 () in
  let r = Router.create w.net in
  Alcotest.(check (list int))
    "connected pair gets its route" [ 15; 2 ]
    (Router.lookup r ~src:(Stack.node_id w.stacks.(0))
       ~dst:(Stack.node_id w.stacks.(1)) ~proto:0);
  check_int "no refusal on a connected pair" 0 (Router.no_route_refusals r)

(* ---------- refusal classification ---------- *)

(* hub0 <-> hub1 is wired but its one trunk is down on hub0's side; hub2
   shares no trunk with anyone.  The table and the typed refusals must
   tell the wired-but-dark pair from the unwired ones. *)
let test_refusal_classification () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:3 () in
  Net.connect_hubs net (0, 15) (1, 14);
  let a = Cab.node_id (Cab.create net ~hub:0 ~port:2 ~name:"a") in
  let b = Cab.node_id (Cab.create net ~hub:1 ~port:2 ~name:"b") in
  let c = Cab.node_id (Cab.create net ~hub:2 ~port:2 ~name:"c") in
  Net.set_link_up net ~hub:0 ~port:15 false;
  let r = Router.create net in
  Alcotest.(check (list string))
    "table classifies every pair"
    [
      "0 -> 1 proto 0: ROUTE-DOWN";
      "0 -> 2 proto 0: NO-ROUTE";
      "1 -> 0 proto 0: [14;2]";
      "1 -> 2 proto 0: NO-ROUTE";
      "2 -> 0 proto 0: NO-ROUTE";
      "2 -> 1 proto 0: NO-ROUTE";
    ]
    (Router.table_lines r);
  check_bool "wired pair with its trunk down raises Route_down" true
    (match Router.lookup r ~src:a ~dst:b ~proto:0 with
    | _ -> false
    | exception Router.Route_down { src; dst } -> src = a && dst = b);
  check_bool "unwired pair raises No_route" true
    (match Router.lookup r ~src:a ~dst:c ~proto:0 with
    | _ -> false
    | exception Router.No_route { src; dst } -> src = a && dst = c);
  check_int "one Route_down refusal" 1 (Router.route_down_refusals r);
  check_int "one No_route refusal" 1 (Router.no_route_refusals r)

(* ---------- cache key range ---------- *)

(* The cache key packs dst into 12 bits and proto into 8: a flow outside
   that range must be refused, not served another flow's cached route. *)
let test_key_out_of_range () =
  let w = chain2 () in
  let r = Router.create w.net in
  ignore (Router.lookup r ~src:1 ~dst:0 ~proto:0);
  let refused name f =
    Alcotest.check_raises name
      (Invalid_argument "Router.lookup: flow component out of range")
      (fun () -> ignore (f ()))
  in
  refused "dst 4096" (fun () -> Router.lookup r ~src:0 ~dst:4096 ~proto:0);
  refused "proto 256" (fun () -> Router.lookup r ~src:0 ~dst:1 ~proto:256);
  refused "negative proto" (fun () -> Router.lookup r ~src:0 ~dst:1 ~proto:(-1));
  check_int "only the in-range flow compiled" 1 (Router.compiles r)

(* ---------- verifier obligations ---------- *)

let ring4 () =
  let w =
    World.build ~hubs:4
      ~trunks:(Topology.ring_trunks ~hubs:4)
      ~seats:[ (0, 2); (2, 2) ]
      ()
  in
  ( w,
    Stack.node_id w.stacks.(0),
    Stack.node_id w.stacks.(1) )

let test_verifier_default_clean () =
  let w, _, _ = ring4 () in
  check_int "default policy verifies clean on the ring" 0
    (List.length (Router.verify (Router.create w.net)))

let test_verifier_rejects_looping () =
  let w, a, b = ring4 () in
  (* hub0 -14-> hub3 -15-> hub0 -14-> hub3 -14-> hub2: walks to the
     destination over live ports but revisits two HUBs *)
  let policy =
    [
      {
        Policy.where = Policy.And (Policy.Src a, Policy.Dst b);
        prefer = [ Policy.Static [ 14; 15; 14; 14; 2 ] ];
        ecmp = false;
      };
    ]
  in
  let errs = Router.verify (Router.create ~policy w.net) in
  check_bool "planted looping Static route reported" true
    (List.exists (function Router.Looping _ -> true | _ -> false) errs)

let test_verifier_rejects_unreachable () =
  let w, a, b = ring4 () in
  (* both transit HUBs avoided: the pair is live but the policy dead-ends *)
  let policy =
    [
      {
        Policy.where = Policy.And (Policy.Src a, Policy.Dst b);
        prefer = [ Policy.Avoid_hubs [ 1; 3 ] ];
        ecmp = false;
      };
    ]
  in
  let errs = Router.verify (Router.create ~policy w.net) in
  check_bool "planted dead-end policy reported unreachable" true
    (List.exists (function Router.Unreachable _ -> true | _ -> false) errs)

let test_verifier_flags_stale_cache () =
  let w, a, b = ring4 () in
  let r = Router.create w.net in
  ignore (Router.lookup r ~src:a ~dst:b ~proto:0);
  (* inside the detection window (events not yet run) the cached entry
     still crosses the downed trunk: exactly what the audit must flag *)
  Net.set_link_up w.net ~hub:0 ~port:14 false;
  check_bool "mid-window audit reports Crosses_down" true
    (List.exists
       (function Router.Crosses_down _ -> true | _ -> false)
       (Router.verify r));
  (* after detection + recompute the database is reconciled *)
  Engine.run w.eng;
  check_int "post-recompute verify is clean" 0
    (List.length (Router.verify r))

(* ---------- ECMP ---------- *)

let test_ecmp_deterministic () =
  let w, a, b = ring4 () in
  let policy = [ { Policy.where = Policy.Any; prefer = [ Policy.Shortest ]; ecmp = true } ] in
  let arcs = [ [ 14; 14; 2 ]; [ 15; 15; 2 ] ] in
  let r1 = Router.create ~policy w.net in
  let r2 = Router.create ~policy w.net in
  let protos = List.init 8 Fun.id in
  let spread =
    List.map
      (fun proto ->
        let p = Router.lookup r1 ~src:a ~dst:b ~proto in
        check_bool "ecmp path is one of the two arcs" true (List.mem p arcs);
        check_bool "ecmp choice is stable across lookups" true
          (Router.lookup r1 ~src:a ~dst:b ~proto = p);
        check_bool "ecmp choice is stable across router instances" true
          (Router.lookup r2 ~src:a ~dst:b ~proto = p);
        p)
      protos
  in
  check_bool "the flow hash uses both arcs across 8 protocols" true
    (List.length (List.sort_uniq compare spread) = 2)

(* ---------- recompute on link transitions ---------- *)

let test_recompute_on_flap () =
  let w, a, b = ring4 () in
  let r = Router.create w.net in
  Alcotest.(check (list int))
    "primary arc" [ 14; 14; 2 ]
    (Router.lookup r ~src:a ~dst:b ~proto:0);
  Net.set_link_up w.net ~hub:0 ~port:14 false;
  Engine.run w.eng;
  Alcotest.(check (list int))
    "reroutes onto the surviving arc" [ 15; 15; 2 ]
    (Router.lookup r ~src:a ~dst:b ~proto:0);
  Net.set_link_up w.net ~hub:0 ~port:14 true;
  Engine.run w.eng;
  Alcotest.(check (list int))
    "restored link flushes back to the primary arc" [ 14; 14; 2 ]
    (Router.lookup r ~src:a ~dst:b ~proto:0);
  check_int "one recompute per transition" 2 (Router.recomputes r)

(* ---------- set_link_up edge cases ---------- *)

let test_set_link_up_idempotent () =
  let w = chain2 () in
  let fired = ref 0 in
  Net.on_link_change w.net (fun ~hub:_ ~port:_ ~up:_ -> incr fired);
  Net.set_link_up w.net ~hub:0 ~port:15 false;
  Net.set_link_up w.net ~hub:0 ~port:15 false;
  check_int "double-down fires watchers once" 1 !fired;
  Net.set_link_up w.net ~hub:0 ~port:15 true;
  Net.set_link_up w.net ~hub:0 ~port:15 true;
  check_int "double-up fires watchers once more" 2 !fired

let test_set_node_up_is_attachment_link () =
  let w = chain2 () in
  let b = w.stacks.(1) in
  let seen = ref [] in
  Net.on_link_change w.net (fun ~hub ~port ~up ->
      seen := (hub, port, up) :: !seen);
  Net.set_node_up w.net (Stack.node_id b) false;
  let hub, p = Net.node_attachment w.net (Stack.node_id b) in
  check_bool "node power-off is its attachment link going down" true
    (!seen = [ (hub, p, false) ]);
  check_bool "the attachment port reads down" true
    (not (Net.port_up w.net ~hub ~port:p))

let test_own_attachment_down_refused () =
  let w = chain2 () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let src = Stack.node_id a and dst = Stack.node_id b in
  (* the sender's OWN uplink goes dark: after detection every lookup is a
     typed refusal (the pair is still connected in the static topology,
     so it must be Route_down, not No_route) *)
  let hub, p = Net.node_attachment w.net src in
  Net.set_link_up w.net ~hub ~port:p false;
  Engine.run w.eng;
  check_bool "lookup refuses with Route_down" true
    (match Router.lookup a.Stack.router ~src ~dst ~proto:0 with
    | _ -> false
    | exception Router.Route_down _ -> true);
  Net.set_link_up w.net ~hub ~port:p true;
  Engine.run w.eng;
  check_bool "restored uplink routes again" true
    (Router.lookup a.Stack.router ~src ~dst ~proto:0 <> [])

(* A trunk flap racing an in-flight multi-hop stop-and-wait send, under
   the vet buffer checkers: the blackholed frame must be retransmitted,
   everything delivered, the wire conserved, and no buffer leaked. *)
let test_flap_during_inflight_send () =
  let result, findings =
    Vet.run ~quiesced:true (fun () ->
        let w = chain2 () in
        let a = w.stacks.(0) and b = w.stacks.(1) in
        Chaos.install w
          {
            Plan.seed = 7;
            steps =
              [
                Plan.step (Sim_time.ms 2)
                  (Plan.Link { hub = 0; port = 15; up = false });
                Plan.step (Sim_time.ms 9)
                  (Plan.Link { hub = 0; port = 15; up = true });
              ];
          };
        let received = ref 0 in
        let inbox =
          Runtime.create_mailbox b.Stack.rt ~name:"flap-sink" ~port
            ~byte_limit:(64 * 1024) ()
        in
        ignore
          (Thread.create (Runtime.cab b.Stack.rt) ~name:"flap-sink"
             (fun ctx ->
               for _ = 1 to 8 do
                 let m = Mailbox.begin_get ctx inbox in
                 Mailbox.end_get ctx m;
                 incr received
               done));
        let ok = ref 0 in
        ignore
          (Thread.create (Runtime.cab a.Stack.rt) ~name:"flap-send"
             (fun ctx ->
               let payload = String.make 256 'x' in
               for _ = 1 to 8 do
                 Rmp.send_string ctx a.Stack.rmp
                   ~dst_cab:(Stack.node_id b) ~dst_port:port payload;
                 incr ok;
                 Engine.sleep ctx.Ctx.eng (Sim_time.ms 1)
               done));
        Engine.run w.eng;
        let bitten =
          Net.link_down_drops w.net
          + Router.route_down_refusals a.Stack.router
        in
        (!ok, !received, bitten,
         Net.frames_sent w.net,
         Net.frames_delivered w.net + Net.link_down_drops w.net))
  in
  (match result with
  | Error e -> Alcotest.failf "run raised %s" (Printexc.to_string e)
  | Ok (ok, received, bitten, sent, accounted) ->
      check_int "every send completed" 8 ok;
      check_int "every message delivered" 8 received;
      check_bool "the flap bit at least one frame" true (bitten > 0);
      check_int "wire conservation" sent accounted);
  check_bool "no buffer-lifecycle findings" true
    (List.for_all (fun f -> f.Vet.severity = Vet.Info) findings)

(* No_route is not absorbed by RMP at any window: no retry can cross a
   static partition, so [send] raises it at once with the buffer
   reclaimed (vet's quiesced teardown would report a leaked one), nothing
   is retransmitted, no send is counted as abandoned and [flush] has
   nothing to wait for. *)
let test_rmp_raises_no_route () =
  List.iter
    (fun window ->
      let name fmt = Printf.sprintf "%s at window %d" fmt window in
      let result, findings =
        Vet.run ~quiesced:true (fun () ->
            let w =
              World.build ~hubs:2 ~trunks:[]
                ~seats:[ (0, 2); (1, 2) ]
                ~stack:(fun rt -> Stack.create rt ~rmp_window:window ())
                ()
            in
            let a = w.stacks.(0) and b = w.stacks.(1) in
            let dst_cab = Stack.node_id b in
            let raised = ref false and flushed = ref false in
            ignore
              (Thread.create (Runtime.cab a.Stack.rt) ~name:"partitioned"
                 (fun ctx ->
                   (try
                      Rmp.send_string ctx a.Stack.rmp ~dst_cab ~dst_port:port
                        "across the partition"
                    with Router.No_route _ -> raised := true);
                   Rmp.flush ctx a.Stack.rmp ~dst_cab ~dst_port:port;
                   flushed := true));
            Engine.run w.eng;
            ( !raised,
              !flushed,
              Rmp.retransmits a.Stack.rmp,
              Rmp.failed_sends a.Stack.rmp,
              Net.frames_sent w.net ))
      in
      check_int (name "vet clean") 0 (List.length findings);
      match result with
      | Error e -> Alcotest.failf "run raised %s" (Printexc.to_string e)
      | Ok (raised, flushed, retx, failed, sent) ->
          check_bool (name "send raised No_route") true raised;
          check_bool (name "flush returned") true flushed;
          check_int (name "no retransmits") 0 retx;
          check_int (name "no abandoned sends") 0 failed;
          check_int (name "nothing reached the wire") 0 sent)
    [ 1; 4 ]

(* Route_down absorbed by the unreliable transport: a counted local drop,
   never an escaping exception. *)
let test_dgram_absorbs_refusal () =
  let w = chain2 () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  Net.set_link_up w.net ~hub:0 ~port:15 false;
  Engine.run w.eng;
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"dgram-send" (fun ctx ->
         Dgram.send_string ctx a.Stack.dgram ~dst_cab:(Stack.node_id b)
           ~dst_port:port "into the void"));
  Engine.run w.eng;
  check_int "refusal counted as a dgram route drop" 1
    (Dgram.route_drops a.Stack.dgram);
  check_int "nothing reached the wire" 0 (Net.frames_sent w.net)

(* The e-cube builder conses its hops onto the caller's tail in one pass;
   its port lists are the dimension-ordered ones: all column hops (east
   15 or west 14), then all row hops (south 13 or north 12). *)
let test_ecube_one_pass () =
  let rows = 4 and cols = 5 in
  let reference src dst =
    let r1 = src / cols and c1 = src mod cols in
    let r2 = dst / cols and c2 = dst mod cols in
    List.init (abs (c2 - c1)) (fun _ -> if c2 > c1 then 15 else 14)
    @ List.init (abs (r2 - r1)) (fun _ -> if r2 > r1 then 13 else 12)
  in
  for src_hub = 0 to (rows * cols) - 1 do
    for dst_hub = 0 to (rows * cols) - 1 do
      let name = Printf.sprintf "hub %d -> hub %d" src_hub dst_hub in
      Alcotest.(check (list int))
        name
        (reference src_hub dst_hub)
        (Policy.ecube_route_onto ~rows ~cols ~src_hub ~dst_hub []);
      Alcotest.(check (list int))
        (name ^ " onto a tail")
        (reference src_hub dst_hub @ [ 3 ])
        (Policy.ecube_route_onto ~rows ~cols ~src_hub ~dst_hub [ 3 ])
    done
  done;
  Alcotest.check_raises "outside the grid"
    (Invalid_argument "Policy.ecube_route_onto: hub outside the grid")
    (fun () ->
      ignore (Policy.ecube_route_onto ~rows ~cols ~src_hub:0 ~dst_hub:20 []))

let () =
  Alcotest.run "route"
    [
      ( "policy-pinning",
        [
          Alcotest.test_case "default = smallest shortest path" `Quick
            test_default_policy_routes;
          Alcotest.test_case "route_opt and No_route" `Quick
            test_route_opt_and_no_route;
          Alcotest.test_case "refusal classification" `Quick
            test_refusal_classification;
          Alcotest.test_case "cache key out of range" `Quick
            test_key_out_of_range;
        ] );
      ( "lookup",
        [
          Alcotest.test_case "three-hop chain route" `Quick
            test_three_hop_chain_route;
          QCheck_alcotest.to_alcotest prop_random_tree_routes;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "default policy clean" `Quick
            test_verifier_default_clean;
          Alcotest.test_case "rejects looping static route" `Quick
            test_verifier_rejects_looping;
          Alcotest.test_case "rejects unreachable policy" `Quick
            test_verifier_rejects_unreachable;
          Alcotest.test_case "flags stale cache mid-window" `Quick
            test_verifier_flags_stale_cache;
        ] );
      ( "ecmp",
        [ Alcotest.test_case "deterministic split" `Quick test_ecmp_deterministic ] );
      ( "ecube",
        [ Alcotest.test_case "one-pass builder" `Quick test_ecube_one_pass ] );
      ( "link-state",
        [
          Alcotest.test_case "recompute on flap" `Quick test_recompute_on_flap;
          Alcotest.test_case "set_link_up idempotent" `Quick
            test_set_link_up_idempotent;
          Alcotest.test_case "set_node_up = attachment link" `Quick
            test_set_node_up_is_attachment_link;
          Alcotest.test_case "own attachment down refused" `Quick
            test_own_attachment_down_refused;
        ] );
      ( "transports",
        [
          Alcotest.test_case "flap during in-flight send" `Quick
            test_flap_during_inflight_send;
          Alcotest.test_case "rmp raises No_route" `Quick
            test_rmp_raises_no_route;
          Alcotest.test_case "dgram absorbs refusal" `Quick
            test_dgram_absorbs_refusal;
        ] );
    ]
