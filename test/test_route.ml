(* The routing-policy layer (lib/route): compiled tables pinned to
   [Network.route], typed refusals, the verifier's obligations (loop
   freedom, reachability, no stale route past a downed port), link-state
   recompute, and the [set_link_up] edge cases on the fabric itself. *)

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

(* ---------- default policy pins Network.route ---------- *)

(* The whole byte-identical guarantee: on an all-up topology the default
   policy's compiled route equals the BFS answer for every pair, on both
   a chain (one path) and a ring (two arcs, lex tie-break). *)
let test_lookup_pins_network_route () =
  let worlds =
    [
      ( "chain",
        World.build ~hubs:3
          ~trunks:(Topology.chain_trunks ~hubs:3)
          ~seats:[ (0, 2); (1, 2); (2, 2) ]
          () );
      ( "ring",
        World.build ~hubs:4
          ~trunks:(Topology.ring_trunks ~hubs:4)
          ~seats:[ (0, 2); (1, 2); (2, 2); (3, 2) ]
          () );
    ]
  in
  List.iter
    (fun (name, (w : World.t)) ->
      let r = Router.create w.net in
      let n = Array.length w.stacks in
      List.iter
        (fun (src, dst) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s %d->%d matches Network.route" name src dst)
            (Net.route w.net ~src ~dst)
            (Router.lookup r ~src ~dst ~proto:0))
        (pairs n))
    worlds

(* ---------- route_opt and typed refusals ---------- *)

let test_route_opt_and_no_route () =
  (* two HUBs with no trunk between them: a physically partitioned pair *)
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:2 () in
  let a = Cab.node_id (Cab.create net ~hub:0 ~port:2 ~name:"a") in
  let b = Cab.node_id (Cab.create net ~hub:1 ~port:2 ~name:"b") in
  check_bool "route_opt None on a partitioned pair" true
    (Net.route_opt net ~src:a ~dst:b = None);
  let r = Router.create net in
  check_bool "lookup raises No_route" true
    (match Router.lookup r ~src:a ~dst:b ~proto:0 with
    | _ -> false
    | exception Router.No_route { src; dst } -> src = a && dst = b);
  check_int "the refusal is counted" 1 (Router.no_route_refusals r);
  (* and on a connected pair route_opt agrees with route *)
  let w = chain2 () in
  let a = Stack.node_id w.stacks.(0)
  and b = Stack.node_id w.stacks.(1) in
  check_bool "route_opt = Some route when connected" true
    (Net.route_opt w.net ~src:a ~dst:b
    = Some (Net.route w.net ~src:a ~dst:b))

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

let () =
  Alcotest.run "route"
    [
      ( "policy-pinning",
        [
          Alcotest.test_case "lookup = Network.route" `Quick
            test_lookup_pins_network_route;
          Alcotest.test_case "route_opt and No_route" `Quick
            test_route_opt_and_no_route;
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
          Alcotest.test_case "dgram absorbs refusal" `Quick
            test_dgram_absorbs_refusal;
        ] );
    ]
