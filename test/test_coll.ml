(* CAB-resident collectives (lib/coll): spanning-tree properties across
   many topology seeds, the parent-array validator, functional
   barrier/reduce/broadcast against the host-driven baseline, and the
   single-host-wakeup invariant under the vet interrupt-discipline
   checker. *)

open Nectar_sim
open Nectar_core
module Coll = Nectar_coll.Coll
module Tree = Nectar_coll.Coll.Tree
module Topology = Nectar_fleet.Topology
module Cab = Nectar_cab.Cab
module Interrupts = Nectar_cab.Interrupts
module Stack = Nectar_proto.Stack
module Vet = Nectar_vet.Vet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------- tree properties ---------- *)

(* Connected + acyclic + covering, checked independently of the
   validator inside Tree.of_parents: every node must reach the root in
   < n parent steps, and child counts must sum to n - 1. *)
let well_formed tree =
  let n = Tree.size tree in
  let root = Tree.root tree in
  let ok = ref (Tree.parent tree root = -1) in
  for v = 0 to n - 1 do
    let u = ref v and steps = ref 0 in
    while !u <> root && !steps <= n do
      incr steps;
      u := Tree.parent tree !u
    done;
    if !u <> root then ok := false
  done;
  let child_sum =
    let s = ref 0 in
    for v = 0 to n - 1 do
      s := !s + Array.length (Tree.children tree v)
    done;
    !s
  in
  !ok && child_sum = n - 1

let tree_specs seed =
  [
    Topology.Torus { rows = 2 + (seed mod 3); cols = 2 + (seed mod 4); seats = 1 + (seed mod 3) };
    Topology.Fat_tree { leaves = 2 + (seed mod 5); spines = 1 + (seed mod 3); seats = 2 };
    Topology.Irregular { hubs = 4 + (seed mod 8); degree = 2 + (seed mod 2); seed; seats = 1 + (seed mod 2) };
  ]

let test_tree_properties () =
  for seed = 0 to 24 do
    List.iter
      (fun spec ->
        let topo = Topology.build spec in
        let nodes = Topology.node_count topo in
        List.iter
          (fun root ->
            let tree = Tree.of_topology topo ~root in
            check_int "size" nodes (Tree.size tree);
            check_int "root" root (Tree.root tree);
            check_bool "connected+acyclic+covering" true (well_formed tree);
            check_int "root depth" 0 (Tree.depth tree root);
            check_bool "max depth sane" true
              (Tree.max_depth tree < nodes))
          [ 0; nodes / 2; nodes - 1 ])
      (tree_specs seed)
  done

let test_tree_validator () =
  (* cycle between 1 and 2 *)
  (try
     ignore (Tree.of_parents ~root:0 [| -1; 2; 1; 0 |]);
     Alcotest.fail "cycle accepted"
   with Invalid_argument _ -> ());
  (* out-of-range parent *)
  (try
     ignore (Tree.of_parents ~root:0 [| -1; 9 |]);
     Alcotest.fail "out-of-range parent accepted"
   with Invalid_argument _ -> ());
  (* root's entry must be -1 *)
  (try
     ignore (Tree.of_parents ~root:0 [| 1; 0 |]);
     Alcotest.fail "bad root entry accepted"
   with Invalid_argument _ -> ());
  (* a valid chain *)
  let t = Tree.of_parents ~root:2 [| 1; 2; -1 |] in
  check_int "chain depth" 2 (Tree.depth t 0);
  check_int "fanout" 1 (Tree.max_fanout t)

(* ---------- interrupt coalescing ---------- *)

let test_post_coalesced () =
  let eng = Engine.create () in
  let net = Nectar_hub.Network.create eng ~hubs:1 () in
  let cab = Cab.create net ~hub:0 ~port:0 ~name:"cab" in
  let irq = Cab.irq cab in
  let fired = ref 0 in
  for _ = 1 to 3 do
    Interrupts.post_coalesced irq ~key:"k" ~name:"t" (fun _ -> incr fired)
  done;
  Engine.run eng;
  check_int "one dispatch per latched key" 1 !fired;
  check_int "coalesced counted" 2 (Interrupts.coalesced irq);
  (* after the handler ran, the key re-arms *)
  Interrupts.post_coalesced irq ~key:"k" ~name:"t" (fun _ -> incr fired);
  Engine.run eng;
  check_int "re-armed" 2 !fired

(* ---------- collective operations ---------- *)

let run_fleet w body =
  let open Coll.World in
  Array.iteri
    (fun i c ->
      ignore
        (Thread.create
           (Runtime.cab w.stacks.(i).Stack.rt)
           ~name:(Printf.sprintf "app%d" i)
           (fun ctx -> body ctx i c)))
    w.colls;
  Engine.run w.eng

let host_wakeups w i =
  Runtime.host_notifications w.Coll.World.stacks.(i).Stack.rt

let test_collectives_and_single_wakeup () =
  let result, findings =
    Vet.run (fun () ->
        let w =
          Coll.World.build (Topology.Torus { rows = 2; cols = 2; seats = 2 })
        in
        let n = Array.length w.colls in
        let sum = ref 0 in
        for i = 0 to n - 1 do
          sum := !sum + i + 1
        done;
        let ops = 3 in
        run_fleet w (fun ctx i c ->
            for _ = 1 to ops do
              Coll.barrier ctx c;
              check_int "reduce result everywhere" !sum
                (Coll.reduce ctx c (i + 1));
              let payload = if i = Tree.root w.tree then Some "fleet-go" else None in
              check_string "payload everywhere" "fleet-go"
                (Coll.bcast ctx c payload)
            done);
        (* exactly one host wakeup per completed operation, all at the
           root; every other CAB never wakes the host *)
        check_int "root wakeups = ops" (3 * ops)
          (host_wakeups w (Tree.root w.tree));
        for i = 0 to n - 1 do
          if i <> Tree.root w.tree then
            check_int "non-root wakeups" 0 (host_wakeups w i)
        done;
        Array.iter
          (fun c -> check_int "ops completed" (3 * ops) (Coll.ops_completed c))
          w.colls)
  in
  (match result with Ok () -> () | Error e -> raise e);
  check_int "no vet findings" 0 (List.length findings)

let test_host_baseline_wakeups () =
  let w = Coll.World.build (Topology.Torus { rows = 2; cols = 2; seats = 2 }) in
  let n = Array.length w.Coll.World.colls in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    sum := !sum + i + 1
  done;
  run_fleet w (fun ctx i c ->
      Coll.host_barrier ctx c;
      check_int "host reduce result" !sum (Coll.host_reduce ctx c (i + 1));
      let payload = if i = Tree.root w.Coll.World.tree then Some "pkg" else None in
      check_string "host bcast payload" "pkg" (Coll.host_bcast ctx c payload));
  (* the host-driven path wakes the host once per participant per op *)
  check_int "root wakeups = participants x ops" (3 * n)
    (host_wakeups w (Tree.root w.Coll.World.tree))

let test_bcast_root_payload_required () =
  let w = Coll.World.build (Topology.Torus { rows = 2; cols = 2; seats = 1 }) in
  let raised = ref false in
  run_fleet w (fun ctx i c ->
      if i = Tree.root w.Coll.World.tree then
        try ignore (Coll.bcast ctx c None)
        with Invalid_argument _ ->
          raised := true;
          (* unblock the other endpoints with a real broadcast *)
          ignore (Coll.bcast ctx c (Some "x"))
      else ignore (Coll.bcast ctx c None));
  check_bool "root without payload rejected" true !raised

let test_irregular_world_collectives () =
  let w =
    Coll.World.build ~root:3 ~combine:min
      (Topology.Irregular { hubs = 5; degree = 2; seed = 11; seats = 2 })
  in
  let n = Array.length w.Coll.World.colls in
  run_fleet w (fun ctx i c ->
      check_int "min-reduce" 0 (Coll.reduce ctx c i);
      ignore (Coll.reduce ctx c i));
  check_int "two ops at root" 2 (host_wakeups w 3);
  check_bool "n sane" true (n = 10)


(* A wrong reduce raises out of [World.run]; the tracer the root
   installed for the last iteration must not outlive the run. *)
let test_failed_run_uninstalls_tracer () =
  let w =
    Coll.World.build ~combine:(fun _ _ -> 0)
      (Topology.Torus { rows = 2; cols = 2; seats = 2 })
  in
  let tracer = Trace.create ~capacity:1024 w.Coll.World.eng in
  (match Coll.World.run ~tracer w ~ops:1 ~host:false with
  | _ -> Alcotest.fail "a wrong reduce was accepted"
  | exception Engine.Process_failure (_, Failure msg) ->
      check_string "raised" "coll: bad reduce" msg);
  check_bool "tracer uninstalled" false (Trace.installed ())

(* ---------- root latency pins ---------- *)

(* The root's barrier, reduce and bcast latencies of the 64-CAB smoke
   point (3 ops), tree and host modes, at p50 and p99 as exact float
   bits.  Taken before the latency summary became an int sample buffer;
   the p99s are the interpolated values between two of the three
   samples. *)
let recorded_root_percentiles =
  [
    ( false,
      [ 4687357604106600448L; 4695541707754197484L; 4705330478872264704L;
        4705330478872264704L; 4708578909740859392L; 4708578909740859392L ] );
    ( true,
      [ 4714234703601729536L; 4715964220843019469L; 4714234703601729536L;
        4714234703601729536L; 4714235012839374848L; 4714235012839374848L ] );
  ]

let test_root_percentiles_pinned () =
  let topo = Option.get (Topology.torus_of_cabs 64) in
  List.iter
    (fun (host, want) ->
      let w = Coll.World.build topo in
      let b, r, c = Coll.World.run w ~ops:3 ~host in
      let got =
        List.concat_map
          (fun s ->
            List.map
              (fun p -> Int64.bits_of_float (Nectar_util.Summary.percentile s p))
              [ 0.5; 0.99 ])
          [ b; r; c ]
      in
      Alcotest.(check (list int64))
        (if host then "host" else "tree")
        want got)
    recorded_root_percentiles

let () =
  Alcotest.run "coll"
    [
      ( "tree",
        [
          Alcotest.test_case "properties across seeds" `Quick
            test_tree_properties;
          Alcotest.test_case "validator" `Quick test_tree_validator;
        ] );
      ( "irq",
        [ Alcotest.test_case "post_coalesced" `Quick test_post_coalesced ] );
      ( "ops",
        [
          Alcotest.test_case "collectives + single wakeup (vet)" `Quick
            test_collectives_and_single_wakeup;
          Alcotest.test_case "host baseline wakeups" `Quick
            test_host_baseline_wakeups;
          Alcotest.test_case "bcast payload contract" `Quick
            test_bcast_root_payload_required;
          Alcotest.test_case "irregular world" `Quick
            test_irregular_world_collectives;
          Alcotest.test_case "failed run uninstalls its tracer" `Quick
            test_failed_run_uninstalls_tracer;
          Alcotest.test_case "root percentiles pinned" `Quick
            test_root_percentiles_pinned;
        ] );
    ]
