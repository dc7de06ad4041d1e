(* Network shared memory (paper §5.3): coherence, ownership migration,
   region locks, and a sequential-consistency check against a flat-memory
   model. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
module Net = Nectar_hub.Network
module World = Nectar_fleet.World
module Dsm = Nectar_dsm.Dsm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* run [f] in a fresh thread on [stack], returning its result to the
   calling simulation process *)
let run_on stack f =
  let eng = Runtime.engine stack.Stack.rt in
  let w = Engine.waker eng in
  let result = ref None in
  ignore
    (Thread.create (Runtime.cab stack.Stack.rt) ~name:"dsm-op" (fun ctx ->
         result := Some (f ctx);
         Engine.wake eng w));
  Engine.block eng;
  Option.get !result

let test_write_then_remote_read () =
  let w = World.build ~seats:(World.ports 2) () in
  let eng = w.eng and stacks = Array.to_list w.stacks in
  let dsm = Dsm.create stacks ~pages:4 ~page_bytes:512 in
  let n0 = Dsm.node dsm 0 and n1 = Dsm.node dsm 1 in
  let s0 = List.nth stacks 0 and s1 = List.nth stacks 1 in
  let got = ref "" in
  Engine.spawn eng (fun () ->
      run_on s0 (fun ctx -> Dsm.write ctx n0 ~addr:100 "shared-hello");
      got := run_on s1 (fun ctx -> Dsm.read ctx n1 ~addr:100 ~len:12));
  Engine.run eng;
  check_string "remote read sees the write" "shared-hello" !got;
  check_int "writer faulted once" 1 (Dsm.write_faults n0);
  check_int "reader faulted once" 1 (Dsm.read_faults n1)

let test_invalidation_on_write () =
  let w = World.build ~seats:(World.ports 3) () in
  let eng = w.eng and stacks = Array.to_list w.stacks in
  let dsm = Dsm.create stacks ~pages:3 ~page_bytes:256 in
  let n = Array.of_list (List.map (fun _ -> ()) stacks) in
  ignore n;
  let node i = Dsm.node dsm i in
  let stack i = List.nth stacks i in
  let final = ref "" in
  Engine.spawn eng (fun () ->
      (* all three cache page 0 for reading *)
      run_on (stack 0) (fun ctx -> Dsm.write ctx (node 0) ~addr:0 "v1......");
      ignore (run_on (stack 1) (fun ctx -> Dsm.read ctx (node 1) ~addr:0 ~len:8));
      ignore (run_on (stack 2) (fun ctx -> Dsm.read ctx (node 2) ~addr:0 ~len:8));
      (* node 1 writes: node 0 and 2's copies must be invalidated *)
      run_on (stack 1) (fun ctx -> Dsm.write ctx (node 1) ~addr:0 "v2......");
      final := run_on (stack 2) (fun ctx -> Dsm.read ctx (node 2) ~addr:0 ~len:8));
  Engine.run eng;
  check_string "reader refetched after invalidation" "v2......" !final;
  check_bool "invalidations delivered" true
    (Dsm.invalidations_received (node 2) >= 1);
  (* node 2 refetched: two read faults *)
  check_int "re-fault after invalidation" 2 (Dsm.read_faults (node 2))

let test_ownership_ping_pong () =
  let w = World.build ~seats:(World.ports 2) () in
  let eng = w.eng and stacks = Array.to_list w.stacks in
  let dsm = Dsm.create stacks ~pages:1 ~page_bytes:128 in
  let node i = Dsm.node dsm i in
  let stack i = List.nth stacks i in
  Engine.spawn eng (fun () ->
      for round = 1 to 6 do
        let writer = round mod 2 in
        run_on (stack writer) (fun ctx ->
            Dsm.write ctx (node writer) ~addr:0
              (Printf.sprintf "round-%02d" round))
      done);
  Engine.run eng;
  let final = ref "" in
  Engine.spawn eng (fun () ->
      final := run_on (stack 0) (fun ctx -> Dsm.read ctx (node 0) ~addr:0 ~len:8));
  Engine.run eng;
  check_string "last write wins across migrations" "round-06" !final;
  check_bool "ownership migrated repeatedly" true
    (Dsm.write_faults (node 0) + Dsm.write_faults (node 1) >= 6)

let test_lock_protected_counter () =
  let w = World.build ~seats:(World.ports 2) () in
  let eng = w.eng and stacks = Array.to_list w.stacks in
  let dsm = Dsm.create stacks ~pages:1 ~page_bytes:64 in
  let node i = Dsm.node dsm i in
  let incr_n = 25 in
  Engine.spawn eng (fun () ->
      (* initialize the counter, then let both incrementers race *)
      run_on (List.hd stacks) (fun ctx ->
          Dsm.write ctx (node 0) ~addr:0 (Printf.sprintf "%8d" 0));
      List.iteri
        (fun i stack ->
          ignore
            (Thread.create (Runtime.cab stack.Stack.rt)
               ~name:(Printf.sprintf "incr%d" i) (fun ctx ->
                 for _ = 1 to incr_n do
                   Dsm.with_lock ctx (node i) ~lock:3 (fun () ->
                       let v =
                         int_of_string
                           (String.trim (Dsm.read ctx (node i) ~addr:0 ~len:8))
                       in
                       Dsm.write ctx (node i) ~addr:0
                         (Printf.sprintf "%8d" (v + 1)))
                 done)))
        stacks);
  Engine.run eng;
  let final = ref 0 in
  Engine.spawn eng (fun () ->
      final :=
        run_on (List.hd stacks) (fun ctx ->
            int_of_string (String.trim (Dsm.read ctx (node 0) ~addr:0 ~len:8))));
  Engine.run eng;
  check_int "no lost updates under the region lock" (2 * incr_n) !final

let test_bounds_checking () =
  let w = World.build ~seats:(World.ports 2) () in
  let eng = w.eng and stacks = Array.to_list w.stacks in
  ignore eng;
  let dsm = Dsm.create stacks ~pages:2 ~page_bytes:128 in
  let n0 = Dsm.node dsm 0 in
  Engine.spawn eng (fun () ->
      run_on (List.hd stacks) (fun ctx ->
          Alcotest.check_raises "out of range"
            (Invalid_argument "Dsm: address out of range") (fun () ->
              ignore (Dsm.read ctx n0 ~addr:250 ~len:10));
          Alcotest.check_raises "page crossing"
            (Invalid_argument "Dsm: access crosses a page boundary")
            (fun () -> ignore (Dsm.read ctx n0 ~addr:120 ~len:16))));
  Engine.run eng

let test_sequential_consistency_model () =
  let nodes = 3 in
  let pages = 4 and page_sz = 256 in
  let w = World.build ~seats:(World.ports nodes) () in
  let eng = w.eng and stacks = Array.to_list w.stacks in
  let dsm = Dsm.create stacks ~pages ~page_bytes:page_sz in
  let model = Bytes.make (pages * page_sz) '\000' in
  let rng = Rng.create ~seed:77 in
  let failures = ref 0 in
  Engine.spawn eng (fun () ->
      (* a single driver issues operations one at a time from random nodes:
         a total order, so the region must behave exactly like flat memory *)
      for _ = 1 to 120 do
        let who = Rng.int rng nodes in
        let page = Rng.int rng pages in
        let len = 1 + Rng.int rng 32 in
        let off = Rng.int rng (page_sz - len) in
        let addr = (page * page_sz) + off in
        let stack = List.nth stacks who in
        let n = Dsm.node dsm who in
        if Rng.bool rng then begin
          let data =
            String.init len (fun _ -> Char.chr (97 + Rng.int rng 26))
          in
          run_on stack (fun ctx -> Dsm.write ctx n ~addr data);
          Bytes.blit_string data 0 model addr len
        end
        else begin
          let got = run_on stack (fun ctx -> Dsm.read ctx n ~addr ~len) in
          if got <> Bytes.sub_string model addr len then incr failures
        end
      done);
  Engine.run eng;
  check_int "every read matched the flat-memory model" 0 !failures

let () =
  Alcotest.run "nectar_dsm"
    [
      ( "coherence",
        [
          Alcotest.test_case "write then remote read" `Quick
            test_write_then_remote_read;
          Alcotest.test_case "write invalidates copies" `Quick
            test_invalidation_on_write;
          Alcotest.test_case "ownership ping-pong" `Quick
            test_ownership_ping_pong;
        ] );
      ( "locks",
        [
          Alcotest.test_case "no lost updates" `Quick
            test_lock_protected_counter;
        ] );
      ( "api",
        [ Alcotest.test_case "bounds" `Quick test_bounds_checking ] );
      ( "model",
        [
          Alcotest.test_case "sequential consistency (120 random ops)" `Quick
            test_sequential_consistency_model;
        ] );
    ]
