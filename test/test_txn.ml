(* Distributed commit offload (paper §5.3): two-phase commit across CABs. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
module Net = Nectar_hub.Network
module World = Nectar_fleet.World
module Commit = Nectar_txn.Commit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let spawn_on (s : Stack.t) ~name body =
  ignore (Thread.create (Runtime.cab s.Stack.rt) ~name body)

let test_all_yes_commits () =
  let w = World.build ~seats:(World.ports 4) () in
  let eng = w.eng and stacks = Array.to_list w.stacks in
  let coord_stack = List.hd stacks in
  let parts = List.map (fun s -> Commit.participant s ()) (List.tl stacks) in
  let coord = Commit.coordinator coord_stack in
  let outcome = ref `Aborted in
  spawn_on coord_stack ~name:"txn" (fun ctx ->
      outcome :=
        Commit.run ctx coord ~participants:[ 1; 2; 3 ] ~payload:"debit 10");
  Engine.run eng;
  check_bool "committed" true (!outcome = `Committed);
  List.iter
    (fun p ->
      Alcotest.(check (list (pair int (of_pp (fun fmt -> function
           | `Committed -> Format.fprintf fmt "C"
           | `Aborted -> Format.fprintf fmt "A")))))
        "each participant logged the commit"
        [ (1, `Committed) ]
        (Commit.decisions p))
    parts

let test_one_no_aborts_everyone () =
  let w = World.build ~seats:(World.ports 4) () in
  let eng = w.eng and stacks = Array.to_list w.stacks in
  let coord_stack = List.hd stacks in
  let parts =
    List.mapi
      (fun i s ->
        Commit.participant s
          ~prepare:(fun ~txn:_ ~payload:_ -> i <> 1 (* node 2 votes no *))
          ())
      (List.tl stacks)
  in
  let coord = Commit.coordinator coord_stack in
  let outcome = ref `Committed in
  spawn_on coord_stack ~name:"txn" (fun ctx ->
      outcome :=
        Commit.run ctx coord ~participants:[ 1; 2; 3 ] ~payload:"debit 10");
  Engine.run eng;
  check_bool "aborted" true (!outcome = `Aborted);
  check_int "abort counted" 1 (Commit.aborts coord);
  List.iter
    (fun p ->
      check_bool "every participant aborted" true
        (List.for_all (fun (_, d) -> d = `Aborted) (Commit.decisions p)))
    parts

let test_unreachable_participant_aborts () =
  let w = World.build ~seats:(World.ports 3) () in
  let eng = w.eng and net = w.net and stacks = Array.to_list w.stacks in
  let coord_stack = List.hd stacks in
  let _parts = List.map (fun s -> Commit.participant s ()) (List.tl stacks) in
  (* cab 2 is cut off entirely *)
  Net.set_fault_hook net
    (Some
       (fun frame ->
         if frame.Nectar_hub.Frame.src = 2 then `Drop else `Deliver));
  (* also drop traffic TO cab 2 by dropping its replies only: requests
     reach it but votes never return -> timeout -> abort *)
  let coord = Commit.coordinator coord_stack in
  let outcome = ref `Committed in
  spawn_on coord_stack ~name:"txn" (fun ctx ->
      outcome := Commit.run ctx coord ~participants:[ 1; 2 ] ~payload:"transfer");
  Engine.run eng;
  check_bool "timeout treated as NO vote" true (!outcome = `Aborted)

let test_many_transactions_mixed () =
  let w = World.build ~seats:(World.ports 3) () in
  let eng = w.eng and stacks = Array.to_list w.stacks in
  let coord_stack = List.hd stacks in
  let votes = ref 0 in
  let _parts =
    List.map
      (fun s ->
        Commit.participant s
          ~prepare:(fun ~txn:_ ~payload:_ ->
            incr votes;
            (* every third vote is NO *)
            !votes mod 3 <> 0)
          ())
      (List.tl stacks)
  in
  let coord = Commit.coordinator coord_stack in
  let committed = ref 0 and aborted = ref 0 in
  spawn_on coord_stack ~name:"txns" (fun ctx ->
      for i = 1 to 9 do
        match
          Commit.run ctx coord ~participants:[ 1; 2 ]
            ~payload:(Printf.sprintf "op%d" i)
        with
        | `Committed -> incr committed
        | `Aborted -> incr aborted
      done);
  Engine.run eng;
  check_int "nine transactions" 9 (Commit.transactions coord);
  check_int "commit/abort split" 9 (!committed + !aborted);
  check_bool "both outcomes occurred" true (!committed > 0 && !aborted > 0);
  check_int "aborts counted" !aborted (Commit.aborts coord)

let () =
  Alcotest.run "nectar_txn"
    [
      ( "two-phase commit",
        [
          Alcotest.test_case "all yes commits" `Quick test_all_yes_commits;
          Alcotest.test_case "one no aborts all" `Quick
            test_one_no_aborts_everyone;
          Alcotest.test_case "unreachable aborts" `Quick
            test_unreachable_participant_aborts;
          Alcotest.test_case "mixed workload" `Quick
            test_many_transactions_mixed;
        ] );
    ]
