(* Parallel engine: SPSC channels, conservative window synchronization,
   keyed Rng streams, and the single-domain byte-identity contract. *)

open Nectar_sim

let check_int = Alcotest.(check int)
let us = Sim_time.us

let qtest p = QCheck_alcotest.to_alcotest p

(* ---------- Spsc ---------- *)

let test_spsc_fifo () =
  let q = Spsc.create ~capacity:4 in
  Alcotest.(check (option int)) "empty" None (Spsc.pop_opt q);
  Spsc.push q 1;
  Spsc.push q 2;
  Spsc.push q 3;
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Spsc.pop_opt q);
  Spsc.push q 4;
  Spsc.push q 5;
  let got = ref [] in
  check_int "drain count" 4 (Spsc.drain q (fun v -> got := v :: !got));
  Alcotest.(check (list int)) "fifo order" [ 2; 3; 4; 5 ] (List.rev !got);
  Alcotest.(check (option int)) "drained" None (Spsc.pop_opt q)

let test_spsc_full () =
  let q = Spsc.create ~capacity:2 in
  Spsc.push q 1;
  Spsc.push q 2;
  Alcotest.(check bool) "try_push refused" false (Spsc.try_push q 3);
  Alcotest.(check bool) "push raises" true
    (match Spsc.push q 3 with () -> false | exception Spsc.Full -> true);
  (* popping frees a slot again *)
  ignore (Spsc.pop_opt q);
  Alcotest.(check bool) "slot freed" true (Spsc.try_push q 3)

let test_spsc_wraparound () =
  let q = Spsc.create ~capacity:3 in
  for round = 0 to 9 do
    Spsc.push q (2 * round);
    Spsc.push q ((2 * round) + 1);
    Alcotest.(check (option int)) "wrap a" (Some (2 * round)) (Spsc.pop_opt q);
    Alcotest.(check (option int))
      "wrap b"
      (Some ((2 * round) + 1))
      (Spsc.pop_opt q)
  done

(* ---------- Engine.next_event_time ---------- *)

let test_next_event_time () =
  let eng = Engine.create () in
  Alcotest.(check (option int)) "empty" None (Engine.next_event_time eng);
  let tm = Engine.at eng (us 30) (fun () -> ()) in
  ignore (Engine.at eng (us 50) (fun () -> ()));
  Alcotest.(check (option int)) "earliest" (Some (us 30))
    (Engine.next_event_time eng);
  Engine.cancel eng tm;
  Alcotest.(check (option int)) "skips cancelled" (Some (us 50))
    (Engine.next_event_time eng);
  Engine.run eng;
  Alcotest.(check (option int)) "drained" None (Engine.next_event_time eng)

(* ---------- single-domain mode is the sequential engine ---------- *)

(* A small deterministic world: a few processes exchanging sleeps and
   timers.  Built identically for the plain engine and for the
   domains=1 parallel harness; final time and pending digest must be
   byte-identical because it IS the same code path. *)
let build_little_world eng =
  let hits = ref 0 in
  for i = 1 to 5 do
    ignore (Engine.at eng (us (10 * i)) (fun () -> incr hits))
  done;
  Engine.spawn eng ~name:"sleeper" (fun () ->
      Engine.sleep eng (us 7);
      Engine.sleep eng (us 70));
  hits

let test_single_domain_identity () =
  let eng_ref = Engine.create () in
  let hits_ref = build_little_world eng_ref in
  Engine.run eng_ref;
  let out =
    Parallel.run ~lookahead:(us 10) ~domains:1
      ~build:(fun ~self:_ ~send:_ ->
        let eng = Engine.create () in
        let hits = build_little_world eng in
        ({ Parallel.ep_engine = eng; ep_receive = (fun ~time:_ ~src:_ () -> ()) },
          hits))
      ()
  in
  check_int "windows" 0 out.Parallel.stats.Parallel.windows;
  check_int "crossed" 0 out.Parallel.stats.Parallel.crossed;
  check_int "hits" !hits_ref !(out.Parallel.results.(0));
  check_int "final time" (Engine.now eng_ref) out.Parallel.final_times.(0)

(* ---------- window synchronization ---------- *)

(* Two partitions ping-ponging one message [rounds] times with the
   minimum legal latency: everything about the outcome is deterministic. *)
let ping_pong ~lookahead ~rounds () =
  Parallel.run ~lookahead ~domains:2
    ~build:(fun ~self ~send ->
      let eng = Engine.create () in
      let log = ref [] in
      let ep_receive ~time ~src:_ k =
        ignore
          (Engine.at eng time (fun () ->
               log := (k, Engine.now eng) :: !log;
               if k < rounds then
                 send ~dst:(1 - self) ~time:(Engine.now eng + lookahead)
                   (k + 1)))
      in
      if self = 0 then
        ignore
          (Engine.at eng (us 1) (fun () ->
               send ~dst:1 ~time:(us 1 + lookahead) 1));
      ({ Parallel.ep_engine = eng; ep_receive }, log))
    ()

let test_ping_pong () =
  let lookahead = us 10 in
  let rounds = 6 in
  let out = ping_pong ~lookahead ~rounds () in
  let log i = List.rev !(out.Parallel.results.(i)) in
  (* hop k lands at 1us + k * lookahead, alternating partitions *)
  Alcotest.(check (list (pair int int)))
    "partition 1 hops"
    [ (1, us 1 + lookahead); (3, us 1 + (3 * lookahead)); (5, us 1 + (5 * lookahead)) ]
    (log 1);
  Alcotest.(check (list (pair int int)))
    "partition 0 hops"
    [ (2, us 1 + (2 * lookahead)); (4, us 1 + (4 * lookahead)); (6, us 1 + (6 * lookahead)) ]
    (log 0);
  check_int "crossed" rounds out.Parallel.stats.Parallel.crossed;
  Alcotest.(check bool) "windows counted" true
    (out.Parallel.stats.Parallel.windows > 0)

let test_determinism_double_run () =
  let run () =
    let out = ping_pong ~lookahead:(us 10) ~rounds:9 () in
    ( List.map (fun l -> List.rev !l) (Array.to_list out.Parallel.results),
      Array.to_list out.Parallel.final_times,
      out.Parallel.stats )
  in
  let l1, f1, s1 = run () and l2, f2, s2 = run () in
  Alcotest.(check bool) "same logs" true (l1 = l2);
  Alcotest.(check (list int)) "same finals" f1 f2;
  check_int "same windows" s1.Parallel.windows s2.Parallel.windows;
  check_int "same crossings" s1.Parallel.crossed s2.Parallel.crossed

(* An event scheduled exactly at a window boundary belongs to the next
   window: with lookahead L and only events at 0 and L, the run needs
   two windows, and both events fire at their exact times. *)
let test_boundary_event () =
  let l = us 10 in
  let out =
    Parallel.run ~lookahead:l ~domains:2
      ~build:(fun ~self ~send ->
        ignore send;
        let eng = Engine.create () in
        let fired = ref [] in
        if self = 0 then begin
          ignore (Engine.at eng 0 (fun () -> fired := 0 :: !fired));
          ignore (Engine.at eng l (fun () -> fired := l :: !fired))
        end;
        ( { Parallel.ep_engine = eng;
            ep_receive = (fun ~time:_ ~src:_ () -> ()) },
          fired ))
      ()
  in
  Alcotest.(check (list int)) "both fired, in order" [ 0; l ]
    (List.rev !(out.Parallel.results.(0)));
  check_int "two windows" 2 out.Parallel.stats.Parallel.windows

let ping_pong_with_idle () =
  (* 3 domains, all traffic between 0 and 1; partition 2 publishes
     no-event every window and its clock still follows the run *)
  let lookahead = us 10 in
  Parallel.run ~lookahead ~domains:3
    ~build:(fun ~self ~send ->
      let eng = Engine.create () in
      let ep_receive ~time ~src:_ k =
        ignore
          (Engine.at eng time (fun () ->
               if k < 4 then
                 send ~dst:(1 - self) ~time:(Engine.now eng + lookahead)
                   (k + 1)))
      in
      if self = 0 then
        ignore
          (Engine.at eng (us 1) (fun () -> send ~dst:1 ~time:(us 1 + lookahead) 1));
      ({ Parallel.ep_engine = eng; ep_receive }, ()))
    ()

let test_empty_partition_idles () =
  let out = ping_pong_with_idle () in
  check_int "idle partition tracks the window clock"
    out.Parallel.final_times.(0) out.Parallel.final_times.(2)

let test_lookahead_violation () =
  let raised =
    match
      Parallel.run ~lookahead:(us 10) ~domains:2
        ~build:(fun ~self ~send ->
          let eng = Engine.create () in
          if self = 0 then
            ignore
              (Engine.at eng (us 5) (fun () ->
                   (* us 6 < now + lookahead: unsound, must be refused *)
                   send ~dst:1 ~time:(us 6) ()));
          ( { Parallel.ep_engine = eng;
              ep_receive = (fun ~time:_ ~src:_ () -> ()) },
            () ))
        ()
    with
    | _ -> None
    | exception Parallel.Lookahead_violation { src; dst; time; _ } ->
        Some (src, dst, time)
  in
  match raised with
  | Some (src, dst, time) ->
      check_int "src" 0 src;
      check_int "dst" 1 dst;
      check_int "time" (us 6) time
  | None -> Alcotest.fail "lookahead violation not raised"

let test_send_to_self_rejected () =
  Alcotest.(check bool) "self send is invalid" true
    (match
       Parallel.run ~lookahead:(us 10) ~domains:2
         ~build:(fun ~self ~send ->
           let eng = Engine.create () in
           if self = 0 then
             ignore (Engine.at eng 0 (fun () -> send ~dst:0 ~time:(us 100) ()));
           ( { Parallel.ep_engine = eng;
               ep_receive = (fun ~time:_ ~src:_ () -> ()) },
             () ))
         ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_channel_full () =
  let raised =
    match
      Parallel.run ~channel_capacity:4 ~lookahead:(us 10) ~domains:2
        ~build:(fun ~self ~send ->
          let eng = Engine.create () in
          if self = 0 then
            ignore
              (Engine.at eng 0 (fun () ->
                   for _ = 1 to 5 do
                     send ~dst:1 ~time:(us 100) ()
                   done));
          ( { Parallel.ep_engine = eng;
              ep_receive = (fun ~time:_ ~src:_ () -> ()) },
            () ))
        ()
    with
    | _ -> false
    | exception Parallel.Channel_full { capacity = 4; _ } -> true
  in
  Alcotest.(check bool) "channel overflow surfaces" true raised

(* ---------- pinned single-domain runs (fig6/fig7-shaped worlds) ----------

   The engine changes that enable the parallel scheduler (atomic pids,
   next_event_time) must leave sequential runs byte-identical.  These two
   worlds are shaped like the fig6/fig7 benches (stop-and-wait and
   windowed RMP over a CAB pair); their final simulated time and
   pending-event digest are pinned to the values recorded when the pins
   were introduced — any drift means the sequential path changed. *)

module World = Nectar_fleet.World
module Stack = Nectar_proto.Stack
module Rmp = Nectar_proto.Rmp
module Runtime = Nectar_core.Runtime
module Mailbox = Nectar_core.Mailbox
module Thread = Nectar_core.Thread

let rmp_world ~window ~size ~count =
  let w =
    World.build ~stack:(fun rt -> Stack.create rt ~rmp_window:window ()) ()
  in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"pin-inbox" ~port:920
      ~byte_limit:(128 * 1024) ()
  in
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"pin-sink" (fun ctx ->
         for _ = 1 to count do
           let m = Mailbox.begin_get ctx inbox in
           Mailbox.end_get ctx m
         done));
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"pin-source" (fun ctx ->
         let payload = String.make size 'q' in
         let dst_cab = Stack.node_id b in
         for _ = 1 to count do
           Rmp.send_string ctx a.Stack.rmp ~dst_cab ~dst_port:920 payload
         done;
         Rmp.flush ctx a.Stack.rmp ~dst_cab ~dst_port:920));
  w

let pinned_run ~window ~size ~count =
  let out =
    Parallel.run ~lookahead:1 ~domains:1
      ~build:(fun ~self:_ ~send:_ ->
        let w = rmp_world ~window ~size ~count in
        ( { Parallel.ep_engine = w.eng;
            ep_receive = (fun ~time:_ ~src:_ () -> ()) },
          w ))
      ()
  in
  let w = out.Parallel.results.(0) in
  (out.Parallel.final_times.(0), Engine.pending_digest w.eng)

let test_pinned_fig6_shape () =
  (* fig6 shape: stop-and-wait, one 1 KB message at a time *)
  let final, digest = pinned_run ~window:1 ~size:1024 ~count:8 in
  check_int "final sim time" 1679384 final;
  check_int "pending digest" 0 digest

let test_pinned_fig7_shape () =
  (* fig7 shape: windowed RMP streaming 4 KB messages *)
  let final, digest = pinned_run ~window:4 ~size:4096 ~count:12 in
  check_int "final sim time" 4195784 final;
  check_int "pending digest" 0 digest

(* ---------- keyed Rng streams ---------- *)

let prop_stream_reproducible =
  QCheck.Test.make ~name:"Rng.stream is a pure function of (seed, index)"
    ~count:200
    QCheck.(pair small_int small_nat)
    (fun (seed, index) ->
      let a = Rng.stream ~seed ~index and b = Rng.stream ~seed ~index in
      List.init 16 (fun _ -> Rng.next64 a)
      = List.init 16 (fun _ -> Rng.next64 b))

let prop_stream_independent_of_order =
  QCheck.Test.make
    ~name:"Rng.stream draws are independent of creation order" ~count:100
    QCheck.(small_nat)
    (fun n ->
      let k = 1 + (n mod 8) in
      (* create 0..k-1 in ascending order, draw; then descending *)
      let draw order =
        List.map
          (fun i -> (i, Rng.next64 (Rng.stream ~seed:42 ~index:i)))
          order
        |> List.sort compare
      in
      draw (List.init k (fun i -> i)) = draw (List.init k (fun i -> k - 1 - i)))

let prop_stream_distinct =
  QCheck.Test.make ~name:"Rng.stream neighbours differ" ~count:100
    QCheck.(pair small_int small_nat)
    (fun (seed, index) ->
      Rng.next64 (Rng.stream ~seed ~index)
      <> Rng.next64 (Rng.stream ~seed ~index:(index + 1)))

let () =
  Alcotest.run "parallel"
    [
      ( "spsc",
        [
          Alcotest.test_case "fifo" `Quick test_spsc_fifo;
          Alcotest.test_case "full" `Quick test_spsc_full;
          Alcotest.test_case "wraparound" `Quick test_spsc_wraparound;
        ] );
      ( "engine",
        [ Alcotest.test_case "next_event_time" `Quick test_next_event_time ] );
      ( "windows",
        [
          Alcotest.test_case "single-domain identity" `Quick
            test_single_domain_identity;
          Alcotest.test_case "ping-pong" `Quick test_ping_pong;
          Alcotest.test_case "double-run determinism" `Quick
            test_determinism_double_run;
          Alcotest.test_case "boundary event" `Quick test_boundary_event;
          Alcotest.test_case "empty partition idles" `Quick
            test_empty_partition_idles;
          Alcotest.test_case "lookahead violation" `Quick
            test_lookahead_violation;
          Alcotest.test_case "self send rejected" `Quick
            test_send_to_self_rejected;
          Alcotest.test_case "channel full" `Quick test_channel_full;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "fig6-shaped world" `Quick test_pinned_fig6_shape;
          Alcotest.test_case "fig7-shaped world" `Quick test_pinned_fig7_shape;
        ] );
      ( "rng",
        [
          qtest prop_stream_reproducible;
          qtest prop_stream_independent_of_order;
          qtest prop_stream_distinct;
        ] );
    ]
