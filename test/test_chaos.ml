(* Fault injection and graceful degradation: loss/corruption-rate sweeps
   over RMP, request-response, DSM and distributed commit (eventual
   delivery below the retry budget, clean typed errors above it), bounded
   mailboxes, the TCP retransmission budget, and campaign determinism. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
module Net = Nectar_hub.Network
module Chaos = Nectar_chaos.Chaos
module Plan = Nectar_chaos.Chaos.Plan
module World = Nectar_fleet.World
module Dsm = Nectar_dsm.Dsm
module Commit = Nectar_txn.Commit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let port = 700

let wire_faults ?(drop = 0.0) ?(corrupt = 0.0) ?(burst = 1) ~seed w =
  Chaos.install w
    {
      Plan.seed;
      steps = [ Plan.step Sim_time.zero (Plan.Wire_faults { drop; corrupt; burst }) ];
    }

let counting_sink (st : Stack.t) =
  let count = ref 0 in
  let inbox =
    Runtime.create_mailbox st.Stack.rt ~name:"sink" ~port
      ~byte_limit:(64 * 1024) ()
  in
  ignore
    (Thread.create (Runtime.cab st.Stack.rt) ~name:"sink" (fun ctx ->
         while true do
           let m = Mailbox.begin_get ctx inbox in
           Mailbox.end_get ctx m;
           incr count
         done));
  count

(* ---------- RMP sweeps ---------- *)

let rmp_run ~drop ~seed ~count =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  wire_faults ~drop ~seed w;
  let received = counting_sink b in
  let ok = ref 0 and err = ref 0 in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"src" (fun ctx ->
         for _ = 1 to count do
           (match
              Rmp.send_string ctx a.Stack.rmp ~dst_cab:(Stack.node_id b)
                ~dst_port:port (String.make 128 'x')
            with
           | () -> incr ok
           | exception Rmp.Delivery_timeout _ -> incr err);
           Engine.sleep ctx.Ctx.eng (Sim_time.us 200)
         done));
  Engine.run w.eng;
  (!ok, !err, !received)

let test_rmp_loss_sweep () =
  List.iter
    (fun drop ->
      let ok, err, received = rmp_run ~drop ~seed:7 ~count:20 in
      check_int (Printf.sprintf "all delivered at drop %.2f" drop) 20 ok;
      check_int (Printf.sprintf "no errors at drop %.2f" drop) 0 err;
      check_int (Printf.sprintf "all received at drop %.2f" drop) 20 received)
    [ 0.0; 0.05; 0.2 ]

let test_rmp_blackhole () =
  let ok, err, received = rmp_run ~drop:1.0 ~seed:7 ~count:3 in
  check_int "nothing delivered" 0 ok;
  check_int "every send errored with Delivery_timeout" 3 err;
  check_int "nothing received" 0 received

(* ---------- sliding-window RMP (beyond the paper) ---------- *)

(* Like [rmp_run] but over stacks built with an explicit RMP window, with
   every payload stamped with its 1-based index so the sink can verify
   in-order exactly-once delivery.  [stack = None] uses the default
   stack (implicit window 1) for the equivalence test below. *)
let windowed_run ?stack ~drop ~seed ~count () =
  let w = World.build ?stack () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  wire_faults ~drop ~seed w;
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"sink" ~port
      ~byte_limit:(256 * 1024) ()
  in
  let got = ref [] in
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"sink" (fun ctx ->
         while true do
           let m = Mailbox.begin_get ctx inbox in
           got := Message.get_u32 m 0 :: !got;
           Mailbox.end_get ctx m
         done));
  let ok = ref 0 and err = ref 0 in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"src" (fun ctx ->
         try
           for i = 1 to count do
             let msg = Rmp.alloc ctx a.Stack.rmp 128 in
             Message.set_u32 msg 0 i;
             Rmp.send ctx a.Stack.rmp ~dst_cab:(Stack.node_id b)
               ~dst_port:port msg;
             incr ok
           done;
           Rmp.flush ctx a.Stack.rmp ~dst_cab:(Stack.node_id b) ~dst_port:port
         with Rmp.Delivery_timeout _ -> incr err));
  Engine.run w.eng;
  let counters =
    ( Rmp.delivered b.Stack.rmp,
      Rmp.duplicates b.Stack.rmp,
      Rmp.retransmits a.Stack.rmp,
      Rmp.failed_sends a.Stack.rmp )
  in
  (!ok, !err, List.rev !got, counters, Engine.now w.eng)

let windowed_opts ~window (rt : Runtime.t) =
  Stack.create rt ~rmp_window:window ()

let test_rmp_windowed_loss_sweep () =
  List.iter
    (fun window ->
      List.iter
        (fun drop ->
          let name fmt =
            Printf.sprintf "%s at window %d drop %.2f" fmt window drop
          in
          (* under the full vet battery: the windowed receiver holds
             stashed out-of-order frames in two-phase puts, and every one
             must be released by the end of the run *)
          let outcome, findings =
            Nectar_vet.Vet.run (fun () ->
                windowed_run
                  ~stack:(windowed_opts ~window)
                  ~drop ~seed:7 ~count:20 ())
          in
          check_int (name "vet clean") 0 (List.length findings);
          let ok, err, got, (delivered, _dups, retx, failed), _ =
            match outcome with Ok r -> r | Error e -> raise e
          in
          check_int (name "all sends admitted") 20 ok;
          check_int (name "no errors") 0 err;
          check_int (name "delivered counter") 20 delivered;
          check_int (name "no abandoned sends") 0 failed;
          check_bool (name "in order, exactly once") true
            (got = List.init 20 (fun i -> i + 1));
          if drop = 0.0 then
            check_int (name "no retransmits on a clean wire") 0 retx
          else
            check_bool (name "losses were repaired by retransmission") true
              (retx > 0))
        [ 0.0; 0.05; 0.2 ])
    [ 1; 4; 16 ]

(* A stack built with ~rmp_window:1 must be byte-identical to the default
   stop-and-wait: same counters and the same final simulated time. *)
let test_rmp_window1_is_stop_and_wait () =
  let run stack = windowed_run ?stack ~drop:0.2 ~seed:7 ~count:20 () in
  let ok_d, err_d, got_d, counters_d, end_d = run None in
  let ok_1, err_1, got_1, counters_1, end_1 =
    run (Some (windowed_opts ~window:1))
  in
  check_int "ok equal" ok_d ok_1;
  check_int "err equal" err_d err_1;
  check_bool "delivery order equal" true (got_d = got_1);
  check_bool "counters equal" true (counters_d = counters_1);
  check_int "final simulated time equal" end_d end_1

(* ---------- request-response sweeps ---------- *)

let rpc_run ~drop ~seed ~count =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  wire_faults ~drop ~seed w;
  Reqresp.register_server b.Stack.reqresp ~port ~mode:Reqresp.Thread_server
    (fun _ req -> req);
  let ok = ref 0 and err = ref 0 in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"caller" (fun ctx ->
         for _ = 1 to count do
           (match
              Reqresp.call ctx a.Stack.reqresp ~dst_cab:(Stack.node_id b)
                ~dst_port:port (String.make 64 'q')
            with
           | (_ : string) -> incr ok
           | exception Reqresp.Call_timeout _ -> incr err);
           Engine.sleep ctx.Ctx.eng (Sim_time.us 300)
         done));
  Engine.run w.eng;
  (!ok, !err)

let test_rpc_loss_sweep () =
  List.iter
    (fun drop ->
      let ok, err = rpc_run ~drop ~seed:11 ~count:15 in
      check_int (Printf.sprintf "all calls ok at drop %.2f" drop) 15 ok;
      check_int (Printf.sprintf "no errors at drop %.2f" drop) 0 err)
    [ 0.0; 0.1 ]

let test_rpc_blackhole () =
  let ok, err = rpc_run ~drop:1.0 ~seed:11 ~count:2 in
  check_int "nothing completed" 0 ok;
  check_int "every call errored with Call_timeout" 2 err

(* ---------- burst corruption vs the hardware CRC ---------- *)

let test_burst_corruption_crc () =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  wire_faults ~corrupt:0.3 ~burst:4 ~seed:13 w;
  let received = counting_sink b in
  let ok = ref 0 in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"src" (fun ctx ->
         for _ = 1 to 15 do
           Rmp.send_string ctx a.Stack.rmp ~dst_cab:(Stack.node_id b)
             ~dst_port:port (String.make 256 'k');
           incr ok;
           Engine.sleep ctx.Ctx.eng (Sim_time.us 200)
         done));
  Engine.run w.eng;
  check_int "every message eventually delivered" 15 !received;
  check_int "sender saw no error" 15 !ok;
  check_bool "the wire corrupted some frames" true
    (Net.frames_corrupted w.net > 0);
  check_bool "the receive-side hardware CRC rejected and counted them" true
    (Datalink.drops_crc b.Stack.dl > 0);
  check_int "corrupted frames were counted as delivered by the wire"
    (Net.frames_sent w.net)
    (Net.frames_delivered w.net)

(* ---------- DSM under loss ---------- *)

let run_on (stack : Stack.t) f =
  Engine.suspend (fun resume ->
      ignore
        (Thread.create (Runtime.cab stack.Stack.rt) ~name:"dsm-op" (fun ctx ->
             resume (f ctx))))

let test_dsm_under_loss () =
  let w = World.build () in
  wire_faults ~drop:0.05 ~seed:17 w;
  let stacks = Array.to_list w.stacks in
  let dsm = Dsm.create stacks ~pages:4 ~page_bytes:256 in
  let n0 = Dsm.node dsm 0 and n1 = Dsm.node dsm 1 in
  let s0 = List.nth stacks 0 and s1 = List.nth stacks 1 in
  let got = ref "" and got_back = ref "" in
  Engine.spawn w.eng (fun () ->
      run_on s0 (fun ctx -> Dsm.write ctx n0 ~addr:64 "lossy-but-true");
      got := run_on s1 (fun ctx -> Dsm.read ctx n1 ~addr:64 ~len:14);
      run_on s1 (fun ctx -> Dsm.write ctx n1 ~addr:64 "overwritten-ok");
      got_back := run_on s0 (fun ctx -> Dsm.read ctx n0 ~addr:64 ~len:14));
  Engine.run w.eng;
  check_string "remote read sees the write through loss" "lossy-but-true" !got;
  check_string "ownership migrated back through loss" "overwritten-ok"
    !got_back

(* ---------- distributed commit ---------- *)

let test_txn_crashed_participant_aborts () =
  let w = World.build ~seats:(World.ports 4) () in
  let stacks = Array.to_list w.stacks in
  let coord_stack = List.hd stacks in
  let parts = List.map (fun s -> Commit.participant s ()) (List.tl stacks) in
  ignore parts;
  let coord = Commit.coordinator coord_stack in
  (* participant on stack 2 is dark for the whole run: no vote, so abort *)
  Chaos.install w
    {
      Plan.seed = 19;
      steps = [ Plan.step Sim_time.zero (Plan.Node_power { node = 2; up = false }) ];
    };
  let outcome = ref `Committed in
  ignore
    (Thread.create (Runtime.cab coord_stack.Stack.rt) ~name:"txn" (fun ctx ->
         outcome :=
           Commit.run ctx coord ~participants:[ 1; 2; 3 ] ~payload:"debit 10"));
  Engine.run w.eng;
  check_bool "a crashed participant forces abort" true (!outcome = `Aborted)

let test_txn_mild_loss_commits () =
  let w = World.build ~seats:(World.ports 4) () in
  wire_faults ~drop:0.03 ~seed:23 w;
  let stacks = Array.to_list w.stacks in
  let coord_stack = List.hd stacks in
  let parts = List.map (fun s -> Commit.participant s ()) (List.tl stacks) in
  ignore parts;
  let coord = Commit.coordinator coord_stack in
  let outcome = ref `Aborted in
  ignore
    (Thread.create (Runtime.cab coord_stack.Stack.rt) ~name:"txn" (fun ctx ->
         outcome :=
           Commit.run ctx coord ~participants:[ 1; 2; 3 ] ~payload:"debit 10"));
  Engine.run w.eng;
  check_bool "mild loss is retried through to commit" true
    (!outcome = `Committed)

(* ---------- bounded mailboxes ---------- *)

let test_mailbox_drop_policy () =
  let w = World.build ~seats:(World.ports 1) () in
  let a = w.stacks.(0) in
  let mb =
    Runtime.create_mailbox a.Stack.rt ~name:"bounded-drop"
      ~byte_limit:(16 * 1024) ~capacity:2 ~overflow:`Drop ()
  in
  let drops = ref (-1) and queued = ref (-1) and read = ref 0 in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"producer" (fun ctx ->
         for i = 1 to 5 do
           let m = Mailbox.begin_put ctx mb 32 in
           Message.set_u8 m 0 i;
           Mailbox.end_put ctx mb m
         done;
         drops := Mailbox.overflow_drops mb;
         queued := Mailbox.queued_messages mb;
         while Mailbox.queued_messages mb > 0 do
           let m = Mailbox.begin_get ctx mb in
           Mailbox.end_get ctx m;
           incr read
         done));
  Engine.run w.eng;
  check_int "three of five puts tail-dropped" 3 !drops;
  check_int "two stayed queued" 2 !queued;
  check_int "the queued two were readable" 2 !read

let test_mailbox_block_policy () =
  let w = World.build ~seats:(World.ports 1) () in
  let a = w.stacks.(0) in
  let mb =
    Runtime.create_mailbox a.Stack.rt ~name:"bounded-block"
      ~byte_limit:(16 * 1024) ~capacity:1 ~overflow:`Block ()
  in
  let full_refused = ref false and after_drain = ref false in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"producer" (fun ctx ->
         let m = Mailbox.begin_put ctx mb 32 in
         Mailbox.end_put ctx mb m;
         full_refused := Mailbox.try_begin_put ctx mb 32 = None;
         let g = Mailbox.begin_get ctx mb in
         Mailbox.end_get ctx g;
         (match Mailbox.try_begin_put ctx mb 32 with
         | Some m2 ->
             after_drain := true;
             Mailbox.end_put ctx mb m2;
             let g2 = Mailbox.begin_get ctx mb in
             Mailbox.end_get ctx g2
         | None -> ())));
  Engine.run w.eng;
  check_bool "a full `Block mailbox refuses try_begin_put" true !full_refused;
  check_bool "draining reopens it" true !after_drain;
  check_int "`Block never tail-drops" 0 (Mailbox.overflow_drops mb)

(* Overflow accounting over a lossy wire: a capacity-bounded `Drop
   mailbox fed by RMP through 5% frame loss.  Every RMP send lands
   exactly once at the mailbox, which either queues or tail-drops it —
   so reads + overflow_drops must equal the offered count.  Run under
   vet so the refcount hooks audit every dropped message's release. *)
let test_mailbox_drop_lossy_wire () =
  let sends = 40 in
  let result, findings =
    Nectar_vet.Vet.run (fun () ->
        let w = World.build () in
        let a = w.stacks.(0) and b = w.stacks.(1) in
        wire_faults ~drop:0.05 ~seed:33 w;
        let mb =
          Runtime.create_mailbox b.Stack.rt ~name:"bounded-drop" ~port
            ~byte_limit:(16 * 1024) ~capacity:4 ~overflow:`Drop ()
        in
        let read = ref 0 in
        ignore
          (Thread.create (Runtime.cab b.Stack.rt) ~name:"slow-sink"
             (fun ctx ->
               while true do
                 let m = Mailbox.begin_get ctx mb in
                 Mailbox.end_get ctx m;
                 incr read;
                 (* drain slower than the wire delivers, forcing overflow *)
                 Engine.sleep ctx.Ctx.eng (Sim_time.us 500)
               done));
        ignore
          (Thread.create (Runtime.cab a.Stack.rt) ~name:"src" (fun ctx ->
               for _ = 1 to sends do
                 Rmp.send_string ctx a.Stack.rmp ~dst_cab:(Stack.node_id b)
                   ~dst_port:port (String.make 64 'm')
               done));
        Engine.run w.eng;
        let drops = Mailbox.overflow_drops mb in
        check_bool "the bounded mailbox did overflow" true (drops > 0);
        check_int "reads + tail-drops = offered" sends (!read + drops))
  in
  (match result with Ok () -> () | Error e -> raise e);
  check_int "no vet findings" 0 (List.length findings)

(* ---------- TCP retransmission budget ---------- *)

let test_tcp_budget_timeout () =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  Chaos.install w
    {
      Plan.seed = 29;
      steps = [ Plan.step (Sim_time.ms 5) (Plan.Node_power { node = 1; up = false }) ];
    };
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      ignore
        (Thread.create (Runtime.cab b.Stack.rt) ~name:"tcp-sink" (fun ctx ->
             while true do
               ignore (Tcp.recv_string ctx conn)
             done)));
  let the_conn = ref None and timed_out = ref false and reset = ref false in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"tcp-src" (fun ctx ->
         let conn =
           Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 ()
         in
         the_conn := Some conn;
         try
           for _ = 1 to 100 do
             Tcp.send ctx conn (String.make 1024 't')
           done
         with
         | Tcp.Connection_timed_out -> timed_out := true
         | Tcp.Connection_reset -> reset := true));
  Engine.run w.eng;
  check_bool "send surfaced Connection_timed_out" true !timed_out;
  check_bool "budget abort is not reported as a peer reset" false !reset;
  check_bool "Tcp.failure reports `Timed_out" true
    (match !the_conn with Some c -> Tcp.failure c = `Timed_out | None -> false)

(* ---------- Nectarine typed errors ---------- *)

let test_nectarine_typed_errors () =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  wire_faults ~drop:1.0 ~seed:31 w;
  let na = Nectarine.cab_node a in
  let result = ref (Ok ()) in
  Nectarine.spawn na ~name:"typed-err" (fun ctx ->
      result :=
        Nectarine.send_result ctx na
          ~dst:{ Nectarine.cab = Stack.node_id b; port }
          "into the void");
  Engine.run w.eng;
  (match !result with
  | Error (Nectarine.Delivery_timeout { Nectarine.cab; port = p }) ->
      check_int "error names the destination cab" (Stack.node_id b) cab;
      check_int "error names the destination port" port p
  | Error e -> Alcotest.failf "wrong error: %s" (Nectarine.string_of_error e)
  | Ok () -> Alcotest.fail "send across a dark wire reported success");
  check_bool "string_of_error renders" true
    (String.length
       (Nectarine.string_of_error
          (Nectarine.Delivery_timeout { Nectarine.cab = 1; port }))
    > 0)

(* ---------- campaign determinism ---------- *)

let test_campaign_determinism () =
  List.iter
    (fun name ->
      let c =
        List.find (fun c -> c.Chaos.cname = name) Chaos.campaigns
      in
      let o1 = Chaos.run_campaign ~seed:42 c in
      let o2 = Chaos.run_campaign ~seed:42 c in
      check_bool (name ^ " is clean at seed 42") true (Chaos.clean o1);
      check_bool (name ^ " is deterministic") true (Chaos.outcome_equal o1 o2))
    [ "wire-loss-rmp"; "cab-crash" ]

let () =
  Alcotest.run "chaos"
    [
      ( "rmp",
        [
          Alcotest.test_case "loss sweep" `Quick test_rmp_loss_sweep;
          Alcotest.test_case "blackhole" `Quick test_rmp_blackhole;
          Alcotest.test_case "windowed loss sweep" `Quick
            test_rmp_windowed_loss_sweep;
          Alcotest.test_case "window 1 = stop-and-wait" `Quick
            test_rmp_window1_is_stop_and_wait;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "loss sweep" `Quick test_rpc_loss_sweep;
          Alcotest.test_case "blackhole" `Quick test_rpc_blackhole;
        ] );
      ( "wire",
        [
          Alcotest.test_case "burst corruption vs CRC" `Quick
            test_burst_corruption_crc;
        ] );
      ("dsm", [ Alcotest.test_case "under loss" `Quick test_dsm_under_loss ]);
      ( "txn",
        [
          Alcotest.test_case "crashed participant aborts" `Quick
            test_txn_crashed_participant_aborts;
          Alcotest.test_case "mild loss commits" `Quick
            test_txn_mild_loss_commits;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "drop policy" `Quick test_mailbox_drop_policy;
          Alcotest.test_case "block policy" `Quick test_mailbox_block_policy;
          Alcotest.test_case "drop accounting over a lossy wire" `Quick
            test_mailbox_drop_lossy_wire;
        ] );
      ( "tcp",
        [ Alcotest.test_case "budget timeout" `Quick test_tcp_budget_timeout ] );
      ( "nectarine",
        [
          Alcotest.test_case "typed errors" `Quick test_nectarine_typed_errors;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "determinism" `Quick test_campaign_determinism;
        ] );
    ]
