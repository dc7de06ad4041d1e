module Engine = Nectar_sim.Engine
module Sim_time = Nectar_sim.Sim_time
module Waitq = Nectar_sim.Waitq
module Net = Nectar_hub.Network
module Frame = Nectar_hub.Frame
module Cab = Nectar_cab.Cab
module Runtime = Nectar_core.Runtime
module Mailbox = Nectar_core.Mailbox
module Message = Nectar_core.Message
module Thread = Nectar_core.Thread
module Stack = Nectar_proto.Stack
module World = Nectar_fleet.World
module Dgram = Nectar_proto.Dgram
module Rmp = Nectar_proto.Rmp
module Tcp = Nectar_proto.Tcp

let sprintf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Micro scenario 1: end_put/signal vs payload write.

   The two-phase put protocol publishes a message in two steps: write the
   payload, then signal the consumer.  The buggy variant issues the signal
   and the write as separate same-time events in the wrong order; whether
   the consumer observes the payload then depends on which same-time event
   fires first.  The default (creation-order) schedule happens to fire the
   write before the woken consumer resumes, so a single run looks clean. *)

let signal_reorder ~buggy () =
  let eng = Engine.create () in
  let cell = ref 0 in
  let observed = ref [] in
  let consumer_done = ref false in
  let ready = Waitq.create eng in
  Engine.spawn eng ~name:"consumer" (fun () ->
      Waitq.wait ready;
      observed := !cell :: !observed;
      consumer_done := true);
  Engine.spawn eng ~name:"producer" (fun () ->
      Engine.sleep eng (Sim_time.us 5);
      if buggy then begin
        ignore
          (Engine.after eng ~label:"end_put.signal" 0 (fun () ->
               ignore (Waitq.signal ready)));
        ignore (Engine.after eng ~label:"payload.write" 0 (fun () -> cell := 42))
      end
      else
        (* the fix is not "create the write first" — the explorer would
           still reorder two separate events — but making the publish
           atomic: payload write and signal in one event *)
        ignore
          (Engine.after eng ~label:"end_put" 0 (fun () ->
               cell := 42;
               ignore (Waitq.signal ready))));
  {
    Explore.engine = eng;
    until = None;
    fingerprint =
      Some
        (fun fp ->
          Fp.int fp !cell;
          Fp.bool fp !consumer_done;
          Fp.list fp Fun.id !observed);
    check_now = None;
    at_end =
      (fun () ->
        let v = ref [] in
        if not !consumer_done then
          v := "deadlock: consumer was never signaled" :: !v
        else if !observed <> [ 42 ] then
          v :=
            sprintf "consumer read [%s] before the payload write (want [42])"
              (String.concat ";" (List.map string_of_int !observed))
            :: !v;
        !v);
  }

(* ------------------------------------------------------------------ *)
(* Micro scenario 2: lost wakeup.

   The buggy consumer polls the queue, then crosses a blocking boundary
   (modelling a slow path that re-enters the scheduler) before parking.
   If the producer's push-and-signal lands inside that window the signal
   finds no waiter — Waitq signals are not sticky — and the consumer
   parks forever.  The producer is spawned first, so the default schedule
   delivers before the consumer ever looks and the bug is invisible.  The
   fixed twin parks atomically with the emptiness check. *)

let lost_wakeup ~buggy () =
  let eng = Engine.create () in
  let queue = Queue.create () in
  let ready = Waitq.create eng in
  let got = ref [] in
  let consumer_done = ref false in
  Engine.spawn eng ~name:"producer" (fun () ->
      Queue.add 7 queue;
      ignore (Waitq.signal ready));
  Engine.spawn eng ~name:"consumer" (fun () ->
      if Queue.is_empty queue then
        if buggy then begin
          Engine.yield eng;
          (* the recheck is missing: anything pushed during the yield is
             ignored and the signal that announced it is already lost *)
          Waitq.wait ready
        end
        else Waitq.wait_releasing ready ~release:(fun () -> ());
      (match Queue.take_opt queue with
      | Some v -> got := v :: !got
      | None -> ());
      consumer_done := true);
  {
    Explore.engine = eng;
    until = None;
    fingerprint =
      Some
        (fun fp ->
          Fp.int fp (Queue.length queue);
          Fp.bool fp !consumer_done;
          Fp.list fp Fun.id !got);
    check_now = None;
    at_end =
      (fun () ->
        let v = ref [] in
        if not !consumer_done then
          v := "deadlock: consumer parked after a missed wakeup" :: !v
        else if !got <> [ 7 ] then
          v :=
            sprintf "consumer took [%s] (want [7])"
              (String.concat ";" (List.map string_of_int !got))
            :: !v;
        !v);
  }

(* ------------------------------------------------------------------ *)
(* Micro scenario 3: retransmit-timer vs ack race.

   A stop-and-wait sender arms a retransmit timer; the ack and the timer
   expiry land on the same tick.  The buggy sender latches a delivery
   failure the instant the timer wins the tie, even though it also
   retransmits and the (already in-flight) ack arrives in the same
   instant.  Event sequence numbers give the ack priority in the default
   schedule, so the false Delivery_timeout only exists in the reordered
   interleaving.  The fixed sender declares failure only after the
   retransmitted copy times out as well. *)

let ack_race ~buggy () =
  let eng = Engine.create () in
  let wire = Sim_time.us 10 in
  let rto = Sim_time.us 20 in
  let delivered = ref [] in
  let acked = ref false in
  let failed = ref false in
  let retransmits = ref 0 in
  let sender_done = ref false in
  let receive_data id =
    if not (List.mem id !delivered) then delivered := id :: !delivered;
    ignore (Engine.after eng ~label:"wire.ack" wire (fun () -> acked := true))
  in
  let send_data id =
    ignore (Engine.after eng ~label:"wire.data" wire (fun () -> receive_data id))
  in
  Engine.spawn eng ~name:"sender" (fun () ->
      send_data 1;
      let deadline = ref (Engine.now eng + rto) in
      let attempts = ref 0 in
      let give_up = ref false in
      while (not !acked) && not !give_up do
        Engine.sleep eng (Sim_time.us 10);
        if (not !acked) && Engine.now eng >= !deadline then
          if !attempts = 0 then begin
            incr retransmits;
            send_data 1;
            if buggy then failed := true;
            attempts := 1;
            deadline := Engine.now eng + rto
          end
          else begin
            failed := true;
            give_up := true
          end
      done;
      sender_done := true);
  {
    Explore.engine = eng;
    until = None;
    fingerprint =
      Some
        (fun fp ->
          Fp.bool fp !acked;
          Fp.bool fp !failed;
          Fp.int fp !retransmits;
          Fp.bool fp !sender_done;
          Fp.list fp Fun.id !delivered);
    check_now = None;
    at_end =
      (fun () ->
        let v = ref [] in
        if !delivered <> [ 1 ] then
          v :=
            sprintf "message delivered %d times (want exactly once)"
              (List.length !delivered)
            :: !v;
        if !failed && !delivered = [ 1 ] then
          v :=
            "sender latched Delivery_timeout for a message that was delivered"
            :: !v;
        if not !sender_done then v := "deadlock: sender never finished" :: !v;
        !v);
  }

(* ------------------------------------------------------------------ *)
(* Micro scenario 4: stale route vs in-flight retransmission.

   A link flap races a stop-and-wait retransmission.  The router's
   link-down detection takes 15us, so the table-invalidation event lands
   on the same tick as the sender's rto expiry.  The buggy sender trusts
   whatever the table holds: if the explorer fires the retransmission
   before the invalidation, the stale entry steers the frame onto the
   dark port where it is silently blackholed — and it was the last
   attempt, so the message is lost.  The default schedule fires the
   invalidation first (it was created earlier), so a single run looks
   clean.  The fixed sender re-validates the cached route against live
   link state before transmitting; a refusal costs no attempt, mirroring
   how Router.Route_down is absorbed by RMP without reaching the wire. *)

let stale_route ~buggy () =
  let eng = Engine.create () in
  let wire = Sim_time.us 8 in
  let rto = Sim_time.us 20 in
  let max_attempts = 2 in
  let link_up = ref true in
  let cached = ref true (* routing-table entry for the primary arc *) in
  let delivered = ref [] in
  let acked = ref false in
  let failed = ref false in
  let retransmits = ref 0 in
  let refusals = ref 0 in
  let blackholed = ref 0 in
  let attempts = ref 0 in
  let sender_done = ref false in
  let receive_data id =
    if not (List.mem id !delivered) then delivered := id :: !delivered;
    ignore (Engine.after eng ~label:"wire.ack" wire (fun () -> acked := true))
  in
  let transmit id =
    incr attempts;
    if !link_up then
      ignore
        (Engine.after eng ~label:"wire.data" wire (fun () ->
             if !link_up then receive_data id else (* lost in flight *) ()))
    else (* stale route onto a dark port: the frame vanishes *)
      incr blackholed
  in
  (* table lookup; the fixed twin re-validates against live link state *)
  let lookup () =
    if !cached then
      if buggy then true
      else if !link_up then true
      else begin
        cached := false;
        false
      end
    else if !link_up then begin
      cached := true;
      true
    end
    else false
  in
  ignore
    (Engine.after eng ~label:"link.down" (Sim_time.us 5) (fun () ->
         link_up := false;
         (* detection delay: the table keeps the dead entry for 15us *)
         ignore
           (Engine.after eng ~label:"route.invalidate" (Sim_time.us 15)
              (fun () -> cached := false))));
  ignore
    (Engine.after eng ~label:"link.up" (Sim_time.us 30) (fun () ->
         link_up := true;
         (* recompute on the up transition repopulates the table *)
         cached := true));
  Engine.spawn eng ~name:"sender" (fun () ->
      transmit 1;
      let deadline = ref (Engine.now eng + rto) in
      let give_up = ref false in
      while (not !acked) && not !give_up do
        Engine.sleep eng (Sim_time.us 10);
        if (not !acked) && Engine.now eng >= !deadline then
          if !attempts < max_attempts then begin
            if lookup () then begin
              incr retransmits;
              transmit 1
            end
            else incr refusals;
            deadline := Engine.now eng + rto
          end
          else begin
            failed := true;
            give_up := true
          end
      done;
      sender_done := true);
  {
    Explore.engine = eng;
    until = None;
    fingerprint =
      Some
        (fun fp ->
          Fp.bool fp !link_up;
          Fp.bool fp !cached;
          Fp.bool fp !acked;
          Fp.bool fp !failed;
          Fp.int fp !attempts;
          Fp.int fp !retransmits;
          Fp.int fp !refusals;
          Fp.int fp !blackholed;
          Fp.bool fp !sender_done;
          Fp.list fp Fun.id !delivered);
    check_now = None;
    at_end =
      (fun () ->
        let v = ref [] in
        if !delivered <> [ 1 ] then
          v :=
            sprintf
              "message delivered %d times (want exactly once): %d \
               retransmission(s) blackholed by a stale route"
              (List.length !delivered) !blackholed
            :: !v;
        if !failed && !delivered = [ 1 ] then
          v := "sender latched failure for a delivered message" :: !v;
        if not !sender_done then v := "deadlock: sender never finished" :: !v;
        !v);
  }

(* ------------------------------------------------------------------ *)
(* Full-runtime scenario: mailbox two-phase put/get with an interrupt-level
   producer racing two threads.  Properties: every message delivered
   exactly once, per-producer order preserved, mailbox drained, both
   threads terminate — in every interleaving, under the vet sanitizers. *)

let mailbox_interrupt () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let cab = Cab.create net ~hub:0 ~port:0 ~name:"cab-a" in
  let rt = Runtime.create cab in
  let mb = Runtime.create_mailbox rt ~name:"inbox" ~port:700 () in
  let delivered = ref [] in
  let irq_drops = ref 0 in
  let producer_done = ref false in
  let consumer_done = ref false in
  Runtime.register_opcode rt ~opcode:1 (fun ictx ~param ->
      match Mailbox.try_begin_put ictx mb 2 with
      | None -> incr irq_drops
      | Some m ->
          Message.set_u16 m 0 param;
          Mailbox.end_put ictx mb m);
  ignore
    (Thread.create cab ~name:"producer" (fun ctx ->
         for i = 1 to 2 do
           let m = Mailbox.begin_put ctx mb 2 in
           Message.set_u16 m 0 i;
           Mailbox.end_put ctx mb m
         done;
         producer_done := true));
  ignore
    (Thread.create cab ~name:"consumer" (fun ctx ->
         for _ = 1 to 3 do
           let m = Mailbox.begin_get ctx mb in
           delivered := Message.get_u16 m 0 :: !delivered;
           Mailbox.end_get ctx m
         done;
         consumer_done := true));
  ignore
    (Engine.after eng ~label:"host.signal" (Sim_time.us 3) (fun () ->
         Runtime.post_to_cab rt ~opcode:1 ~param:9));
  {
    Explore.engine = eng;
    until = None;
    fingerprint =
      Some
        (fun fp ->
          Fp.int fp (Mailbox.queued_messages mb);
          Fp.int fp (Mailbox.queued_bytes mb);
          Fp.int fp !irq_drops;
          Fp.bool fp !producer_done;
          Fp.bool fp !consumer_done;
          Fp.list fp Fun.id !delivered);
    check_now =
      Some
        (fun () ->
          if Mailbox.queued_messages mb > 3 then
            [
              sprintf "mailbox holds %d messages, more than ever put"
                (Mailbox.queued_messages mb);
            ]
          else []);
    at_end =
      (fun () ->
        let v = ref [] in
        if not !producer_done then v := "deadlock: producer stuck" :: !v;
        if not !consumer_done then v := "deadlock: consumer stuck" :: !v;
        if !irq_drops > 0 then
          v := sprintf "%d interrupt put(s) dropped" !irq_drops :: !v;
        let got = List.rev !delivered in
        if List.sort Int.compare got <> [ 1; 2; 9 ] then
          v :=
            sprintf "delivered [%s] (want {1,2,9} exactly once each)"
              (String.concat ";" (List.map string_of_int got))
            :: !v
        else begin
          (* per-producer FIFO: 1 must precede 2 *)
          let rec precedes a b = function
            | [] -> false
            | x :: rest -> if x = a then true else x <> b && precedes a b rest
          in
          if not (precedes 1 2 got) then
            v :=
              sprintf "per-sender order violated: [%s]"
                (String.concat ";" (List.map string_of_int got))
              :: !v
        end;
        if Mailbox.queued_messages mb <> 0 then
          v :=
            sprintf "%d message(s) left queued" (Mailbox.queued_messages mb)
            :: !v;
        !v);
  }

(* ------------------------------------------------------------------ *)
(* Protocol worlds: two stacks from World.build *)

(* RMP retransmit under a dropped data frame: the fault hook eats the
   first frame big enough to be the data frame, forcing the
   retransmission path; in every interleaving the receiver must get the
   payload exactly once and the sender must not count a failure. *)
let rmp_drop () =
  let w = World.build () in
  let eng = w.eng and net = w.net in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let payload = String.make 64 'r' in
  let port = 910 in
  let inbox = Runtime.create_mailbox b.Stack.rt ~name:"rmp-in" ~port () in
  let dropped = ref 0 in
  let data_frame_bytes = 32 + Rmp.header_bytes + String.length payload in
  Net.set_fault_hook net
    (Some
       (fun fr ->
         if !dropped = 0 && Frame.length fr >= data_frame_bytes then begin
           incr dropped;
           `Drop
         end
         else `Deliver));
  let got = ref [] in
  let sender_done = ref false in
  let consumer_done = ref false in
  let dst_cab = Stack.node_id b in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"sender" (fun ctx ->
         Rmp.send_string ctx a.Stack.rmp ~dst_cab ~dst_port:port payload;
         sender_done := true));
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"consumer" (fun ctx ->
         let m = Mailbox.begin_get ctx inbox in
         got := Message.read_string m ~pos:0 ~len:(Message.length m) :: !got;
         Mailbox.end_get ctx m;
         consumer_done := true));
  {
    Explore.engine = eng;
    until = None;
    fingerprint =
      Some
        (fun fp ->
          Fp.int fp !dropped;
          Fp.bool fp !sender_done;
          Fp.bool fp !consumer_done;
          Fp.int fp (Rmp.delivered b.Stack.rmp);
          Fp.int fp (Rmp.retransmits a.Stack.rmp);
          Fp.int fp (Mailbox.queued_messages inbox));
    check_now = None;
    at_end =
      (fun () ->
        let v = ref [] in
        if not !sender_done then v := "deadlock: sender never acked" :: !v;
        if not !consumer_done then v := "deadlock: consumer got nothing" :: !v;
        if !consumer_done && !got <> [ payload ] then
          v := sprintf "receiver got %d payload(s)" (List.length !got) :: !v;
        if Rmp.failed_sends a.Stack.rmp <> 0 then
          v :=
            sprintf "sender counted %d failed send(s) for a delivered message"
              (Rmp.failed_sends a.Stack.rmp)
            :: !v;
        if !dropped = 1 && Rmp.retransmits a.Stack.rmp < 1 then
          v := "data frame dropped but nothing was retransmitted" :: !v;
        !v);
  }

(* TCP three-way handshake plus one segment, time-bounded because the TCP
   stack keeps timers armed.  Established + payload received in every
   interleaving of the handshake's same-time events. *)
let tcp_handshake () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let received = ref [] in
  let client_done = ref false in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      ignore
        (Thread.create (Runtime.cab b.Stack.rt) ~name:"server" (fun ctx ->
             received := Tcp.recv_string ctx conn :: !received)));
  let dst = Stack.addr b in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"client" (fun ctx ->
         let conn = Tcp.connect ctx a.Stack.tcp ~dst ~dst_port:80 () in
         Tcp.send ctx conn "hello";
         client_done := true));
  {
    Explore.engine = eng;
    until = Some (Sim_time.ms 5);
    fingerprint =
      Some
        (fun fp ->
          Fp.bool fp !client_done;
          Fp.int fp (List.length !received);
          List.iter (Fp.string fp) !received;
          Fp.int fp (Tcp.segments_in b.Stack.tcp);
          Fp.int fp (Tcp.segments_out a.Stack.tcp));
    check_now = None;
    at_end =
      (fun () ->
        let v = ref [] in
        if not !client_done then v := "client never reached Established" :: !v;
        if !received <> [ "hello" ] then
          v :=
            sprintf "server received [%s] (want [hello])"
              (String.concat ";" !received)
            :: !v;
        !v);
  }

(* ------------------------------------------------------------------ *)
(* Registry *)

let all : Explore.scenario list =
  [
    {
      name = "signal-reorder";
      descr = "end_put signal issued before the payload write (seeded bug)";
      expect_bug = true;
      vet = false;
      quiesced = true;
      budget = 500;
      build = signal_reorder ~buggy:true;
    };
    {
      name = "signal-reorder-fixed";
      descr = "payload write and signal published atomically in one event";
      expect_bug = false;
      vet = false;
      quiesced = true;
      budget = 500;
      build = signal_reorder ~buggy:false;
    };
    {
      name = "lost-wakeup";
      descr = "consumer re-enters the scheduler between poll and park (seeded bug)";
      expect_bug = true;
      vet = false;
      quiesced = true;
      budget = 500;
      build = lost_wakeup ~buggy:true;
    };
    {
      name = "lost-wakeup-fixed";
      descr = "consumer parks atomically with the emptiness check";
      expect_bug = false;
      vet = false;
      quiesced = true;
      budget = 500;
      build = lost_wakeup ~buggy:false;
    };
    {
      name = "ack-race";
      descr = "sender latches failure when the rto tick beats a same-instant ack (seeded bug)";
      expect_bug = true;
      vet = false;
      quiesced = true;
      budget = 500;
      build = ack_race ~buggy:true;
    };
    {
      name = "ack-race-fixed";
      descr = "sender fails only after the retransmitted copy also times out";
      expect_bug = false;
      vet = false;
      quiesced = true;
      budget = 500;
      build = ack_race ~buggy:false;
    };
    {
      name = "stale-route";
      descr =
        "retransmission trusts a route entry the flap already killed (seeded \
         bug)";
      expect_bug = true;
      vet = false;
      quiesced = true;
      budget = 500;
      build = stale_route ~buggy:true;
    };
    {
      name = "stale-route-fixed";
      descr = "retransmission re-validates the cached route against live links";
      expect_bug = false;
      vet = false;
      quiesced = true;
      budget = 500;
      build = stale_route ~buggy:false;
    };
    {
      name = "mailbox-interrupt";
      descr = "two-phase put/get: thread producer+consumer racing an interrupt put";
      expect_bug = false;
      vet = true;
      quiesced = true;
      budget = 800;
      build = mailbox_interrupt;
    };
    {
      name = "rmp-retransmit-drop";
      descr = "RMP exactly-once delivery across a dropped data frame";
      expect_bug = false;
      vet = true;
      quiesced = true;
      budget = 400;
      build = rmp_drop;
    };
    {
      name = "tcp-handshake";
      descr = "TCP three-way handshake plus one segment, time-bounded";
      expect_bug = false;
      vet = true;
      quiesced = false;
      budget = 300;
      build = tcp_handshake;
    };
  ]

let find name = List.find_opt (fun (s : Explore.scenario) -> s.name = name) all

(* ------------------------------------------------------------------ *)
(* Isolation-audit cases.

   The whitelist for the datagram world, entry by entry:
   - engine: the event wheel holds every node's timers; under the domains
     refactor it stays on the coordinating domain.
   - network: HUB fabric and per-node sinks; the wire is the one sanctioned
     channel between nodes, so descent stops there.
   - max_literal_bytes=64: both stacks name their internal mailboxes and
     threads with the same string literals, which the compiler interns into
     single constant blocks; every mutable buffer in this codebase lives in
     a node's CAB memory, whose backing is at least 4 KB, far above the
     threshold.
   - fillers: the module-level values that pad vacated cells of every
     node's rings (the frame filler of CAB transmit rings, the message
     filler of mailbox queues) and the one empty array of every ring and
     wait queue that has not grown yet.
     Stored into cells, never written through, like the engine's
     dummy-event padding. *)

let fillers =
  [
    ("frame-filler", Obj.repr Frame.filler);
    ("message-filler", Obj.repr Message.dummy);
    ("empty-cells", Obj.repr Nectar_util.Ring.no_cells);
  ]

type audit_case = {
  a_name : string;
  a_descr : string;
  a_expect_shared : bool;
  a_run : unit -> Isolation.report;
}

let run_datagram_traffic eng a b =
  let port = 900 in
  let inbox = Runtime.create_mailbox b.Stack.rt ~name:"iso-in" ~port () in
  let got = ref 0 in
  let dst_cab = Stack.node_id b in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"iso-sender" (fun ctx ->
         for i = 1 to 4 do
           Dgram.send_string ctx a.Stack.dgram ~dst_cab ~dst_port:port
             (sprintf "dgram-%d" i)
         done));
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"iso-consumer" (fun ctx ->
         for _ = 1 to 4 do
           let m = Mailbox.begin_get ctx inbox in
           Mailbox.end_get ctx m;
           incr got
         done));
  Engine.run eng;
  assert (!got = 4)

let audit_world ~plant () =
  let w = World.build () in
  let eng = w.eng and net = w.net in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  run_datagram_traffic eng a b;
  (match plant with
  | `Nothing -> ()
  | `Ref_alias ->
      (* one mutable ref captured by upcall closures on both nodes; the
         mailboxes are port-bound so the runtimes retain them *)
      let shared_counter = ref 0 in
      let mb_a = Runtime.create_mailbox a.Stack.rt ~name:"alias-a" ~port:701 () in
      let mb_b = Runtime.create_mailbox b.Stack.rt ~name:"alias-b" ~port:701 () in
      Mailbox.set_upcall mb_a (Some (fun _ _ -> incr shared_counter));
      Mailbox.set_upcall mb_b (Some (fun _ _ -> incr shared_counter))
  | `Mem_alias ->
      (* node b holds a handle on node a's CAB data memory: the region,
         as a real holder must, so the alias survives a's heap growing *)
      let mem_a = Runtime.mem a.Stack.rt in
      let mb_b =
        Runtime.create_mailbox b.Stack.rt ~name:"alias-mem" ~port:702 ()
      in
      Mailbox.set_upcall mb_b
        (Some (fun _ _ -> Bytes.set (Nectar_util.Region.bytes mem_a) 0 'x'));
      (* grow a's memory after the alias exists: the alias holds the
         region, so it still shares the new backing *)
      let heap_a = Runtime.heap a.Stack.rt in
      Option.iter (Nectar_core.Buffer_heap.free heap_a)
        (Nectar_core.Buffer_heap.alloc heap_a (64 * 1024)));
  Isolation.audit
    ~nodes:[ ("cab-a", [ Obj.repr a ]); ("cab-b", [ Obj.repr b ]) ]
    ~boundary:(("engine", Obj.repr eng) :: ("network", Obj.repr net) :: fillers)
    ~max_literal_bytes:64 ()

(* Partitioned world: two single-hub partitions joined by one boundary
   trunk each way, driven to global quiescence by the parallel scheduler
   (both domains real, one frame crossing in each direction), then
   audited with each partition's world record as a node root.

   Whitelist, entry by entry:
   - engine-0/engine-1: every engine's heap array is padded with the
     module-level dummy-event record, so any two engines share it by
     construction; the engines are per-partition by design and the
     paddings carry no cross-domain information.
   - send-0/send-1: each partition's remote-forward hook captures the
     scheduler's send conduit, which closes over the SPSC channel matrix
     and window bookkeeping — the one sanctioned synchronization point,
     exactly what Parallel.run promises to confine sharing to.
   - the fillers of the datagram world's whitelist.

   The planted variant gives both partitions' sinks a slot in one shared
   counter array (created outside the run): the audit must flag it. *)

module Parallel = Nectar_sim.Parallel
module Byte_fifo = Nectar_sim.Byte_fifo

type part_world = {
  pw_eng : Engine.t;
  pw_net : Net.t;
  mutable pw_delivered : int;
}

let audit_partitioned ~plant () =
  let latency_ns = 5_000 in
  let shared_counts = Array.make 2 0 in
  let sends = Array.make 2 None in
  let build ~self ~send =
    sends.(self) <- Some send;
    let eng = Engine.create () in
    let net = Net.create eng ~hubs:1 () in
    Net.connect_remote net (0, 13) ~link:(1 - self) ~latency_ns;
    let w = { pw_eng = eng; pw_net = net; pw_delivered = 0 } in
    let fifo = Byte_fifo.create eng ~capacity:4096 ~name:"part-in" in
    (* built apart so the clean variant's sink closure does not capture
       the counter array at all *)
    let planted_bump =
      if plant then
        Some (fun () -> shared_counts.(self) <- shared_counts.(self) + 1)
      else None
    in
    let sink =
      {
        Net.in_fifo = fifo;
        on_frame_start = (fun _ -> ());
        on_chunk =
          (fun frame ~arrived:_ ~last ->
            if last then begin
              ignore (Byte_fifo.try_pop fifo (Frame.length frame));
              Frame.release frame;
              w.pw_delivered <- w.pw_delivered + 1;
              match planted_bump with Some f -> f () | None -> ()
            end);
      }
    in
    let local = Net.attach_node net ~hub:0 ~port:0 sink in
    Engine.spawn eng ~name:(sprintf "part%d-src" self) (fun () ->
        Engine.sleep eng ((self + 1) * 1_000);
        let frame =
          Frame.create ~id:(100 + self) ~src:self
            ~data:(Bytes.make 256 'p')
        in
        (* port 13 crosses the boundary; the far partition finishes the
           route at its own seat port 0 *)
        Net.transmit net ~src:local ~route:[ 13; 0 ] frame);
    Net.set_remote_forward net
      (Some
         (fun ~link ~at ~route ~src ~frame_id ~wire_crc ~payload ->
           send ~dst:link ~time:at (route, src, frame_id, wire_crc, payload)));
    let ep_receive ~time ~src:_ (route, src, frame_id, wire_crc, payload) =
      ignore
        (Engine.at eng time (fun () ->
             Net.inject net ~hub:0 ~src ~frame_id ~wire_crc ~route payload))
    in
    ({ Parallel.ep_engine = eng; ep_receive }, w)
  in
  let out = Parallel.run ~lookahead:latency_ns ~domains:2 ~build () in
  let w0 = out.Parallel.results.(0) and w1 = out.Parallel.results.(1) in
  assert (w0.pw_delivered = 1 && w1.pw_delivered = 1);
  let conduit i = Obj.repr (Option.get sends.(i)) in
  Isolation.audit
    ~nodes:[ ("part-0", [ Obj.repr w0 ]); ("part-1", [ Obj.repr w1 ]) ]
    ~boundary:
      ([
         ("engine-0", Obj.repr w0.pw_eng);
         ("engine-1", Obj.repr w1.pw_eng);
         ("send-0", conduit 0);
         ("send-1", conduit 1);
       ]
      @ fillers)
    ~max_literal_bytes:64 ()

let audits : audit_case list =
  [
    {
      a_name = "datagram-2node";
      a_descr = "two stacks after datagram traffic: no cross-node state";
      a_expect_shared = false;
      a_run = audit_world ~plant:`Nothing;
    };
    {
      a_name = "planted-ref-alias";
      a_descr = "upcalls on both nodes capture one mutable ref";
      a_expect_shared = true;
      a_run = audit_world ~plant:`Ref_alias;
    };
    {
      a_name = "planted-mem-alias";
      a_descr = "node b captures node a's CAB memory region";
      a_expect_shared = true;
      a_run = audit_world ~plant:`Mem_alias;
    };
    {
      a_name = "partitioned-2dom";
      a_descr =
        "two real domains exchanging boundary frames: no shared mutable \
         state outside the engine/conduit whitelist";
      a_expect_shared = false;
      a_run = audit_partitioned ~plant:false;
    };
    {
      a_name = "planted-partition-alias";
      a_descr = "both partitions' sinks write one counter array";
      a_expect_shared = true;
      a_run = audit_partitioned ~plant:true;
    };
  ]

let find_audit name = List.find_opt (fun c -> c.a_name = name) audits
