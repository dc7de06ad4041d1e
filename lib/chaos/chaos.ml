(* Seeded fault-injection campaigns over the whole simulated machine.

   A campaign builds a small world, installs a fault {!Plan} (scripted
   schedule steps plus PRNG-drawn fault rates from the sim's splitmix64 —
   same seed, same faults, same trace), drives protocol traffic whose
   threads catch the typed transport errors, and asserts end-of-run
   invariants: the simulator quiesced, the wire conserved every frame
   ([frames_sent = delivered + fault_drops + link_down_drops]), every
   request was delivered or cleanly errored, and (via the vet checkers the
   runner installs around the campaign) no heap block or message leaked. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
module Net = Nectar_hub.Network
module Cab = Nectar_cab.Cab
module Vme = Nectar_cab.Vme
module Vet = Nectar_vet.Vet
module Router = Nectar_route.Router
module Topology = Nectar_fleet.Topology
module World = Nectar_fleet.World

(* ---------- fault plans ---------- *)

module Plan = struct
  type action =
    | Wire_faults of { drop : float; corrupt : float; burst : int }
    | Wire_ok
    | Link of { hub : int; port : int; up : bool }
    | Node_power of { node : int; up : bool }
    | Vme_errors of { node : int; rate : float }
    | Alloc_failures of { node : int; rate : float }
    | Signal_outage of { node : int; span : Sim_time.span }

  type step = { at : Sim_time.t; act : action }

  type t = { seed : int; steps : step list }

  let step at act = { at; act }
end

let driver (w : World.t) i =
  match List.assoc_opt i w.drivers with
  | Some d -> d
  | None -> invalid_arg "Chaos: fault plan names a node with no host attached"

let apply (w : World.t) rng (act : Plan.action) =
  match act with
  | Plan.Wire_faults { drop; corrupt; burst } ->
      Net.set_fault_hook w.net
        (Some
           (fun _frame ->
             let x = Rng.float rng 1.0 in
             if x < drop then `Drop
             else if x < drop +. corrupt then
               if burst <= 1 then `Corrupt else `Corrupt_burst burst
             else `Deliver))
  | Plan.Wire_ok -> Net.set_fault_hook w.net None
  | Plan.Link { hub; port; up } -> Net.set_link_up w.net ~hub ~port up
  | Plan.Node_power { node; up } ->
      let cab = Runtime.cab w.stacks.(node).Stack.rt in
      if up then Cab.restart cab else Cab.crash cab
  | Plan.Vme_errors { node; rate } ->
      let vme = Cab_driver.vme (driver w node) in
      if rate <= 0. then Vme.set_fault_hook vme None
      else Vme.set_fault_hook vme (Some (fun () -> Rng.float rng 1.0 < rate))
  | Plan.Alloc_failures { node; rate } ->
      let heap = Runtime.heap w.stacks.(node).Stack.rt in
      if rate <= 0. then Buffer_heap.set_fault_hook heap None
      else
        Buffer_heap.set_fault_hook heap
          (Some (fun _bytes -> Rng.float rng 1.0 < rate))
  | Plan.Signal_outage { node; span } ->
      let rt = w.stacks.(node).Stack.rt in
      Runtime.set_signal_fault rt (Some (fun () -> true));
      ignore
        (Engine.after w.eng span (fun () -> Runtime.set_signal_fault rt None))

let install (w : World.t) (plan : Plan.t) =
  let rng = Rng.create ~seed:plan.seed in
  List.iter
    (fun { Plan.at; act } ->
      if at <= Engine.now w.eng then apply w rng act
      else ignore (Engine.at w.eng at (fun () -> apply w rng act)))
    plan.steps

(* ---------- campaign outcomes ---------- *)

type outcome = {
  name : string;
  seed : int;
  stats : (string * int) list;
  failures : string list;  (** violated end-of-run invariants *)
  findings : Vet.finding list;
}

type campaign = {
  cname : string;
  about : string;
  quiesced : bool;
  body : seed:int -> (string * int) list * string list;
}

let run_campaign ?(seed = 1990) c =
  let result, findings = Vet.run ~quiesced:c.quiesced (fun () -> c.body ~seed) in
  let stats, failures =
    match result with
    | Ok (stats, failures) -> (stats, failures)
    | Error e -> ([], [ "campaign raised: " ^ Printexc.to_string e ])
  in
  { name = c.cname; seed; stats; failures; findings }

(* Finding messages can embed process-global counters (message uids), so
   determinism is judged on stats, failures and finding kinds. *)
let outcome_equal a b =
  let kinds o =
    List.map (fun f -> (f.Vet.checker, f.Vet.severity)) o.findings
  in
  a.name = b.name && a.seed = b.seed && a.stats = b.stats
  && a.failures = b.failures && kinds a = kinds b

let clean o =
  o.failures = []
  && List.for_all (fun f -> f.Vet.severity = Vet.Info) o.findings

(* ---------- invariant and traffic helpers ---------- *)

let expect failures cond msg = if not cond then failures := msg :: !failures

let check_wire_conservation (w : World.t) failures =
  let sent = Net.frames_sent w.net
  and delivered = Net.frames_delivered w.net
  and faulted = Net.fault_drops w.net
  and dark = Net.link_down_drops w.net in
  expect failures
    (sent = delivered + faulted + dark)
    (Printf.sprintf
       "wire conservation violated: %d sent <> %d delivered + %d fault drops \
        + %d link-down drops"
       sent delivered faulted dark)

let wire_stats (w : World.t) =
  [
    ("frames_sent", Net.frames_sent w.net);
    ("frames_delivered", Net.frames_delivered w.net);
    ("fault_drops", Net.fault_drops w.net);
    ("frames_corrupted", Net.frames_corrupted w.net);
    ("link_down_drops", Net.link_down_drops w.net);
  ]

(* A sink thread that drains a mailbox forever, counting messages. *)
let counting_sink st ~port =
  let count = ref 0 in
  let inbox =
    Runtime.create_mailbox st.Stack.rt ~name:"chaos-sink" ~port
      ~byte_limit:(64 * 1024) ()
  in
  ignore
    (Thread.create (Runtime.cab st.Stack.rt) ~name:"chaos-sink" (fun ctx ->
         while true do
           let m = Mailbox.begin_get ctx inbox in
           Mailbox.end_get ctx m;
           incr count
         done));
  count

(* A sender thread issuing [count] RMP messages, catching the typed
   delivery failure (an escaping exception would kill the whole run). *)
let rmp_sender st ~dst_cab ~port ~count ~bytes ~gap ~ok ~err =
  ignore
    (Thread.create (Runtime.cab st.Stack.rt) ~name:"chaos-rmp-send"
       (fun ctx ->
         let payload = String.make bytes 'c' in
         for _ = 1 to count do
           (match
              Rmp.send_string ctx st.Stack.rmp ~dst_cab ~dst_port:port payload
            with
           | () -> incr ok
           | exception Rmp.Delivery_timeout _ -> incr err);
           if gap > 0 then Engine.sleep ctx.Ctx.eng gap
         done))

let rpc_caller st ~dst_cab ~port ~count ~bytes ~gap ~ok ~err =
  ignore
    (Thread.create (Runtime.cab st.Stack.rt) ~name:"chaos-rpc-call"
       (fun ctx ->
         let payload = String.make bytes 'q' in
         for _ = 1 to count do
           (match
              Reqresp.call ctx st.Stack.reqresp ~dst_cab ~dst_port:port
                payload
            with
           | (_ : string) -> incr ok
           | exception Reqresp.Call_timeout _ -> incr err);
           if gap > 0 then Engine.sleep ctx.Ctx.eng gap
         done))

let echo_server st ~port =
  Reqresp.register_server st.Stack.reqresp ~port ~mode:Reqresp.Thread_server
    (fun _ctx request -> request)

(* ---------- campaigns ---------- *)

let port = 700

let wire_loss_rmp ~seed =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  install w
    {
      Plan.seed;
      steps =
        [
          Plan.step Sim_time.zero
            (Plan.Wire_faults { drop = 0.08; corrupt = 0.04; burst = 3 });
        ];
    };
  let received = counting_sink b ~port in
  let ok = ref 0 and err = ref 0 in
  rmp_sender a ~dst_cab:(Stack.node_id b) ~port ~count:40 ~bytes:256
    ~gap:(Sim_time.us 200) ~ok ~err;
  Engine.run w.eng;
  let failures = ref [] in
  expect failures (!ok + !err = 40) "not every send completed or errored";
  expect failures (!err = 0) "delivery failed below the retry budget";
  expect failures (!received = 40) "receiver missed a delivered message";
  (* A corrupted frame is rejected by whichever hardware check the burst
     lands under: the CRC when it hits the payload, the header sanity
     checks (length, protocol) when it hits the 12-byte datalink header
     (ACK frames are small, so header hits are common).  Nothing else in
     this campaign produces those drops, so the books must balance. *)
  let crc_rejects =
    Datalink.drops_crc a.Stack.dl + Datalink.drops_crc b.Stack.dl
  in
  let header_rejects =
    Datalink.drops_bad_len a.Stack.dl + Datalink.drops_bad_len b.Stack.dl
    + Datalink.drops_bad_proto a.Stack.dl
    + Datalink.drops_bad_proto b.Stack.dl
  in
  expect failures
    (crc_rejects + header_rejects = Net.frames_corrupted w.net)
    (Printf.sprintf
       "corruption accounting: %d crc + %d header rejects <> %d corrupted \
        frames"
       crc_rejects header_rejects
       (Net.frames_corrupted w.net));
  check_wire_conservation w failures;
  ( wire_stats w
    @ [
        ("delivered_ok", !ok);
        ("errored", !err);
        ("received", !received);
        ("rmp_retransmits", Rmp.retransmits a.Stack.rmp);
        ("crc_drops", crc_rejects);
        ("header_drops", header_rejects);
      ],
    !failures )

let wire_loss_rpc ~seed =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  install w
    {
      Plan.seed;
      steps =
        [
          Plan.step Sim_time.zero
            (Plan.Wire_faults { drop = 0.1; corrupt = 0.0; burst = 1 });
        ];
    };
  echo_server b ~port;
  let ok = ref 0 and err = ref 0 in
  rpc_caller a ~dst_cab:(Stack.node_id b) ~port ~count:24 ~bytes:128
    ~gap:(Sim_time.us 300) ~ok ~err;
  Engine.run w.eng;
  let failures = ref [] in
  expect failures (!ok + !err = 24) "not every call completed or errored";
  expect failures (!err = 0) "a call failed below the retry budget";
  check_wire_conservation w failures;
  ( wire_stats w
    @ [
        ("calls_ok", !ok);
        ("errored", !err);
        ("requests_served", Reqresp.requests_served b.Stack.reqresp);
        ("duplicate_requests", Reqresp.duplicate_requests b.Stack.reqresp);
      ],
    !failures )

let wire_blackhole ~seed =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  install w
    {
      Plan.seed;
      steps =
        [
          Plan.step Sim_time.zero
            (Plan.Wire_faults { drop = 1.0; corrupt = 0.0; burst = 1 });
        ];
    };
  let received = counting_sink b ~port in
  echo_server b ~port:(port + 1);
  let ok = ref 0 and err = ref 0 in
  let call_ok = ref 0 and call_err = ref 0 in
  rmp_sender a ~dst_cab:(Stack.node_id b) ~port ~count:5 ~bytes:64
    ~gap:Sim_time.zero ~ok ~err;
  rpc_caller a ~dst_cab:(Stack.node_id b) ~port:(port + 1) ~count:3 ~bytes:64
    ~gap:Sim_time.zero ~ok:call_ok ~err:call_err;
  Engine.run w.eng;
  let failures = ref [] in
  expect failures
    (!ok = 0 && !err = 5)
    "a fully dark wire should cleanly time out every send";
  expect failures
    (!call_ok = 0 && !call_err = 3)
    "a fully dark wire should cleanly time out every call";
  expect failures (!received = 0) "received a message across a dark wire";
  expect failures
    (Net.frames_delivered w.net = 0)
    "the wire delivered a frame at drop rate 1.0";
  check_wire_conservation w failures;
  ( wire_stats w @ [ ("send_errors", !err); ("call_errors", !call_err) ],
    !failures )

let link_flap ~seed =
  let w =
    World.build ~hubs:2
      ~trunks:(Topology.chain_trunks ~hubs:2)
      ~seats:[ (0, 2); (1, 2) ]
      ()
  in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  install w
    {
      Plan.seed;
      steps =
        [
          Plan.step (Sim_time.ms 5)
            (Plan.Link { hub = 0; port = 15; up = false });
          Plan.step (Sim_time.ms 17)
            (Plan.Link { hub = 0; port = 15; up = true });
        ];
    };
  let received = counting_sink b ~port in
  let ok = ref 0 and err = ref 0 in
  rmp_sender a ~dst_cab:(Stack.node_id b) ~port ~count:30 ~bytes:256
    ~gap:(Sim_time.ms 1) ~ok ~err;
  Engine.run w.eng;
  let failures = ref [] in
  expect failures (!ok = 30 && !err = 0)
    "a 12 ms flap is inside the retry budget; every send should deliver";
  expect failures (!received = 30) "receiver missed a delivered message";
  (* Before failure detection a stale route blackholes on the wire; after
     it, sends are refused with a typed [Route_down] before reaching the
     wire.  Either way the flap must have bitten at least one frame. *)
  expect failures
    (Net.link_down_drops w.net + Router.route_down_refusals a.Stack.router > 0)
    "the flap window neither blackholed nor refused a frame";
  check_wire_conservation w failures;
  ( wire_stats w
    @ [
        ("delivered_ok", !ok);
        ("received", !received);
        ("rmp_retransmits", Rmp.retransmits a.Stack.rmp);
        ("route_refusals", Router.route_down_refusals a.Stack.router);
      ],
    !failures )

let cab_crash ~seed =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  install w
    {
      Plan.seed;
      steps =
        [
          Plan.step (Sim_time.ms 5) (Plan.Node_power { node = 1; up = false });
          Plan.step (Sim_time.ms 60) (Plan.Node_power { node = 1; up = true });
        ];
    };
  let received = counting_sink b ~port in
  let ok = ref 0 and err = ref 0 in
  rmp_sender a ~dst_cab:(Stack.node_id b) ~port ~count:30 ~bytes:256
    ~gap:(Sim_time.ms 2) ~ok ~err;
  Engine.run w.eng;
  let failures = ref [] in
  expect failures (!ok + !err = 30) "not every send completed or errored";
  expect failures (!err > 0)
    "a 55 ms outage exceeds the retry budget; some send should error";
  expect failures (!ok > 0) "no send survived; restart never took";
  expect failures (!received >= !ok)
    "receiver saw fewer messages than were acknowledged";
  expect failures
    (Cab.powered (Runtime.cab b.Stack.rt))
    "the crashed CAB should be powered again at end of run";
  expect failures
    (Net.link_down_drops w.net + Router.route_down_refusals a.Stack.router > 0)
    "the crash window neither blackholed nor refused a frame";
  check_wire_conservation w failures;
  ( wire_stats w
    @ [
        ("delivered_ok", !ok);
        ("errored", !err);
        ("received", !received);
        ("rmp_duplicates", Rmp.duplicates b.Stack.rmp);
        ("route_refusals", Router.route_down_refusals a.Stack.router);
      ],
    !failures )

(* The failover gate: a 4-HUB ring gives the two CABs two edge-disjoint
   trunk arcs.  Windowed RMP traffic crosses two seeded outages: first the
   source hub's primary trunk alone (the router must reconverge onto the
   other arc within detection + recompute), then BOTH of the source hub's
   trunks (a true partition: once detected, the route database refuses
   sends with typed [Route_down] until a link returns and the RTO clock
   recovers the window head).  The blackout after each outage — from the
   down transition to the first subsequent "rmp.deliver" trace instant —
   must stay inside the advertised bound, the post-recompute verifier must
   stay clean, and the wire must conserve every frame. *)
let flap_failover ~seed =
  let w =
    World.build ~hubs:4
      ~trunks:(Topology.ring_trunks ~hubs:4)
      ~seats:[ (0, 2); (2, 2) ]
      ~stack:(fun rt -> Stack.create rt ~rmp_window:4 ())
      ()
  in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let down1 = Sim_time.ms 5
  and up1 = Sim_time.ms 12
  and down2 = Sim_time.ms 20
  and up2 = Sim_time.ms 32 in
  install w
    {
      Plan.seed;
      steps =
        [
          Plan.step down1 (Plan.Link { hub = 0; port = 14; up = false });
          Plan.step up1 (Plan.Link { hub = 0; port = 14; up = true });
          Plan.step down2 (Plan.Link { hub = 0; port = 14; up = false });
          Plan.step down2 (Plan.Link { hub = 0; port = 15; up = false });
          Plan.step up2 (Plan.Link { hub = 0; port = 14; up = true });
          Plan.step up2 (Plan.Link { hub = 0; port = 15; up = true });
        ];
    };
  let tracer = Trace.create w.eng in
  Trace.install tracer;
  Fun.protect
    ~finally:(fun () -> Trace.uninstall ())
    (fun () ->
      let received = counting_sink b ~port in
      let ok = ref 0 and err = ref 0 in
      rmp_sender a ~dst_cab:(Stack.node_id b) ~port ~count:80 ~bytes:256
        ~gap:(Sim_time.us 400) ~ok ~err;
      Engine.run w.eng;
      let deliveries = Trace.occurrences tracer "rmp.deliver" in
      (* first delivery strictly after the down transition; -1 = none *)
      let blackout_after t0 =
        match List.find_opt (fun t -> t > t0) deliveries with
        | Some t -> t - t0
        | None -> -1
      in
      (* [outage] covers the part of the dark window no routing layer can
         beat (both arcs down); the millisecond of slack covers sender
         pacing and wire time between reconvergence and the next frame. *)
      let bound ~outage =
        outage
        + Router.blackout_bound_ns a.Stack.router
            ~rto_ns:(Rmp.rto a.Stack.rmp)
        + Sim_time.ms 1
      in
      let b1 = blackout_after down1 and b2 = blackout_after down2 in
      let failures = ref [] in
      expect failures
        (!ok = 80 && !err = 0)
        "every windowed send should be admitted without a latched timeout";
      expect failures
        (Rmp.failed_sends a.Stack.rmp = 0)
        "no message may exhaust its retry budget across the outages";
      expect failures (!received = 80) "receiver missed a delivered message";
      expect failures
        (b1 >= 0 && b1 <= bound ~outage:0)
        (Printf.sprintf
           "single-trunk blackout %d ns exceeds detection + recompute + RTO"
           b1);
      expect failures
        (b2 >= 0 && b2 <= bound ~outage:(up2 - down2))
        (Printf.sprintf
           "partition blackout %d ns exceeds outage + detection + recompute \
            + RTO"
           b2);
      expect failures
        (List.exists (fun t -> t > down1 && t < up1) deliveries)
        "no delivery crossed the surviving arc while the primary trunk was \
         down";
      expect failures
        (Router.route_down_refusals a.Stack.router > 0)
        "the partition never produced a typed Route_down refusal";
      expect failures
        (Router.verify_failures a.Stack.router
         + Router.verify_failures b.Stack.router
        = 0)
        "the route verifier flagged a recomputed table";
      expect failures
        (Router.recomputes a.Stack.router >= 6)
        "the router missed a link transition";
      check_wire_conservation w failures;
      ( wire_stats w
        @ [
            ("delivered_ok", !ok);
            ("received", !received);
            ("rmp_retransmits", Rmp.retransmits a.Stack.rmp);
            ("route_refusals", Router.route_down_refusals a.Stack.router);
            ("route_recomputes", Router.recomputes a.Stack.router);
            ("blackout_flap_us", b1 / 1_000);
            ("blackout_partition_us", b2 / 1_000);
          ],
        !failures ))

let vme_errors ~seed =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let drv = World.add_host w 0 in
  install w
    {
      Plan.seed;
      steps =
        [ Plan.step Sim_time.zero (Plan.Vme_errors { node = 0; rate = 0.25 }) ];
    };
  let received = counting_sink b ~port in
  let na = Nectarine.host_node drv a in
  let ok = ref 0 and err = ref 0 in
  Nectarine.spawn na ~name:"chaos-host-send" (fun ctx ->
      for _ = 1 to 12 do
        (match
           Nectarine.send_result ctx na
             ~dst:{ Nectarine.cab = Stack.node_id b; port }
             (String.make 200 'v')
         with
        | Ok () -> incr ok
        | Error _ -> incr err);
        Engine.sleep ctx.Ctx.eng (Sim_time.us 500)
      done);
  Engine.run w.eng;
  let failures = ref [] in
  expect failures (!ok = 12 && !err = 0)
    "bus errors are retried transparently; no send should fail";
  expect failures (!received = 12) "receiver missed a message";
  expect failures
    (Vme.bus_errors (Cab_driver.vme drv) > 0)
    "the fault hook never voided a bus cycle";
  check_wire_conservation w failures;
  ( wire_stats w
    @ [
        ("received", !received);
        ("vme_bus_errors", Vme.bus_errors (Cab_driver.vme drv));
      ],
    !failures )

let alloc_pressure ~seed =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  install w
    {
      Plan.seed;
      steps =
        [
          Plan.step Sim_time.zero
            (Plan.Alloc_failures { node = 0; rate = 0.15 });
          Plan.step Sim_time.zero
            (Plan.Alloc_failures { node = 1; rate = 0.15 });
        ];
    };
  let received = counting_sink b ~port in
  let ok = ref 0 and err = ref 0 in
  rmp_sender a ~dst_cab:(Stack.node_id b) ~port ~count:25 ~bytes:512
    ~gap:(Sim_time.us 500) ~ok ~err;
  Engine.run w.eng;
  let failures = ref [] in
  expect failures (!ok = 25 && !err = 0)
    "transient allocation failures should only delay delivery";
  expect failures (!received = 25) "receiver missed a message";
  let faulted =
    Buffer_heap.failed_allocs (Runtime.heap a.Stack.rt)
    + Buffer_heap.failed_allocs (Runtime.heap b.Stack.rt)
  in
  expect failures (faulted > 0) "the allocation fault hook never fired";
  check_wire_conservation w failures;
  ( wire_stats w
    @ [
        ("received", !received);
        ("failed_allocs", faulted);
        ("rx_no_buffer_drops", Datalink.drops_no_buffer b.Stack.dl);
        ("rmp_retransmits", Rmp.retransmits a.Stack.rmp);
      ],
    !failures )

let signal_outage ~seed =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let drv = World.add_host w 0 in
  install w
    {
      Plan.seed;
      steps =
        [
          Plan.step (Sim_time.ms 3)
            (Plan.Signal_outage { node = 0; span = Sim_time.ms 4 });
        ];
    };
  let received = counting_sink b ~port in
  let na = Nectarine.host_node drv a in
  let ok = ref 0 and err = ref 0 in
  Nectarine.spawn na ~name:"chaos-host-send" (fun ctx ->
      for _ = 1 to 16 do
        (match
           Nectarine.send_result ctx na
             ~dst:{ Nectarine.cab = Stack.node_id b; port }
             (String.make 100 's')
         with
        | Ok () -> incr ok
        | Error _ -> incr err);
        Engine.sleep ctx.Ctx.eng (Sim_time.ms 1)
      done);
  Engine.run w.eng;
  let failures = ref [] in
  expect failures (!ok = 16 && !err = 0) "a host send failed";
  expect failures (!received = 16)
    "a signal lost mid-run was never recovered by a later signal";
  expect failures
    (Runtime.signals_lost a.Stack.rt > 0)
    "the outage window never swallowed a signal";
  check_wire_conservation w failures;
  ( wire_stats w
    @ [
        ("received", !received);
        ("signals_lost", Runtime.signals_lost a.Stack.rt);
      ],
    !failures )

let mailbox_overflow ~seed =
  ignore seed;
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"chaos-drop-sink" ~port
      ~byte_limit:(64 * 1024) ~capacity:4 ~overflow:`Drop ()
  in
  let received = ref 0 in
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"chaos-slow-sink"
       (fun ctx ->
         while true do
           let m = Mailbox.begin_get ctx inbox in
           Mailbox.end_get ctx m;
           incr received;
           Engine.sleep ctx.Ctx.eng (Sim_time.us 300)
         done));
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"chaos-blast" (fun ctx ->
         for _ = 1 to 30 do
           Dgram.send_string ctx a.Stack.dgram ~dst_cab:(Stack.node_id b)
             ~dst_port:port (String.make 64 'd');
           Engine.sleep ctx.Ctx.eng (Sim_time.us 50)
         done));
  Engine.run w.eng;
  let failures = ref [] in
  let drops = Mailbox.overflow_drops inbox in
  expect failures (drops > 0)
    "blasting a capacity-4 mailbox should tail-drop";
  expect failures
    (!received + drops = 30)
    (Printf.sprintf "accounting: %d received + %d dropped <> 30 sent"
       !received drops);
  check_wire_conservation w failures;
  ( wire_stats w @ [ ("received", !received); ("overflow_drops", drops) ],
    !failures )

let mailbox_backpressure ~seed =
  ignore seed;
  let w = World.build ~seats:(World.ports 1) () in
  let a = w.stacks.(0) in
  let mb =
    Runtime.create_mailbox a.Stack.rt ~name:"chaos-bounded"
      ~byte_limit:(16 * 1024) ~capacity:2 ~overflow:`Block ()
  in
  let received = ref 0 in
  let failures = ref [] in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"chaos-consumer"
       (fun ctx ->
         while true do
           let m = Mailbox.begin_get ctx mb in
           Mailbox.end_get ctx m;
           incr received;
           expect failures
             (Mailbox.queued_messages mb <= 2)
             "a `Block mailbox exceeded its capacity";
           Engine.sleep ctx.Ctx.eng (Sim_time.us 200)
         done));
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"chaos-producer"
       (fun ctx ->
         for i = 1 to 20 do
           let m = Mailbox.begin_put ctx mb 64 in
           Message.set_u8 m 0 (i land 0xff);
           Mailbox.end_put ctx mb m
         done));
  Engine.run w.eng;
  expect failures (!received = 20)
    "backpressure must delay, never lose, a put";
  expect failures
    (Mailbox.overflow_drops mb = 0)
    "a `Block mailbox must never tail-drop";
  ( [ ("received", !received); ("overflow_drops", Mailbox.overflow_drops mb) ],
    !failures )

let tcp_budget ~seed =
  let w = World.build () in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  install w
    {
      Plan.seed;
      steps =
        [ Plan.step (Sim_time.ms 8) (Plan.Node_power { node = 1; up = false }) ];
    };
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      ignore
        (Thread.create (Runtime.cab b.Stack.rt) ~name:"chaos-tcp-sink"
           (fun ctx ->
             while true do
               ignore (Tcp.recv_string ctx conn)
             done)));
  let the_conn = ref None in
  let sent_ok = ref 0 and timed_out = ref false and reset = ref false in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"chaos-tcp-src" (fun ctx ->
         let conn =
           Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 ()
         in
         the_conn := Some conn;
         let payload = String.make 1024 't' in
         try
           for _ = 1 to 200 do
             Tcp.send ctx conn payload;
             incr sent_ok
           done
         with
         | Tcp.Connection_timed_out -> timed_out := true
         | Tcp.Connection_reset -> reset := true));
  Engine.run w.eng;
  let failures = ref [] in
  expect failures !timed_out
    "the sender never surfaced Connection_timed_out after the budget";
  expect failures (not !reset)
    "a local budget abort must not masquerade as a peer reset";
  expect failures
    (match !the_conn with
    | Some c -> Tcp.failure c = `Timed_out
    | None -> false)
    "Tcp.failure should report `Timed_out";
  check_wire_conservation w failures;
  ( wire_stats w
    @ [
        ("segments_sent_ok", !sent_ok);
        ("tcp_retransmissions", Tcp.retransmissions a.Stack.tcp);
      ],
    !failures )

let campaigns =
  [
    {
      cname = "wire-loss-rmp";
      about = "RMP delivers through 8% drop + 4% burst corruption";
      quiesced = true;
      body = wire_loss_rmp;
    };
    {
      cname = "wire-loss-rpc";
      about = "request-response completes through 10% drop";
      quiesced = true;
      body = wire_loss_rpc;
    };
    {
      cname = "wire-blackhole";
      about = "a dark wire surfaces clean typed timeouts";
      quiesced = true;
      body = wire_blackhole;
    };
    {
      cname = "link-flap";
      about = "a 12 ms inter-hub flap is absorbed by retransmission";
      quiesced = true;
      body = link_flap;
    };
    {
      cname = "cab-crash";
      about = "crash-and-restart: errors during the outage, recovery after";
      quiesced = true;
      body = cab_crash;
    };
    {
      cname = "flap-failover";
      about = "ring reroutes under trunk flap and partition, blackouts bounded";
      quiesced = true;
      body = flap_failover;
    };
    {
      cname = "vme-errors";
      about = "transient VME bus errors degrade, never fail, host traffic";
      quiesced = true;
      body = vme_errors;
    };
    {
      cname = "alloc-pressure";
      about = "buffer-heap allocation faults only delay delivery";
      quiesced = true;
      body = alloc_pressure;
    };
    {
      cname = "signal-outage";
      about = "lost host signals are recovered by the next signal";
      quiesced = true;
      body = signal_outage;
    };
    {
      cname = "mailbox-overflow";
      about = "a bounded `Drop mailbox tail-drops and accounts for it";
      quiesced = true;
      body = mailbox_overflow;
    };
    {
      cname = "mailbox-backpressure";
      about = "a bounded `Block mailbox delays but never loses a put";
      quiesced = true;
      body = mailbox_backpressure;
    };
    {
      cname = "tcp-budget";
      about = "TCP aborts cleanly once the retransmission budget is spent";
      quiesced = true;
      body = tcp_budget;
    };
  ]
