(* Failover bench (beyond the paper — see EXPERIMENTS.md): goodput dip and
   blackout-window distribution while the routing layer reconverges around
   a flapping trunk.

   A 4-HUB ring carries paced windowed-RMP traffic between two CABs whose
   default route crosses the flapping trunk (hub 0, port 14).  Each flap
   cycle takes that trunk down for 2 ms; the router detects the
   transition, recomputes onto the ring's other arc, and the window head's
   RTO clock recovers whatever the dark window swallowed.  The blackout
   per cycle — down transition to the first subsequent "rmp.deliver" trace
   instant — is a pure function of the cost model, so its distribution is
   deterministic and the p99 is asserted against the advertised bound
   (detection + recompute + one RTO, plus the sender's pacing gap).
   [nectar_cli route --flaps] prints a three-cycle run of the same
   measurement. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Bench_world
module Chaos = Nectar_chaos.Chaos
module Router = Nectar_route.Router
module Topology = Nectar_fleet.Topology

type result = {
  cycles : int;
  msgs : int;
  msg_bytes : int;
  delivered : int;
  outage : Sim_time.span;  (** how long the trunk stays dark per cycle *)
  downs : Sim_time.t list;  (** each cycle's down transition *)
  blackouts : Sim_time.span option list;
      (** per cycle: down transition to the next delivery, if any *)
  goodput_steady : float;  (** Mbit/s outside the recovery windows *)
  goodput_flap : float;  (** Mbit/s inside [down, down + bound + gap] *)
  blackout_p50_us : float;
  blackout_p99_us : float;
  blackout_max_us : float;
  bound_us : float;  (** detection + recompute + RTO + pacing gap *)
  refusals : int;
  recomputes : int;
  invalidated : int;
  retransmits : int;
  stacks : Stack.t array;  (** the reconverged world, for table dumps *)
}

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (p * (n - 1) / 100))

(* One flap cycle every [period]; the trunk is dark for [outage] of it.
   Deterministic: no PRNG draws, and tracing consumes no simulated time.
   The two CABs sit half a ring apart, so the default route crosses the
   flapping trunk (hub 0, port 14). *)
let measure ?(hubs = 4) ?(cycles = 25) () =
  let gap = Sim_time.us 200 and msg_bytes = 512 in
  let period = Sim_time.ms 8 and outage = Sim_time.ms 2 in
  let first_down = Sim_time.ms 5 in
  let w =
    World.build ~hubs
      ~trunks:(Topology.ring_trunks ~hubs)
      ~seats:[ (0, 2); (hubs / 2, 2) ]
      ~stack:(fun rt -> Stack.create rt ~rmp_window:4 ())
      ()
  in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let downs = List.init cycles (fun k -> first_down + (k * period)) in
  Chaos.install w
    {
      Chaos.Plan.seed = 1990;
      steps =
        List.concat_map
          (fun d ->
            [
              Chaos.Plan.step d
                (Chaos.Plan.Link { hub = 0; port = 14; up = false });
              Chaos.Plan.step (d + outage)
                (Chaos.Plan.Link { hub = 0; port = 14; up = true });
            ])
          downs;
    };
  (* enough paced traffic to outlive the last flap cycle *)
  let msgs = (first_down + (cycles * period)) / gap in
  let port = 940 in
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"failover-inbox" ~port
      ~byte_limit:(256 * 1024) ()
  in
  let got = ref 0 in
  spawn_cab_thread b ~name:"failover-sink" (fun ctx ->
      for _ = 1 to msgs do
        let m = Mailbox.begin_get ctx inbox in
        Mailbox.end_get ctx m;
        incr got
      done);
  (* the default 64k-event ring would overwrite the earliest cycles'
     deliveries over a ~200 ms run; size it for the whole run *)
  let tracer = Trace.create ~capacity:(1 lsl 21) w.eng in
  Trace.install tracer;
  Fun.protect
    ~finally:(fun () -> Trace.uninstall ())
    (fun () ->
      spawn_cab_thread a ~name:"failover-source" (fun ctx ->
          let payload = String.make msg_bytes 'f' in
          let dst_cab = Stack.node_id b in
          for _ = 1 to msgs do
            Rmp.send_string ctx a.Stack.rmp ~dst_cab ~dst_port:port payload;
            Engine.sleep ctx.Ctx.eng gap
          done;
          Rmp.flush ctx a.Stack.rmp ~dst_cab ~dst_port:port);
      Engine.run w.eng;
      let deliveries = Trace.occurrences tracer "rmp.deliver" in
      let bound =
        Router.blackout_bound_ns a.Stack.router ~rto_ns:(Rmp.rto a.Stack.rmp)
        + gap
      in
      let blackouts =
        List.map
          (fun d ->
            Option.map (fun t -> t - d)
              (List.find_opt (fun t -> t > d) deliveries))
          downs
      in
      let sorted =
        Array.of_list
          (List.sort compare
             (List.map (Option.value ~default:max_int) blackouts))
      in
      (* goodput inside vs outside the recovery windows [d, d + bound] *)
      let in_window t = List.exists (fun d -> t > d && t <= d + bound) downs in
      let flap_time = cycles * bound in
      let span =
        match List.rev deliveries with last :: _ -> last | [] -> 1
      in
      let n_flap = List.length (List.filter in_window deliveries) in
      let n_steady = List.length deliveries - n_flap in
      {
        cycles;
        msgs;
        msg_bytes;
        delivered = !got;
        outage;
        downs;
        blackouts;
        goodput_steady =
          mbps ~bytes:(n_steady * msg_bytes) ~ns:(span - flap_time);
        goodput_flap = mbps ~bytes:(n_flap * msg_bytes) ~ns:flap_time;
        blackout_p50_us = Sim_time.to_us (percentile sorted 50);
        blackout_p99_us = Sim_time.to_us (percentile sorted 99);
        blackout_max_us = Sim_time.to_us (percentile sorted 100);
        bound_us = Sim_time.to_us bound;
        refusals = Router.route_down_refusals a.Stack.router;
        recomputes = Router.recomputes a.Stack.router;
        invalidated = Router.invalidated a.Stack.router;
        retransmits = Rmp.retransmits a.Stack.rmp;
        stacks = w.stacks;
      })

let print r =
  Printf.printf
    "  ring failover, %d flap cycles, %d B x %d msgs (simulated):\n\
    \    goodput   steady %8s Mbit/s   during reconvergence %8s Mbit/s\n\
    \    blackout  p50 %6.0f us   p99 %6.0f us   max %6.0f us   (bound \
     %.0f us)\n\
    \    route recomputes %d, typed refusals %d, retransmits %d\n"
    r.cycles r.msg_bytes r.msgs (fmt_mbps r.goodput_steady)
    (fmt_mbps r.goodput_flap) r.blackout_p50_us r.blackout_p99_us
    r.blackout_max_us r.bound_us r.recomputes r.refusals r.retransmits

(* Recorded regression point (BENCH_perf.json "failover"): the blackout
   distribution of the 25-cycle run, simulated and deterministic. *)
let recorded_blackout_p50_us = 40.
let recorded_blackout_p99_us = 5093.

let gate ~check r =
  check
    (Printf.sprintf "failover: delivered %d/%d" r.delivered r.msgs)
    (r.delivered = r.msgs);
  check
    (Printf.sprintf "failover: max blackout %.0f us inside bound %.0f us"
       r.blackout_max_us r.bound_us)
    (r.blackout_max_us <= r.bound_us);
  check
    (Printf.sprintf "failover: %d recomputes for %d flap cycles" r.recomputes
       r.cycles)
    (r.recomputes = 2 * r.cycles);
  check
    (Printf.sprintf
       "BENCH_perf.json failover: p50 %.0f us, p99 %.0f us (recorded %.0f, \
        %.0f)"
       r.blackout_p50_us r.blackout_p99_us recorded_blackout_p50_us
       recorded_blackout_p99_us)
    (Float.round r.blackout_p50_us = recorded_blackout_p50_us
    && Float.round r.blackout_p99_us = recorded_blackout_p99_us)

(* The failover/blackout registry entry. *)
let run () =
  let check, checks = collector () in
  section "Failover: goodput and blackout under a flapping ring trunk";
  let r = measure () in
  print r;
  gate ~check r;
  checks ()
