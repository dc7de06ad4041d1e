(* The CLI's scenarios: ping, latency, throughput, the cost model, the
   traced Figure 6 path and the routing layer.  [nectar_cli] exposes each
   as a subcommand; the scenario registry runs the same code under its
   vet/cli-* and trace entries. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
module Net = Nectar_hub.Network
module Cab = Nectar_cab.Cab
module Costs = Nectar_cab.Costs

module World = Nectar_fleet.World
module Topology = Nectar_fleet.Topology

(* ---------- ping ---------- *)

let run_ping hubs count payload =
  (* a chain of [hubs] HUBs, one CAB on the first and one on the last *)
  let w =
    World.build ~hubs
      ~trunks:(Topology.chain_trunks ~hubs)
      ~seats:[ (0, 0); (hubs - 1, 1) ]
      ()
  in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"ping" (fun ctx ->
         for i = 1 to count do
           match
             Icmp.ping ctx a.Stack.icmp ~dst:(Stack.addr b)
               ~payload_bytes:payload ()
           with
           | Some rtt ->
               Printf.printf
                 "%d bytes from %s: icmp_seq=%d across %d hub(s) time=%s\n"
                 payload
                 (Ipv4.string_of_addr (Stack.addr b))
                 i hubs (Sim_time.to_string rtt)
           | None -> Printf.printf "icmp_seq=%d timed out\n" i
         done));
  Engine.run eng;
  Printf.printf "answered by the remote CAB's ICMP upcall (no thread)\n"

(* ---------- latency ---------- *)

type proto = Dgram_p | Rmp_p | Rpc_p | Udp_p

let transport_send proto ctx (s : Stack.t) ~dst_cab ~dst_port payload =
  match proto with
  | Dgram_p -> Dgram.send_string ctx s.Stack.dgram ~dst_cab ~dst_port payload
  | Rmp_p -> Rmp.send_string ctx s.Stack.rmp ~dst_cab ~dst_port payload
  | Udp_p ->
      Udp.send_string ctx s.Stack.udp ~src_port:dst_port
        ~dst:(Ipv4.addr_of_cab dst_cab) ~dst_port payload
  | Rpc_p -> invalid_arg "rpc handled separately"

let run_latency proto payload rounds host_level =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let port = 900 in
  let samples = ref [] in
  let record t0 = samples := (Engine.now eng - t0) :: !samples in
  (if proto = Rpc_p then begin
     Reqresp.register_server b.Stack.reqresp ~port
       ~mode:Reqresp.Thread_server (fun _ req -> req);
     if host_level then begin
       let drv = World.add_host w 0 in
       let na = Nectarine.host_node drv a in
       Nectarine.spawn na ~name:"client" (fun ctx ->
           for _ = 1 to rounds do
             let t0 = Engine.now eng in
             ignore
               (Nectarine.call ctx na
                  ~dst:{ Nectarine.cab = Stack.node_id b; port }
                  (String.make payload 'x'));
             record t0
           done)
     end
     else
       ignore
         (Thread.create (Runtime.cab a.Stack.rt) ~name:"client" (fun ctx ->
              for _ = 1 to rounds do
                let t0 = Engine.now eng in
                ignore
                  (Reqresp.call ctx a.Stack.reqresp
                     ~dst_cab:(Stack.node_id b) ~dst_port:port
                     (String.make payload 'x'));
                record t0
              done))
   end
   else begin
     let make_inbox s =
       let mb = Runtime.create_mailbox s.Stack.rt ~name:"cli-inbox" ~port () in
       if proto = Udp_p then Udp.bind s.Stack.udp ~port mb;
       mb
     in
     let inbox_a = make_inbox a and inbox_b = make_inbox b in
     if host_level then begin
       let drv_a = World.add_host w 0 in
       let drv_b = World.add_host w 1 in
       let host_a = Cab_driver.host drv_a and host_b = Cab_driver.host drv_b in
       let ha = Hostlib.attach drv_a inbox_a ~mode:Hostlib.Shared_memory ~readers:`Host in
       let hb = Hostlib.attach drv_b inbox_b ~mode:Hostlib.Shared_memory ~readers:`Host in
       (* each side sends through a CAB thread serving a request mailbox *)
       let send_srv s =
         let mb = Runtime.create_mailbox s.Stack.rt ~name:"cli-send" () in
         ignore
           (Thread.create (Runtime.cab s.Stack.rt) ~name:"send-srv" (fun ctx ->
                while true do
                  let m = Mailbox.begin_get ctx mb in
                  let dst_cab = Message.get_u16 m 0 in
                  let payload =
                    Message.read_string m ~pos:2 ~len:(Message.length m - 2)
                  in
                  Mailbox.end_get ctx m;
                  transport_send proto ctx s ~dst_cab ~dst_port:port payload
                done));
         mb
       in
       let srv_a = send_srv a and srv_b = send_srv b in
       let hsa = Hostlib.attach drv_a srv_a ~mode:Hostlib.Shared_memory ~readers:`Cab in
       let hsb = Hostlib.attach drv_b srv_b ~mode:Hostlib.Shared_memory ~readers:`Cab in
       let host_send h ~dst_cab payload =
         fun ctx ->
           let m = Hostlib.begin_put ctx h (2 + String.length payload) in
           Message.set_u16 m 0 dst_cab;
           Hostlib.write_string ctx h m ~pos:2 payload;
           Hostlib.end_put ctx h m
       in
       Host.spawn_process host_b ~name:"echo" (fun ctx ->
           for _ = 1 to rounds do
             let m = Hostlib.begin_get ctx hb in
             let s = Hostlib.read_string ctx hb m in
             Hostlib.end_get ctx hb m;
             (host_send hsb ~dst_cab:(Stack.node_id a) s) ctx
           done);
       Host.spawn_process host_a ~name:"client" (fun ctx ->
           for _ = 1 to rounds do
             let t0 = Engine.now eng in
             (host_send hsa ~dst_cab:(Stack.node_id b)
                (String.make payload 'x'))
               ctx;
             let m = Hostlib.begin_get ctx ha in
             Hostlib.end_get ctx ha m;
             record t0
           done)
     end
     else begin
       ignore
         (Thread.create (Runtime.cab b.Stack.rt) ~name:"echo" (fun ctx ->
              for _ = 1 to rounds do
                let m = Mailbox.begin_get ctx inbox_b in
                let s = Message.to_string m in
                Mailbox.end_get ctx m;
                transport_send proto ctx b ~dst_cab:(Stack.node_id a)
                  ~dst_port:port s
              done));
       ignore
         (Thread.create (Runtime.cab a.Stack.rt) ~name:"client" (fun ctx ->
              for _ = 1 to rounds do
                let t0 = Engine.now eng in
                transport_send proto ctx a ~dst_cab:(Stack.node_id b)
                  ~dst_port:port
                  (String.make payload 'x');
                let m = Mailbox.begin_get ctx inbox_a in
                Mailbox.end_get ctx m;
                record t0
              done))
     end
   end);
  Engine.run eng;
  let warm = List.filteri (fun i _ -> i >= 3) (List.rev !samples) in
  let n = List.length warm in
  let mean = List.fold_left ( + ) 0 warm / max 1 n in
  Printf.printf "%s %d-byte round trip (%s level, %d rounds): mean %s\n"
    (match proto with
    | Dgram_p -> "datagram"
    | Rmp_p -> "rmp"
    | Rpc_p -> "rpc"
    | Udp_p -> "udp")
    payload
    (if host_level then "host" else "CAB")
    n (Sim_time.to_string mean)

(* ---------- throughput ---------- *)

type tproto = Tcp_t | Tcp_nocksum_t | Rmp_t

let run_throughput tproto size total_kb =
  let checksum = tproto <> Tcp_nocksum_t in
  let w =
    World.build
      ~stack:(fun rt -> Stack.create rt ~tcp_checksum:checksum ~tcp_mss:size ())
      ()
  in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let total = total_kb * 1024 in
  let k = max 1 (total / size) in
  let started = ref 0 and done_at = ref 0 in
  (match tproto with
  | Rmp_t ->
      let port = 900 in
      let inbox =
        Runtime.create_mailbox b.Stack.rt ~name:"sink" ~port
          ~byte_limit:(128 * 1024) ()
      in
      ignore
        (Thread.create (Runtime.cab b.Stack.rt) ~name:"sink" (fun ctx ->
             for _ = 1 to k do
               let m = Mailbox.begin_get ctx inbox in
               Mailbox.end_get ctx m
             done;
             done_at := Engine.now eng));
      ignore
        (Thread.create (Runtime.cab a.Stack.rt) ~name:"source" (fun ctx ->
             started := Engine.now eng;
             let payload = String.make size 'r' in
             for _ = 1 to k do
               Rmp.send_string ctx a.Stack.rmp ~dst_cab:(Stack.node_id b)
                 ~dst_port:port payload
             done))
  | Tcp_t | Tcp_nocksum_t ->
      Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
          ignore
            (Thread.create (Runtime.cab b.Stack.rt) ~name:"sink" (fun ctx ->
                 let received = ref 0 in
                 while !received < k * size do
                   received :=
                     !received + String.length (Tcp.recv_string ctx conn)
                 done;
                 done_at := Engine.now eng)));
      ignore
        (Thread.create (Runtime.cab a.Stack.rt) ~name:"source" (fun ctx ->
             let conn =
               Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 ()
             in
             started := Engine.now eng;
             let payload = String.make size 't' in
             for _ = 1 to k do
               Tcp.send ctx conn payload
             done)));
  Engine.run eng;
  Printf.printf
    "%s, %d x %d bytes CAB-to-CAB: %.1f Mbit/s (of 100 physical)\n"
    (match tproto with
    | Tcp_t -> "TCP/IP"
    | Tcp_nocksum_t -> "TCP w/o checksum"
    | Rmp_t -> "RMP")
    k size
    (Stats.Throughput.mbit_per_s ~bytes_moved:(k * size)
       ~elapsed:(!done_at - !started))

(* ---------- info ---------- *)

let run_info () =
  let us_of ns = Printf.sprintf "%.1f us" (float_of_int ns /. 1000.) in
  Printf.printf "Calibration constants (lib/cab/costs.ml):\n";
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %s\n" k v)
    [
      ("fiber", "100 Mbit/s (80 ns/byte)");
      ("hub connection setup", "700 ns");
      ("CAB CPU", "16.5 MHz SPARC");
      ("context switch", us_of Costs.ctx_switch_ns);
      ("interrupt dispatch", us_of Costs.irq_dispatch_ns);
      ("VME word access", us_of Costs.vme_word_ns);
      ("VME DMA", "~30 Mbit/s");
      ("TCP software checksum", Printf.sprintf "%d ns/byte" Costs.tcp_cksum_ns_per_byte);
      ("host process switch", us_of Costs.host_ctx_switch_ns);
      ("host syscall", us_of Costs.host_syscall_ns);
    ]

(* ---------- trace ---------- *)

(* The Figure 6 scenario (one-way 64-byte host-to-host datagrams), run
   under an installed tracer: every layer's spans land in the ring, and we
   emit them as Chrome trace-event JSON plus a per-stage rollup. *)
let run_trace_scenario ~iterations ~payload =
  let w = World.build () in
  let eng = w.eng and net = w.net and a = w.stacks.(0) and b = w.stacks.(1) in
  let port = 900 in
  let tracer = Trace.create eng in
  Trace.install tracer;
  let inbox = Runtime.create_mailbox b.Stack.rt ~name:"trace-inbox" ~port () in
  let send_mb = Runtime.create_mailbox a.Stack.rt ~name:"trace-send" () in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"send-server" (fun ctx ->
         while true do
           let m = Mailbox.begin_get ctx send_mb in
           let payload = Message.read_string m ~pos:0 ~len:(Message.length m) in
           Mailbox.end_get ctx m;
           Dgram.send_string ctx a.Stack.dgram ~dst_cab:(Stack.node_id b)
             ~dst_port:port payload
         done));
  let drv_a = World.add_host w 0 in
  let drv_b = World.add_host w 1 in
  let host_a = Cab_driver.host drv_a and host_b = Cab_driver.host drv_b in
  let h_send =
    Hostlib.attach drv_a send_mb ~mode:Hostlib.Shared_memory ~readers:`Cab
  in
  let h_in =
    Hostlib.attach drv_b inbox ~mode:Hostlib.Shared_memory ~readers:`Host
  in
  let round_done = Waitq.create eng ~name:"trace-round" () in
  Host.spawn_process host_b ~name:"reader" (fun ctx ->
      for _ = 1 to iterations do
        let m = Hostlib.begin_get ctx h_in in
        ignore (Hostlib.read_string ctx h_in m);
        Hostlib.end_get ctx h_in m;
        ignore (Waitq.signal round_done)
      done);
  Host.spawn_process host_a ~name:"writer" (fun ctx ->
      for _ = 1 to iterations do
        let m = Hostlib.begin_put ctx h_send payload in
        Hostlib.write_string ctx h_send m ~pos:0 (String.make payload 'x');
        Hostlib.end_put ctx h_send m;
        Waitq.wait round_done
      done);
  let reg = Nectar_util.Metrics.create () in
  Stack.register_metrics a reg;
  Stack.register_metrics b reg;
  Net.register_metrics net reg ~prefix:"";
  Engine.register_metrics eng reg ~prefix:"engine.";
  Nectar_util.Copy_meter.reset ();
  Nectar_util.Copy_meter.register_metrics reg ~prefix:"";
  Mailbox.register_metrics inbox reg ~prefix:(Cab.name (Runtime.cab b.Stack.rt) ^ ".");
  Mailbox.register_metrics send_mb reg ~prefix:(Cab.name (Runtime.cab a.Stack.rt) ^ ".");
  Engine.run eng;
  Trace.uninstall ();
  (tracer, reg)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Chrome trace-event JSON (chrome://tracing / Perfetto loadable):
   matched spans become complete "X" events, instants "i" events, and each
   track gets a tid with a thread_name metadata record. *)
let chrome_json tracer =
  let spans = Trace.spans tracer in
  let instants =
    List.filter (fun e -> e.Trace.kind = Trace.Instant) (Trace.events tracer)
  in
  let tids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let tracks_in_order = ref [] in
  let tid track =
    match Hashtbl.find_opt tids track with
    | Some id -> id
    | None ->
        let id = Hashtbl.length tids + 1 in
        Hashtbl.replace tids track id;
        tracks_in_order := track :: !tracks_in_order;
        id
  in
  let buf = Buffer.create 65536 in
  let sep = ref "" in
  let emit fmt =
    Buffer.add_string buf !sep;
    sep := ",\n";
    Printf.ksprintf (Buffer.add_string buf) fmt
  in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iter
    (fun s ->
      emit "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}"
        (json_escape s.Trace.s_label)
        (Sim_time.to_us s.Trace.s_begin)
        (Sim_time.to_us (s.Trace.s_end - s.Trace.s_begin))
        (tid s.Trace.s_track))
    spans;
  List.iter
    (fun e ->
      emit "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,\"s\":\"t\",\"pid\":1,\"tid\":%d}"
        (json_escape e.Trace.label)
        (Sim_time.to_us e.Trace.time)
        (tid e.Trace.track))
    instants;
  List.iter
    (fun track ->
      emit
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
        (Hashtbl.find tids track) (json_escape track))
    (List.rev !tracks_in_order);
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

(* The per-stage span rollup and the metrics dump of a traced run. *)
let print_trace ~iterations (tracer, reg) =
  Printf.printf
    "trace: fig6 scenario, %d x 64-byte datagrams host-to-host (%d events)\n\n"
    iterations (Trace.recorded tracer);
  Printf.printf "  %-24s %6s %12s\n" "stage" "count" "total";
  List.iter
    (fun (label, count, total) ->
      Printf.printf "  %-24s %6d %12s\n" label count (Sim_time.to_string total))
    (Trace.rollup tracer);
  Printf.printf "\nmetrics:\n";
  Nectar_util.Metrics.dump reg

let run_trace out iterations =
  let ((tracer, _) as traced) = run_trace_scenario ~iterations ~payload:64 in
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc (chrome_json tracer);
      close_out oc;
      Printf.printf "wrote %s (%d events, %d dropped)\n" path
        (Trace.recorded tracer) (Trace.dropped tracer)
  | None -> ());
  print_trace ~iterations traced

(* ---------- route ---------- *)

module Router = Nectar_route.Router
module Policy = Nectar_route.Policy

(* Two stacks on a chain (one path per pair) or a closed ring (two
   disjoint arcs per pair), seated from port 2 as the chaos campaigns
   seat them. *)
let route_layout ~ring ~hubs =
  if ring then (Topology.ring_trunks ~hubs, [ (0, 2); (hubs / 2, 2) ])
  else (Topology.chain_trunks ~hubs, [ (0, 2); (1 mod hubs, 2 + (1 / hubs)) ])

let dump_tables stacks =
  Array.iter
    (fun st ->
      let r = st.Stack.router in
      Printf.printf "node %d source-route table (generation %d):\n"
        (Stack.node_id st) (Router.generation r);
      List.iter (fun l -> Printf.printf "  %s\n" l) (Router.table_lines r))
    stacks

(* Replay a short flap schedule against paced RMP traffic (three cycles
   of the failover bench's measurement) and print what the routing layer
   did about it: per-cycle blackouts, recompute count, refusals, and the
   reconverged tables. *)
let run_route_flaps ~hubs =
  let r = Nectar_bench.Failover.measure ~hubs ~cycles:3 () in
  Printf.printf "%d flap cycles on HUB 0 trunk port 14 (down %.1f ms each):\n"
    r.cycles
    (Sim_time.to_us r.outage /. 1000.);
  List.iteri
    (fun i (d, blackout) ->
      match blackout with
      | Some b ->
          Printf.printf
            "  flap %d at %5.1f ms: blackout %6.0f us  (bound %.0f us)\n"
            (i + 1)
            (Sim_time.to_us d /. 1000.)
            (Sim_time.to_us b) r.bound_us
      | None ->
          Printf.printf "  flap %d at %5.1f ms: no delivery after it\n" (i + 1)
            (Sim_time.to_us d /. 1000.))
    (List.combine r.downs r.blackouts);
  Printf.printf
    "route activity: %d recomputes, %d invalidated entries, %d typed \
     refusals, %d retransmits\n"
    r.recomputes r.invalidated r.refusals r.retransmits;
  dump_tables r.stacks

let run_route ring hubs flaps =
  let ring = ring || flaps in
  if hubs < (if ring then 3 else 1) then
    Error (Printf.sprintf "need at least %d hubs" (if ring then 3 else 1))
  else if flaps then Ok (run_route_flaps ~hubs)
  else
    let trunks, seats = route_layout ~ring ~hubs in
    Ok (dump_tables (World.build ~hubs ~trunks ~seats ()).stacks)
