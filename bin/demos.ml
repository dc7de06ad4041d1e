(* The CLI's scenarios: ping, latency, throughput, the cost model, the
   traced Figure 6 path and the routing layer.  [nectar_cli] exposes each
   as a subcommand; the scenario registry runs the same code under its
   vet/cli-* and trace entries. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
module Net = Nectar_hub.Network
module Cab = Nectar_cab.Cab
module Costs = Nectar_cab.Costs

module World = Nectar_fleet.World
module Table1 = Nectar_bench.Table1
module Fig6 = Nectar_bench.Fig6
module Fig7 = Nectar_bench.Fig7
open Nectar_bench.Bench_world
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

(* ---------- latency and throughput ---------- *)

(* Table 1's echo loop and Figure 7's bulk loop at the size and count
   asked for; at Table 1's and Figure 7's sizes they print the tables'
   values. *)

let run_latency transport payload rounds host =
  let samples = echo_rtt (World.build ()) transport ~host ~payload ~rounds in
  Printf.printf "%s %d-byte round trip (%s level, %d rounds): mean %s\n"
    (match transport with
    | Dgram -> "datagram"
    | Rmp -> "rmp"
    | Udp -> "udp"
    | Rpc _ -> "rpc"
    | Tcp -> "tcp")
    payload
    (if host then "host" else "CAB")
    (max 0 (rounds - Table1.warmup))
    (Sim_time.to_string (Table1.mean_rtt samples))

let run_throughput (transport, checksum) size total_kb =
  let count = max 1 (total_kb * 1024 / size) in
  Printf.printf "%s, %d x %d bytes CAB-to-CAB: %.1f Mbit/s (of 100 physical)\n"
    (match (transport, checksum) with
    | Tcp, true -> "TCP/IP"
    | Tcp, false -> "TCP w/o checksum"
    | _ -> "RMP")
    count size
    (Fig7.throughput ~host:false transport ~checksum ~size ~count)

(* ---------- info ---------- *)

let run_info () =
  let us_of ns = Printf.sprintf "%.1f us" (float_of_int ns /. 1000.) in
  Printf.printf "Calibration constants (lib/hub/network.ml, lib/cab/costs.ml):\n";
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %s\n" k v)
    [
      ("fiber", Printf.sprintf "100 Mbit/s (%d ns/byte)" Net.fiber_ns_per_byte);
      ("hub connection setup", Printf.sprintf "%d ns" Net.hub_setup_ns);
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

(* Figure 6's own scenario (one-way 64-byte host-to-host datagrams),
   [iterations] rounds under its installed tracer: every layer's spans
   land in the ring, and we emit them as Chrome trace-event JSON plus a
   per-stage rollup. *)
let run_trace_scenario ~iterations =
  let { Fig6.world = w; tracer; send_mb; inbox } = Fig6.build ~iterations in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let reg = Nectar_util.Metrics.create () in
  Stack.register_metrics a reg;
  Stack.register_metrics b reg;
  Net.register_metrics w.net reg ~prefix:"";
  Engine.register_metrics w.eng reg ~prefix:"engine.";
  Nectar_util.Copy_meter.reset ();
  Nectar_util.Copy_meter.register_metrics reg ~prefix:"";
  Mailbox.register_metrics inbox reg ~prefix:(Cab.name (Runtime.cab b.Stack.rt) ^ ".");
  Mailbox.register_metrics send_mb reg ~prefix:(Cab.name (Runtime.cab a.Stack.rt) ^ ".");
  Engine.run w.eng;
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
    "trace: fig6 scenario, %d x %d-byte datagrams host-to-host (%d events)\n\n"
    iterations Fig6.payload_bytes (Trace.recorded tracer);
  Printf.printf "  %-24s %6s %12s\n" "stage" "count" "total";
  List.iter
    (fun (label, count, total) ->
      Printf.printf "  %-24s %6d %12s\n" label count (Sim_time.to_string total))
    (Trace.rollup tracer);
  Printf.printf "\nmetrics:\n";
  print_string (Nectar_util.Metrics.render reg)

let run_trace out iterations =
  let ((tracer, _) as traced) = run_trace_scenario ~iterations in
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
