(* nectar-cli: run Nectar simulation scenarios from the command line.

     dune exec bin/nectar_cli.exe -- ping --hubs 3
     dune exec bin/nectar_cli.exe -- latency --protocol rmp --level host
     dune exec bin/nectar_cli.exe -- throughput --protocol tcp --size 8192
     dune exec bin/nectar_cli.exe -- info
*)

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

let proto_conv =
  Cmdliner.Arg.enum
    [ ("dgram", Dgram_p); ("rmp", Rmp_p); ("rpc", Rpc_p); ("udp", Udp_p) ]

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

let tproto_conv =
  Cmdliner.Arg.enum
    [ ("tcp", Tcp_t); ("tcp-nocksum", Tcp_nocksum_t); ("rmp", Rmp_t) ]

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

(* ---------- vet ---------- *)

module Vet = Nectar_vet.Vet

(* Each entry: display name, whether a normal return means the world
   quiesced (deployment is cut off mid-traffic, so leftover in-flight
   state is not a leak), and the scenario body. *)
let vet_scenarios : (string * bool * (unit -> unit)) list =
  [
    ("quickstart", true, Nectar_scenarios.quickstart);
    ( "rpc-task-queue",
      true,
      fun () -> Nectar_scenarios.rpc_task_queue ~range_limit:100_000 () );
    ( "tcp-file-transfer",
      true,
      fun () -> Nectar_scenarios.tcp_file_transfer ~file_bytes:(256 * 1024) ()
    );
    ("netdev-vs-offload", true, fun () -> Nectar_scenarios.netdev_vs_offload ());
    ( "deployment",
      false,
      fun () ->
        (* one TCP pair: three bulk senders over the 8-node mesh congest
           RMP past its retry budget, which aborts the scenario early *)
        Nectar_scenarios.deployment ~nodes:8 ~run_for:(Sim_time.ms 50)
          ~tcp_pairs:1 () );
    ("integration-mesh", true, fun () -> Nectar_scenarios.integration_mesh ());
    ("integration-mixed", true, fun () -> Nectar_scenarios.integration_mixed ());
    ("cli-ping", true, fun () -> run_ping 2 4 64);
    ("cli-latency-rmp", true, fun () -> run_latency Rmp_p 64 8 false);
    ("cli-latency-rpc", true, fun () -> run_latency Rpc_p 64 8 false);
    ("cli-latency-host", true, fun () -> run_latency Dgram_p 64 8 true);
    ("cli-throughput-rmp", true, fun () -> run_throughput Rmp_t 8192 256);
    ("cli-throughput-tcp", true, fun () -> run_throughput Tcp_t 8192 256);
  ]

let run_vet verbose =
  let failed = ref [] in
  List.iter
    (fun (name, quiesced, f) ->
      Printf.printf "=== vet: %s ===\n%!" name;
      let result, findings = Vet.run ~quiesced f in
      (match result with
      | Ok () -> ()
      | Error e ->
          Printf.printf "  scenario raised: %s\n" (Printexc.to_string e));
      List.iter
        (fun fi ->
          if fi.Vet.severity <> Vet.Info || verbose then
            Printf.printf "  %s\n" (Format.asprintf "%a" Vet.pp_finding fi))
        findings;
      let bad =
        Result.is_error result
        || List.exists (fun fi -> fi.Vet.severity <> Vet.Info) findings
      in
      if bad then failed := name :: !failed;
      Printf.printf "--- %s: %s\n\n%!" name (if bad then "FINDINGS" else "clean"))
    vet_scenarios;
  match List.rev !failed with
  | [] ->
      Printf.printf "vet: all %d scenarios clean\n"
        (List.length vet_scenarios)
  | bad ->
      Printf.printf "vet: findings in %d scenario(s): %s\n" (List.length bad)
        (String.concat ", " bad);
      exit 1

(* ---------- chaos ---------- *)

module Chaos = Nectar_chaos.Chaos

let print_outcome verbose (o : Chaos.outcome) =
  Printf.printf "=== chaos: %s (seed %d) ===\n" o.Chaos.name o.Chaos.seed;
  List.iter (fun (k, v) -> Printf.printf "  %-22s %d\n" k v) o.Chaos.stats;
  List.iter (fun f -> Printf.printf "  INVARIANT: %s\n" f) o.Chaos.failures;
  List.iter
    (fun fi ->
      if fi.Vet.severity <> Vet.Info || verbose then
        Printf.printf "  %s\n" (Format.asprintf "%a" Vet.pp_finding fi))
    o.Chaos.findings

let run_chaos seed only verbose =
  let selected =
    match only with
    | None -> Chaos.campaigns
    | Some n -> List.filter (fun c -> c.Chaos.cname = n) Chaos.campaigns
  in
  if selected = [] then begin
    Printf.printf "chaos: no such campaign (try one of: %s)\n"
      (String.concat ", "
         (List.map (fun c -> c.Chaos.cname) Chaos.campaigns));
    exit 2
  end;
  let bad = ref [] and nondet = ref [] in
  List.iter
    (fun c ->
      (* run every campaign twice: same seed must give identical faults,
         stats and findings *)
      let o1 = Chaos.run_campaign ~seed c in
      let o2 = Chaos.run_campaign ~seed c in
      print_outcome verbose o1;
      if not (Chaos.outcome_equal o1 o2) then nondet := c.Chaos.cname :: !nondet;
      if not (Chaos.clean o1) then bad := c.Chaos.cname :: !bad;
      Printf.printf "--- %s: %s\n\n%!" c.Chaos.cname
        (if not (Chaos.clean o1) then "FAILURES"
         else if not (Chaos.outcome_equal o1 o2) then "NONDETERMINISTIC"
         else "clean, deterministic"))
    selected;
  match (List.rev !bad, List.rev !nondet) with
  | [], [] ->
      Printf.printf "chaos: all %d campaigns clean and deterministic (seed %d)\n"
        (List.length selected) seed
  | bad, nondet ->
      if bad <> [] then
        Printf.printf "chaos: failures in %d campaign(s): %s\n"
          (List.length bad) (String.concat ", " bad);
      if nondet <> [] then
        Printf.printf "chaos: nondeterministic campaign(s): %s\n"
          (String.concat ", " nondet);
      exit 1

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

(* Minimal JSON syntax checker (no external dependency): validates that the
   emitted trace is well-formed before CI trusts it. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let fail = ref false in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail := true
  in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> str ()
      | Some 't' -> lit "true"
      | Some 'f' -> lit "false"
      | Some 'n' -> lit "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail := true
    end
  and lit w =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then pos := !pos + String.length w
    else fail := true
  and number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && (match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail := true
  and str () =
    expect '"';
    let closed = ref false in
    while (not !closed) && not !fail do
      if !pos >= n then fail := true
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            closed := true
        | '\\' -> pos := !pos + 2
        | _ -> incr pos
    done
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let more = ref true in
      while !more && not !fail do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
            incr pos;
            more := false
        | _ -> fail := true
      done
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let more = ref true in
      while !more && not !fail do
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
            incr pos;
            more := false
        | _ -> fail := true
      done
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

(* Every stage of the fig6 path must appear as a matched begin/end pair. *)
let required_stages =
  [
    "host.begin_put";
    "host.write";
    "host.end_put";
    "host.begin_get";
    "host.read";
    "host.end_get";
    "vme.pio";
    "dl.tx";
    "tx.dma";
    "wire";
    "rx.dma";
  ]

let run_trace out check iterations =
  let tracer, reg = run_trace_scenario ~iterations ~payload:64 in
  let json = chrome_json tracer in
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc json;
      close_out oc;
      Printf.printf "wrote %s (%d events, %d dropped)\n" path
        (Trace.recorded tracer) (Trace.dropped tracer)
  | None -> ());
  Printf.printf
    "trace: fig6 scenario, %d x 64-byte datagrams host-to-host (%d events)\n\n"
    iterations (Trace.recorded tracer);
  Printf.printf "  %-24s %6s %12s\n" "stage" "count" "total";
  List.iter
    (fun (label, count, total) ->
      Printf.printf "  %-24s %6d %12s\n" label count (Sim_time.to_string total))
    (Trace.rollup tracer);
  Printf.printf "\nmetrics:\n";
  Nectar_util.Metrics.dump reg;
  if check then begin
    let failures = ref [] in
    let bad fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
    if not (json_valid json) then bad "emitted Chrome JSON does not parse";
    let spans = Trace.spans tracer in
    List.iter
      (fun stage ->
        if not (List.exists (fun s -> s.Trace.s_label = stage) spans) then
          bad "no matched begin/end pair for stage %s" stage)
      required_stages;
    let begins, ends =
      List.fold_left
        (fun (b, e) ev ->
          match ev.Trace.kind with
          | Trace.Span_begin -> (b + 1, e)
          | Trace.Span_end -> (b, e + 1)
          | Trace.Instant -> (b, e))
        (0, 0) (Trace.events tracer)
    in
    if List.length spans < ends then
      bad "span matching lost pairs (%d ends, %d matched)" ends
        (List.length spans);
    if begins < ends then bad "more span ends (%d) than begins (%d)" ends begins;
    if Trace.dropped tracer > 0 then
      bad "ring overflowed (%d dropped) on the check scenario"
        (Trace.dropped tracer);
    match List.rev !failures with
    | [] -> Printf.printf "\ntrace --check: OK\n"
    | fs ->
        List.iter (fun f -> Printf.printf "\ntrace --check: FAIL: %s" f) fs;
        print_newline ();
        exit 1
  end

(* ---------- check ---------- *)

module Explore = Nectar_check.Explore
module Schedule = Nectar_check.Schedule
module Isolation = Nectar_check.Isolation
module Check_scenarios = Nectar_check.Scenarios

let print_counterexample (cx : Explore.counterexample) =
  Printf.printf "  counterexample schedule: [%s]\n"
    (Schedule.to_string cx.cx_schedule);
  List.iter
    (fun st -> Printf.printf "    %s\n" (Schedule.step_to_string st))
    cx.cx_steps;
  List.iter (fun v -> Printf.printf "    violation: %s\n" v) cx.cx_violations

let run_check smoke only verbose =
  let failed = ref [] in
  let fail name fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "  FAIL: %s\n" m;
        failed := name :: !failed)
      fmt
  in
  let scenarios, audits =
    match only with
    | None -> (Check_scenarios.all, Check_scenarios.audits)
    | Some n -> (
        match (Check_scenarios.find n, Check_scenarios.find_audit n) with
        | Some s, _ -> ([ s ], [])
        | None, Some a -> ([], [ a ])
        | None, None ->
            Printf.printf "check: unknown scenario %s (known: %s)\n" n
              (String.concat ", "
                 (List.map (fun (s : Explore.scenario) -> s.name)
                    Check_scenarios.all
                 @ List.map
                     (fun (a : Check_scenarios.audit_case) -> a.a_name)
                     Check_scenarios.audits));
            exit 2)
  in
  List.iter
    (fun (s : Explore.scenario) ->
      Printf.printf "=== check: %s ===\n%!" s.name;
      Printf.printf "  %s\n" s.descr;
      (* the default-order run must be clean even for seeded bugs: the
         point of the explorer is catching what a single run cannot *)
      let default_run = Explore.run_one s [||] in
      if default_run.violations <> [] then
        fail s.name "default-order run violated: %s"
          (String.concat "; " default_run.violations);
      let budget = if smoke then min 150 s.budget else s.budget in
      let o = Explore.explore ~max_runs:budget s in
      let st = o.stats in
      Printf.printf
        "  %d runs, %d choice points, %d distinct states, %d pruned, deepest \
         %d%s\n"
        st.runs st.choice_points st.distinct_states st.pruned st.deepest
        (if st.budget_exhausted then " (budget exhausted)" else "");
      (match (s.expect_bug, o.counterexamples) with
      | true, [] -> fail s.name "seeded bug not found by exploration"
      | true, cx :: _ ->
          Printf.printf "  seeded bug found (default order clean):\n";
          print_counterexample cx;
          let r = Explore.replay s cx.cx_schedule in
          if r.violations = [] then
            fail s.name "counterexample did not reproduce on replay"
          else
            Printf.printf "  replay reproduces: %s\n" (List.hd r.violations)
      | false, [] -> Printf.printf "  clean in every explored interleaving\n"
      | false, cx :: _ ->
          print_counterexample cx;
          fail s.name "%d counterexample(s) in a scenario expected clean"
            (List.length o.counterexamples));
      if verbose && s.expect_bug then begin
        Printf.printf "  default-order decisions:\n";
        List.iter
          (fun st -> Printf.printf "    %s\n" (Schedule.step_to_string st))
          default_run.steps
      end;
      Printf.printf "\n%!")
    scenarios;
  List.iter
    (fun (a : Check_scenarios.audit_case) ->
      Printf.printf "=== isolation: %s ===\n%!" a.a_name;
      Printf.printf "  %s\n" a.a_descr;
      let r = a.a_run () in
      if verbose || not (Isolation.clean r) then
        Printf.printf "%s" (Format.asprintf "%a" Isolation.pp_report r)
      else
        Printf.printf "  scanned %d blocks, %d boundary hits, clean\n"
          r.Isolation.blocks_scanned r.Isolation.boundary_hits;
      (match (a.a_expect_shared, Isolation.clean r) with
      | true, true -> fail a.a_name "planted alias not reported"
      | true, false -> Printf.printf "  planted alias reported, as expected\n"
      | false, true -> ()
      | false, false -> fail a.a_name "unexpected cross-node sharing");
      Printf.printf "\n%!")
    audits;
  match List.rev !failed with
  | [] ->
      Printf.printf "check: all %d scenario(s) and %d audit(s) pass\n"
        (List.length scenarios) (List.length audits)
  | bad ->
      Printf.printf "check: FAILED: %s\n" (String.concat ", " bad);
      exit 1

(* ---------- route ---------- *)

module Router = Nectar_route.Router
module Policy = Nectar_route.Policy

(* Two stacks on a chain (one path per pair) or a closed ring (two
   disjoint arcs per pair), seated from port 2 as the chaos campaigns
   seat them. *)
let route_layout ~ring ~hubs =
  if ring then (Topology.ring_trunks ~hubs, [ (0, 2); (hubs / 2, 2) ])
  else (Topology.chain_trunks ~hubs, [ (0, 2); (1 mod hubs, 2 + (1 / hubs)) ])

let dump_tables (w : World.t) =
  Array.iter
    (fun st ->
      let r = st.Stack.router in
      Printf.printf "node %d source-route table (generation %d):\n"
        (Stack.node_id st) (Router.generation r);
      List.iter (fun l -> Printf.printf "  %s\n" l) (Router.table_lines r))
    w.stacks

(* The verifier gate: lawful policies must verify clean on both topology
   shapes, and planted unlawful ones — a looping pinned route and a
   dead-end rule — must be rejected with the right typed error. *)
let run_route_verify ~hubs =
  let failures = ref 0 in
  let gate what errs ok =
    Printf.printf "  %-52s %s\n" what (if ok then "ok" else "FAIL");
    List.iter
      (fun e -> Printf.printf "      %s\n" (Router.string_of_error e))
      errs;
    if not ok then incr failures
  in
  (* the default policy verifies on the one-path shapes (chain, ring)
     and the multipath ones: wrap trunks (torus) and parallel two-hop
     spines (fat tree) *)
  List.iter
    (fun (name, hubs, (trunks, seats)) ->
      let w = World.build ~hubs ~trunks ~seats () in
      let errs = Router.verify w.stacks.(0).Stack.router in
      gate (Printf.sprintf "default policy verifies on the %s" name) errs
        (errs = []))
    [
      ("chain", hubs, route_layout ~ring:false ~hubs);
      ("ring", hubs, route_layout ~ring:true ~hubs);
      ( "3x3 torus",
        9,
        (Topology.torus_trunks ~rows:3 ~cols:3, [ (0, 2); (4, 2) ]) );
      ( "4-leaf fat tree",
        6,
        (Topology.fat_tree_trunks ~leaves:4 ~spines:2, [ (0, 2); (3, 2) ]) );
    ];
  let trunks, seats = route_layout ~ring:true ~hubs:4 in
  let w = World.build ~hubs:4 ~trunks ~seats () in
  let a = Stack.node_id w.stacks.(0) and b = Stack.node_id w.stacks.(1) in
  (* hub0 -14-> hub3 -15-> hub0 -14-> hub3 -14-> hub2 -2-> node b: walks
     to the destination over live ports, but revisits two HUBs *)
  let looping =
    [
      {
        Policy.where = Policy.And (Policy.Src a, Policy.Dst b);
        prefer = [ Policy.Static [ 14; 15; 14; 14; 2 ] ];
        ecmp = false;
      };
    ]
  in
  let errs = Router.verify (Router.create ~policy:looping w.net) in
  gate "planted looping Static route is rejected" errs
    (List.exists (function Router.Looping _ -> true | _ -> false) errs);
  (* avoiding both transit HUBs of the 4-ring leaves no path for a pair
     that is perfectly reachable in the live topology *)
  let unreachable =
    [
      {
        Policy.where = Policy.And (Policy.Src a, Policy.Dst b);
        prefer = [ Policy.Avoid_hubs [ 1; 3 ] ];
        ecmp = false;
      };
    ]
  in
  let errs = Router.verify (Router.create ~policy:unreachable w.net) in
  gate "planted unreachable policy is rejected" errs
    (List.exists (function Router.Unreachable _ -> true | _ -> false) errs);
  !failures

(* Replay a short flap schedule against paced RMP traffic and print what
   the routing layer did about it: per-cycle blackouts, recompute count,
   refusals, and the reconverged tables. *)
let run_route_flaps ~hubs =
  let trunks, seats = route_layout ~ring:true ~hubs in
  let w =
    World.build ~hubs ~trunks ~seats
      ~stack:(fun rt -> Stack.create rt ~rmp_window:4 ())
      ()
  in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let gap = Sim_time.us 200 and bytes = 256 and cycles = 3 in
  let period = Sim_time.ms 8 and outage = Sim_time.ms 2 in
  let downs = List.init cycles (fun k -> Sim_time.ms 5 + (k * period)) in
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
  let msgs = (Sim_time.ms 5 + (cycles * period)) / gap in
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"route-inbox" ~port:950
      ~byte_limit:(64 * 1024) ()
  in
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"route-sink" (fun ctx ->
         for _ = 1 to msgs do
           let m = Mailbox.begin_get ctx inbox in
           Mailbox.end_get ctx m
         done));
  let tracer = Trace.create w.eng in
  Trace.install tracer;
  Fun.protect
    ~finally:(fun () -> Trace.uninstall ())
    (fun () ->
      ignore
        (Thread.create (Runtime.cab a.Stack.rt) ~name:"route-source"
           (fun ctx ->
             let payload = String.make bytes 'r' in
             let dst_cab = Stack.node_id b in
             for _ = 1 to msgs do
               Rmp.send_string ctx a.Stack.rmp ~dst_cab ~dst_port:950 payload;
               Engine.sleep ctx.Ctx.eng gap
             done;
             Rmp.flush ctx a.Stack.rmp ~dst_cab ~dst_port:950));
      Engine.run w.eng;
      let deliveries = Trace.occurrences tracer "rmp.deliver" in
      let bound =
        Router.blackout_bound_ns a.Stack.router ~rto_ns:(Rmp.rto a.Stack.rmp)
        + gap
      in
      Printf.printf
        "%d flap cycles on HUB 0 trunk port 14 (down %.1f ms each):\n" cycles
        (Sim_time.to_us outage /. 1000.);
      List.iteri
        (fun i d ->
          match List.find_opt (fun t -> t > d) deliveries with
          | Some t ->
              Printf.printf
                "  flap %d at %5.1f ms: blackout %6.0f us  (bound %.0f us)\n"
                (i + 1)
                (Sim_time.to_us d /. 1000.)
                (Sim_time.to_us (t - d))
                (Sim_time.to_us bound)
          | None ->
              Printf.printf "  flap %d at %5.1f ms: no delivery after it\n"
                (i + 1)
                (Sim_time.to_us d /. 1000.))
        downs;
      Printf.printf
        "route activity: %d recomputes, %d invalidated entries, %d typed \
         refusals, %d retransmits\n"
        (Router.recomputes a.Stack.router)
        (Router.invalidated a.Stack.router)
        (Router.route_down_refusals a.Stack.router)
        (Rmp.retransmits a.Stack.rmp);
      dump_tables w)

let run_route ring hubs verify flaps =
  if hubs < (if ring then 3 else 1) then begin
    Printf.printf "route: need at least %d hubs\n" (if ring then 3 else 1);
    exit 2
  end;
  if verify then begin
    Printf.printf "route --verify (policy obligations):\n";
    let fails = run_route_verify ~hubs in
    if fails > 0 then begin
      Printf.printf "route --verify: %d gate(s) FAILED\n" fails;
      exit 1
    end
    else
      Printf.printf
        "route --verify: lawful policies accepted, planted looping and \
         unreachable policies rejected\n"
  end
  else if flaps then run_route_flaps ~hubs
  else
    let trunks, seats = route_layout ~ring ~hubs in
    dump_tables (World.build ~hubs ~trunks ~seats ())

(* ---------- coll: CAB-resident collectives (lib/coll) ---------- *)

module Coll = Nectar_coll.Coll
module Coll_tree = Nectar_coll.Coll.Tree

let coll_topology cabs =
  match Nectar_fleet.Topology.torus_of_cabs cabs with
  | Some topo -> topo
  | None ->
      Printf.printf "coll: --cabs must be 64, 256, 512 or 1024\n";
      exit 2

(* One mode (tree or host baseline) of the collective scenario: every CAB
   loops barrier/reduce/bcast [ops] times; the root times each primitive
   and its runtime's host-notification count checks the wakeup contract. *)
let run_coll_mode ~topo ~ops ~host ~failures =
  let w = Coll.World.build topo in
  let n = Array.length w.Coll.World.colls in
  let root = Coll_tree.root w.Coll.World.tree in
  let b_lat, r_lat, c_lat = Coll.World.run w ~ops ~host in
  let mode = if host then "host" else "tree" in
  let wakeups =
    Runtime.host_notifications w.Coll.World.stacks.(root).Stack.rt
  in
  let expect_wakeups = if host then 3 * ops * n else 3 * ops in
  if wakeups <> expect_wakeups then begin
    incr failures;
    Printf.printf "  FAIL: %s wakeups %d, expected %d\n" mode wakeups
      expect_wakeups
  end;
  Array.iteri
    (fun i st ->
      if i <> root && Runtime.host_notifications st.Stack.rt <> 0 then begin
        incr failures;
        Printf.printf "  FAIL: %s wakeups off the root (node %d)\n" mode i
      end)
    w.Coll.World.stacks;
  Array.iter
    (fun c ->
      if Coll.ops_completed c <> 3 * ops then begin
        incr failures;
        Printf.printf "  FAIL: %s node completed %d ops, expected %d\n" mode
          (Coll.ops_completed c) (3 * ops)
      end)
    w.Coll.World.colls;
  let pct s p = Nectar_util.Summary.percentile s p /. 1e3 in
  Printf.printf "  %-5s %-9s %10s %10s\n" mode "" "p50_us" "p99_us";
  List.iter
    (fun (name, s) ->
      Printf.printf "  %-5s %-9s %10.1f %10.1f\n" mode name (pct s 0.5)
        (pct s 0.99))
    [ ("barrier", b_lat); ("reduce", r_lat); ("bcast", c_lat) ];
  Printf.printf "  %-5s host wakeups at the root: %d (%d ops)\n" mode wakeups
    (3 * ops);
  (w, root)

let run_coll cabs ops baseline metrics =
  let topo = coll_topology cabs in
  let failures = ref 0 in
  Printf.printf
    "collectives: %d CABs (torus, 4 seats/hub), %d iterations of \
     barrier + reduce + bcast\n"
    cabs ops;
  let w, root = run_coll_mode ~topo ~ops ~host:false ~failures in
  Printf.printf "  tree: depth %d, max fanout %d, root node %d\n"
    (Coll_tree.max_depth w.Coll.World.tree)
    (Coll_tree.max_fanout w.Coll.World.tree)
    root;
  if metrics then begin
    let reg = Nectar_util.Metrics.create () in
    Stack.register_metrics w.Coll.World.stacks.(root) reg;
    Printf.printf "  root metrics:\n";
    Nectar_util.Metrics.dump reg
  end;
  if baseline then
    ignore (run_coll_mode ~topo ~ops ~host:true ~failures);
  if !failures > 0 then begin
    Printf.printf "coll: %d invariant(s) FAILED\n" !failures;
    exit 1
  end
  else
    Printf.printf
      "coll: wakeup contract held (%s)\n"
      (if baseline then "tree: one per op; host baseline: one per \
                         participant per op"
       else "one per op")

(* ---------- cmdliner wiring ---------- *)

open Cmdliner

let ping_cmd =
  let hubs = Arg.(value & opt int 1 & info [ "hubs" ] ~doc:"HUBs in the chain.") in
  let count = Arg.(value & opt int 4 & info [ "count"; "c" ] ~doc:"Echo requests.") in
  let payload = Arg.(value & opt int 32 & info [ "payload" ] ~doc:"Payload bytes.") in
  Cmd.v (Cmd.info "ping" ~doc:"ICMP echo across a HUB chain")
    Term.(const run_ping $ hubs $ count $ payload)

let latency_cmd =
  let proto =
    Arg.(value & opt proto_conv Dgram_p & info [ "protocol"; "p" ]
           ~doc:"Transport: $(b,dgram), $(b,rmp), $(b,rpc) or $(b,udp).")
  in
  let payload = Arg.(value & opt int 64 & info [ "payload" ] ~doc:"Payload bytes.") in
  let rounds = Arg.(value & opt int 16 & info [ "rounds" ] ~doc:"Round trips.") in
  let host =
    Arg.(value & opt (enum [ ("host", true); ("cab", false) ]) false
         & info [ "level" ] ~doc:"Endpoints: $(b,host) processes or $(b,cab) threads.")
  in
  Cmd.v (Cmd.info "latency" ~doc:"Round-trip latency (Table 1 style)")
    Term.(const run_latency $ proto $ payload $ rounds $ host)

let throughput_cmd =
  let proto =
    Arg.(value & opt tproto_conv Rmp_t & info [ "protocol"; "p" ]
           ~doc:"Transport: $(b,tcp), $(b,tcp-nocksum) or $(b,rmp).")
  in
  let size = Arg.(value & opt int 8192 & info [ "size" ] ~doc:"Message bytes.") in
  let kb = Arg.(value & opt int 1024 & info [ "kbytes" ] ~doc:"Total kbytes.") in
  Cmd.v (Cmd.info "throughput" ~doc:"CAB-to-CAB throughput (Figure 7 style)")
    Term.(const run_throughput $ proto $ size $ kb)

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Print the hardware cost model")
    Term.(const run_info $ const ())

let vet_cmd =
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ] ~doc:"Also print informational findings.")
  in
  Cmd.v
    (Cmd.info "vet"
       ~doc:
         "Run every scenario under the runtime sanitizers (lock order, \
          two-phase mailbox protocol, buffer lifecycle, interrupt \
          discipline, starvation); exit nonzero on findings")
    Term.(const run_vet $ verbose)

let chaos_cmd =
  let seed =
    Arg.(value & opt int 1990
         & info [ "seed" ] ~doc:"Fault-plan PRNG seed (same seed, same faults).")
  in
  let only =
    Arg.(value & opt (some string) None
         & info [ "only" ] ~doc:"Run a single named campaign.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ] ~doc:"Also print informational findings.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the seeded fault-injection campaigns (wire loss and \
          corruption, link flap, CAB crash, VME bus errors, allocation \
          failures, signal loss, mailbox overflow, TCP budget) under every \
          vet checker; each campaign runs twice to prove determinism; exit \
          nonzero on any invariant violation, finding or mismatch")
    Term.(const run_chaos $ seed $ only $ verbose)

let trace_cmd =
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ]
             ~doc:"Write Chrome trace-event JSON (chrome://tracing loadable) \
                   to $(docv)." ~docv:"FILE")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Validate the emitted JSON and assert a matched begin/end \
                   span for every host/VME/CAB/wire stage; exit nonzero on \
                   failure.")
  in
  let iterations =
    Arg.(value & opt int 4 & info [ "iterations" ] ~doc:"Datagrams to trace.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay the Figure 6 datagram scenario under the causal tracer: \
          per-stage span rollup, unified metrics dump, and optional Chrome \
          trace-event JSON export")
    Term.(const run_trace $ out $ check $ iterations)

let check_cmd =
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Reduced per-scenario exploration budget (CI gate).")
  in
  let only =
    Arg.(value & opt (some string) None
         & info [ "scenario" ]
             ~doc:"Run a single named scenario or isolation audit.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ]
             ~doc:"Print full audit reports and default-order decision \
                   traces.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check the same-time interleavings of the scenario suite \
          (every ordering of equal-timestamp events, with state-fingerprint \
          pruning; seeded bugs must be caught with a replayable \
          counterexample) and audit heap-level node isolation for the \
          planned domains refactor; exit nonzero on any failure")
    Term.(const run_check $ smoke $ only $ verbose)

let route_cmd =
  let ring =
    Arg.(value & flag
         & info [ "ring" ]
             ~doc:"Close the HUB chain into a ring (two disjoint arcs per \
                   pair).")
  in
  let hubs =
    Arg.(value & opt int 4 & info [ "hubs" ] ~doc:"HUBs in the topology.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Run the policy verifier gate: the default policy must \
                   verify clean on chain and ring, and planted looping / \
                   unreachable policies must be rejected; exit nonzero \
                   otherwise.")
  in
  let flaps =
    Arg.(value & flag
         & info [ "flaps" ]
             ~doc:"Replay a seeded trunk-flap schedule against paced RMP \
                   traffic on the ring and print per-cycle blackouts and \
                   the reconverged tables.")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Inspect the routing-policy layer: dump compiled per-node \
          source-route tables, run the compile-time verifier gate, or \
          replay a link-flap schedule")
    Term.(const run_route $ ring $ hubs $ verify $ flaps)

let coll_cmd =
  let cabs =
    Arg.(value & opt int 64
         & info [ "cabs" ] ~doc:"Fleet size: 64, 256, 512 or 1024 CABs.")
  in
  let ops =
    Arg.(value & opt int 5
         & info [ "ops" ] ~doc:"Iterations of barrier+reduce+bcast.")
  in
  let baseline =
    Arg.(value & flag
         & info [ "baseline" ]
             ~doc:"Also run the host-driven star baseline (one host wakeup \
                   per participant per op) for comparison.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Dump the root stack's metrics registry (includes the \
                   coll service counters).")
  in
  Cmd.v
    (Cmd.info "coll"
       ~doc:
         "Run the CAB-resident collective primitives (barrier, reduce, \
          broadcast) over the fleet spanning tree, asserting the \
          single-wakeup-per-operation contract at the root; optionally \
          compare against the host-driven baseline; exit nonzero on any \
          invariant violation")
    Term.(const run_coll $ cabs $ ops $ baseline $ metrics)

let () =
  let doc = "Nectar communication processor simulation scenarios" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "nectar-cli" ~doc)
          [
            ping_cmd; latency_cmd; throughput_cmd; info_cmd; route_cmd;
            coll_cmd; vet_cmd; chaos_cmd; trace_cmd; check_cmd;
          ]))
