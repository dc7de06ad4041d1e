(* Ablations: the design-choice measurements the paper reports in prose or
   plans as future experiments.

   1. Mailbox interface vs UNIX socket path (netdev): §1's factor-of-~5 in
      latency.
   2. Shared-memory vs RPC-based host mailbox operations: §3.3's factor of
      two on Sun-4 hosts.
   3. Reader upcall vs server thread for a request-response server: §3.3's
      context-switch saving.
   4. TCP input processing in a thread vs at interrupt level: the
      experiment §3.1/§4.2 proposes. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
open Bench_world

(* 1 -------------------------------------------------------------- *)

let netdev_udp_rtt () =
  let eng = Engine.create () in
  let net = Nectar_hub.Network.create eng ~hubs:1 () in
  let make i =
    let cab =
      Nectar_cab.Cab.create net ~hub:0 ~port:i
        ~name:(Printf.sprintf "cab%d" i)
    in
    let rt = Runtime.create cab in
    let host = Host.create eng ~name:(Printf.sprintf "host%d" i) in
    let drv = Cab_driver.attach host rt in
    (host, Netdev.create drv ())
  in
  let host_a, nd_a = make 0 in
  let host_b, nd_b = make 1 in
  Netdev.bind nd_a ~port:9;
  Netdev.bind nd_b ~port:9;
  Host.spawn_process host_b ~name:"echo" (fun ctx ->
      for _ = 1 to 12 do
        let s = Netdev.recv_datagram ctx nd_b ~port:9 in
        Netdev.send_datagram ctx nd_b ~dst_cab:0 ~port:9 s
      done);
  let samples = ref [] in
  Host.spawn_process host_a ~name:"client" (fun ctx ->
      for _ = 1 to 12 do
        let t0 = Engine.now eng in
        Netdev.send_datagram ctx nd_a ~dst_cab:1 ~port:9 (String.make 64 'p');
        ignore (Netdev.recv_datagram ctx nd_a ~port:9);
        samples := (Engine.now eng - t0) :: !samples
      done);
  Engine.run eng;
  Table1.mean_rtt !samples

let socket_vs_mailbox () =
  let mailbox = Table1.host_dgram_rtt () in
  let socket = netdev_udp_rtt () in
  section "Ablation: mailbox interface vs UNIX socket path (64-byte RTT)";
  Printf.printf "  mailbox datagram RTT:        %s\n" (fmt_us mailbox);
  Printf.printf "  netdev (socket) RTT:         %s\n" (fmt_us socket);
  Printf.printf "  socket / mailbox factor:     %.1fx   (paper: ~5x)\n"
    (float_of_int socket /. float_of_int mailbox)

(* 2 -------------------------------------------------------------- *)

let hostlib_cycle mode =
  let w = World.build () in
  let drv_a = World.add_host w 0 in
  let mbox =
    Runtime.create_mailbox w.stacks.(0).Stack.rt ~name:"ab2" ~byte_limit:4096 ()
  in
  let h = Hostlib.attach drv_a mbox ~mode ~readers:`Host in
  let took = ref 0 in
  Host.spawn_process (Cab_driver.host drv_a) ~name:"proc" (fun ctx ->
      (* warm up the process and the CAB opcode path *)
      let m = Hostlib.begin_put ctx h 8 in
      Hostlib.end_put ctx h m;
      let r = Hostlib.begin_get ctx h in
      Hostlib.end_get ctx h r;
      let t0 = Engine.now w.eng in
      let rounds = 20 in
      for _ = 1 to rounds do
        let m = Hostlib.begin_put ctx h 32 in
        Hostlib.write_string ctx h m ~pos:0 (String.make 32 'x');
        Hostlib.end_put ctx h m;
        let r = Hostlib.begin_get ctx h in
        ignore (Hostlib.read_string ctx h r);
        Hostlib.end_get ctx h r
      done;
      took := (Engine.now w.eng - t0) / rounds);
  Engine.run w.eng;
  !took

let shared_vs_rpc () =
  let shared = hostlib_cycle Hostlib.Shared_memory in
  let rpc = hostlib_cycle Hostlib.Rpc in
  section "Ablation: host mailbox operations, shared-memory vs RPC-based";
  Printf.printf "  shared-memory put+get cycle: %s\n" (fmt_us shared);
  Printf.printf "  RPC-based put+get cycle:     %s\n" (fmt_us rpc);
  Printf.printf "  RPC / shared factor:         %.1fx   (paper: ~2x)\n"
    (float_of_int rpc /. float_of_int shared)

(* 3 -------------------------------------------------------------- *)

let rpc_rtt_with_mode mode =
  let w = World.build () in
  Reqresp.register_server w.stacks.(1).Stack.reqresp ~port:902 ~mode
    (fun _ req -> req);
  let samples = ref [] in
  spawn_cab_thread w.stacks.(0) ~name:"client" (fun ctx ->
      for _ = 1 to 12 do
        let t0 = Engine.now w.eng in
        ignore
          (Reqresp.call ctx w.stacks.(0).Stack.reqresp
             ~dst_cab:(Stack.node_id w.stacks.(1)) ~dst_port:902
             (String.make 64 'x'));
        samples := (Engine.now w.eng - t0) :: !samples
      done);
  Engine.run w.eng;
  Table1.mean_rtt !samples

let upcall_vs_thread () =
  let thread = rpc_rtt_with_mode Reqresp.Thread_server in
  let upcall = rpc_rtt_with_mode Reqresp.Upcall_server in
  section "Ablation: RPC server as mailbox upcall vs server thread";
  Printf.printf "  server thread RTT:           %s\n" (fmt_us thread);
  Printf.printf "  reader upcall RTT:           %s\n" (fmt_us upcall);
  Printf.printf
    "  saving:                      %s   (the context switches the upcall \
     avoids)\n"
    (fmt_us (thread - upcall))

(* 4 -------------------------------------------------------------- *)

let tcp_mode_numbers input_mode =
  (* throughput at 8 KB *)
  let tput =
    let w =
      World.build
        ~stack:(fun rt ->
          Stack.create rt ~tcp_mss:8192 ~tcp_input_mode:input_mode ())
        ()
    in
    let k = 150 in
    let total = k * 8192 in
    let done_at = ref 0 and started = ref 0 in
    Tcp.listen w.stacks.(1).Stack.tcp ~port:80 ~on_accept:(fun conn ->
        spawn_cab_thread w.stacks.(1) ~name:"sink" (fun ctx ->
            let received = ref 0 in
            while !received < total do
              received :=
                !received + String.length (Tcp.recv_string ctx conn)
            done;
            done_at := Engine.now w.eng));
    spawn_cab_thread w.stacks.(0) ~name:"source" (fun ctx ->
        let conn =
          Tcp.connect ctx w.stacks.(0).Stack.tcp ~dst:(Stack.addr w.stacks.(1))
            ~dst_port:80 ()
        in
        started := Engine.now w.eng;
        let payload = String.make 8192 't' in
        for _ = 1 to k do
          Tcp.send ctx conn payload
        done);
    Engine.run w.eng;
    mbps ~bytes:total ~ns:(!done_at - !started)
  in
  (* small-message round trip *)
  let rtt =
    let w =
      World.build
        ~stack:(fun rt -> Stack.create rt ~tcp_input_mode:input_mode ())
        ()
    in
    let samples = ref [] in
    Tcp.listen w.stacks.(1).Stack.tcp ~port:80 ~on_accept:(fun conn ->
        spawn_cab_thread w.stacks.(1) ~name:"echo" (fun ctx ->
            for _ = 1 to 12 do
              Tcp.send ctx conn (Tcp.recv_string ctx conn)
            done));
    spawn_cab_thread w.stacks.(0) ~name:"client" (fun ctx ->
        let conn =
          Tcp.connect ctx w.stacks.(0).Stack.tcp ~dst:(Stack.addr w.stacks.(1))
            ~dst_port:80 ()
        in
        for _ = 1 to 12 do
          let t0 = Engine.now w.eng in
          Tcp.send ctx conn (String.make 64 'x');
          ignore (Tcp.recv_string ctx conn);
          samples := (Engine.now w.eng - t0) :: !samples
        done);
    Engine.run w.eng;
    Table1.mean_rtt !samples
  in
  (tput, rtt)

let tcp_thread_vs_interrupt () =
  let t_tput, t_rtt = tcp_mode_numbers `Thread in
  let i_tput, i_rtt = tcp_mode_numbers `Interrupt in
  section "Ablation: TCP input processing, system thread vs interrupt level";
  Printf.printf "  %-24s %12s %12s\n" "" "thread" "interrupt";
  Printf.printf "  %-24s %9s Mb/s %9s Mb/s\n" "throughput @ 8 KB"
    (fmt_mbps t_tput) (fmt_mbps i_tput);
  Printf.printf "  %-24s %12s %12s\n" "64-byte RTT" (fmt_us t_rtt)
    (fmt_us i_rtt);
  Printf.printf
    "  (the experiment the paper planned: interrupt-level input saves\n\
    \   wakeups but runs more of TCP with interrupts masked)\n"

(* 5 -------------------------------------------------------------- *)

(* §3.3: "each mailbox caches a small buffer; this avoids the cost of heap
   allocation and deallocation when sending small messages." *)
let mailbox_cache_benefit () =
  let cycle ~cached =
    let eng = Engine.create () in
    let net = Nectar_hub.Network.create eng ~hubs:1 () in
    let cab = Nectar_cab.Cab.create net ~hub:0 ~port:0 ~name:"cab" in
    let rt = Runtime.create cab in
    let mb =
      Runtime.create_mailbox rt ~name:"m"
        ~cached_buffer_bytes:(if cached then 128 else 0)
        ()
    in
    let took = ref 0 in
    ignore
      (Thread.create cab ~name:"t" (fun ctx ->
           let t0 = Engine.now eng in
           for _ = 1 to 100 do
             let m = Mailbox.begin_put ctx mb 64 in
             Mailbox.end_put ctx mb m;
             let r = Mailbox.begin_get ctx mb in
             Mailbox.end_get ctx r
           done;
           took := (Engine.now eng - t0) / 100));
    Engine.run eng;
    !took
  in
  let with_cache = cycle ~cached:true in
  let without = cycle ~cached:false in
  section "Ablation: per-mailbox cached small buffer (64-byte messages)";
  Printf.printf "  put+get cycle with cache:    %s
" (fmt_us with_cache);
  Printf.printf "  put+get cycle heap-only:     %s
" (fmt_us without);
  Printf.printf "  saving:                      %s per message
"
    (fmt_us (without - with_cache))

(* 6 -------------------------------------------------------------- *)

(* §3.1: "Preemption of application threads is therefore necessary" —
   protocol latency while an application thread computes for milliseconds,
   with the paper's priority scheme vs a non-preemptive (equal-priority)
   configuration. *)
let preemption_necessity () =
  let rtt_with_hog ~app_priority =
    let w = World.build () in
    let port = 900 in
    let inbox_a =
      Runtime.create_mailbox w.stacks.(0).Stack.rt ~name:"in-a" ~port ()
    in
    let inbox_b =
      Runtime.create_mailbox w.stacks.(1).Stack.rt ~name:"in-b" ~port ()
    in
    (* the hog: a compute task on B's CAB, 5 ms of work at a time *)
    ignore
      (Thread.create (Runtime.cab w.stacks.(1).Stack.rt) ~priority:app_priority
         ~name:"hog" (fun ctx ->
           for _ = 1 to 100 do
             ctx.work (Sim_time.ms 5)
           done));
    spawn_cab_thread w.stacks.(1) ~name:"echo" (fun ctx ->
        for _ = 1 to 8 do
          let m = Mailbox.begin_get ctx inbox_b in
          let s = Message.to_string m in
          Mailbox.end_get ctx m;
          Dgram.send_string ctx w.stacks.(1).Stack.dgram
            ~dst_cab:(Stack.node_id w.stacks.(0)) ~dst_port:port s
        done);
    let samples = ref [] in
    spawn_cab_thread w.stacks.(0) ~name:"client" (fun ctx ->
        for _ = 1 to 8 do
          let t0 = Engine.now w.eng in
          Dgram.send_string ctx w.stacks.(0).Stack.dgram
            ~dst_cab:(Stack.node_id w.stacks.(1)) ~dst_port:port
            (String.make 64 'x');
          let m = Mailbox.begin_get ctx inbox_a in
          Mailbox.end_get ctx m;
          samples := (Engine.now w.eng - t0) :: !samples
        done);
    Engine.run ~until:(Sim_time.s 2) w.eng;
    let s = List.rev !samples in
    List.fold_left ( + ) 0 s / max 1 (List.length s)
  in
  let preemptive = rtt_with_hog ~app_priority:Thread.App in
  let flat = rtt_with_hog ~app_priority:Thread.System in
  section "Ablation: preemptive scheduling under application compute";
  Printf.printf "  hog at application priority: %s   (system threads preempt)
"
    (fmt_us preemptive);
  Printf.printf "  hog at system priority:      %s   (echo waits out 5 ms slices)
"
    (fmt_us flat);
  Printf.printf
    "  (the paper's point: without preemption, protocol response time is
    \   at the mercy of application compute)
"

(* 7 -------------------------------------------------------------- *)

(* §5.3 future work: "use the CAB to offload presentation layer
   functionality, such as the marshaling and unmarshaling of data required
   by remote procedure call systems". *)
let marshal_offload () =
  let module P = Nectarine.Presentation in
  let argument =
    P.List
      (List.init 60 (fun i ->
           P.Pair (P.Int i, P.Str (String.make 48 'a'))))
  in
  let calls = 40 in
  let run_on ~offload =
    let w = World.build () in
    let host = Cab_driver.host (World.add_host w 0) in
    let host_cpu = Host.cpu host in
    let elapsed = ref 0 in
    if offload then
      (* a CAB thread marshals on the host's behalf *)
      spawn_cab_thread w.stacks.(0) ~name:"marshaler" (fun ctx ->
          let t0 = Engine.now w.eng in
          for _ = 1 to calls do
            ignore (P.decode ctx (P.encode ctx argument))
          done;
          elapsed := Engine.now w.eng - t0)
    else
      Host.spawn_process host ~name:"marshaler" (fun ctx ->
          let t0 = Engine.now w.eng in
          for _ = 1 to calls do
            ignore (P.decode ctx (P.encode ctx argument))
          done;
          elapsed := Engine.now w.eng - t0);
    Engine.run w.eng;
    let host_busy = Nectar_sim.Cpu.busy_time host_cpu in
    (!elapsed / calls, host_busy / calls)
  in
  let host_per_call, host_busy_h = run_on ~offload:false in
  let cab_per_call, host_busy_c = run_on ~offload:true in
  section "Ablation: presentation-layer marshaling, host vs CAB (section 5.3)";
  Printf.printf "  argument: %d bytes encoded, %d calls
"
    (P.encoded_size argument) calls;
  Printf.printf "  on the host:  %s per call, host CPU %s per call
"
    (fmt_us host_per_call) (fmt_us host_busy_h);
  Printf.printf "  on the CAB:   %s per call, host CPU %s per call
"
    (fmt_us cab_per_call) (fmt_us host_busy_c);
  Printf.printf
    "  (offloading frees the host CPU entirely; the CAB pays the cycles)
"

let run () =
  socket_vs_mailbox ();
  shared_vs_rpc ();
  upcall_vs_thread ();
  tcp_thread_vs_interrupt ();
  mailbox_cache_benefit ();
  preemption_necessity ();
  marshal_offload ()
