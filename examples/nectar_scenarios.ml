(* Every example scenario as a callable function, so the same worlds can
   run standalone (the thin mains in this directory), under the vet
   checkers (`nectar_cli vet`), or from tests.  Parameters default to the
   standalone sizes; the printed commentary is part of each scenario. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
module World = Nectar_fleet.World

(* Quickstart: two hosts exchange a datagram, a reliable message and an
   RPC through the Nectarine application interface (paper §3.5). *)
let quickstart () =
  let w = World.build () in
  let eng = w.eng in
  let make i = Nectarine.host_node (World.add_host w i) w.stacks.(i) in
  let alice = make 0 in
  let bob = make 1 in

  let inbox = Nectarine.create_mailbox bob ~name:"bob-inbox" () in
  Nectarine.serve bob ~port:42 (fun _ctx request -> "you said: " ^ request);

  Nectarine.spawn bob ~name:"bob" (fun ctx ->
      let m1 = Nectarine.receive ctx inbox in
      Printf.printf "[%-7s] bob received datagram:  %S\n"
        (Sim_time.to_string (Engine.now eng)) m1;
      let m2 = Nectarine.receive ctx inbox in
      Printf.printf "[%-7s] bob received reliable:  %S\n"
        (Sim_time.to_string (Engine.now eng)) m2);

  Nectarine.spawn alice ~name:"alice" (fun ctx ->
      let dst = Nectarine.address inbox in
      (* let both hosts finish their cold start before timing anything *)
      Engine.sleep eng (Sim_time.ms 2);
      let t0 = Engine.now eng in
      Nectarine.send ctx alice ~dst ~reliable:false "hello (fire and forget)";
      Printf.printf "[%-7s] alice sent datagram (returned after %s)\n"
        (Sim_time.to_string (Engine.now eng))
        (Sim_time.to_string (Engine.now eng - t0));

      let t0 = Engine.now eng in
      Nectarine.send ctx alice ~dst "hello (acknowledged)";
      Printf.printf "[%-7s] alice sent reliable message in %s\n"
        (Sim_time.to_string (Engine.now eng))
        (Sim_time.to_string (Engine.now eng - t0));

      let t0 = Engine.now eng in
      let reply =
        Nectarine.call ctx alice
          ~dst:{ Nectarine.cab = Nectarine.node_cab_id bob; port = 42 }
          "ping"
      in
      Printf.printf "[%-7s] alice rpc -> %S  (round trip %s)\n"
        (Sim_time.to_string (Engine.now eng))
        reply
        (Sim_time.to_string (Engine.now eng - t0)));

  Engine.run eng;
  Printf.printf "simulation quiesced at %s\n"
    (Sim_time.to_string (Engine.now eng))

(* Task-queue parallel processing (paper §5.3): a master CAB divides a
   prime-counting job among worker CABs over request-response, with a
   serial run for the speedup comparison. *)
let rpc_task_queue ?(workers = 4) ?(range_limit = 400_000)
    ?(task_size = 20_000) () =
  (* the "work": count primes in [lo, hi), charged at ~40 CAB cycles per
     candidate so the simulation reflects compute time on a 16.5 MHz
     processor *)
  let count_primes (ctx : Ctx.t) lo hi =
    let count = ref 0 in
    for n = max 2 lo to hi - 1 do
      let is_prime = ref (n >= 2) in
      let d = ref 2 in
      while !is_prime && !d * !d <= n do
        if n mod !d = 0 then is_prime := false;
        incr d
      done;
      if !is_prime then incr count
    done;
    ctx.work (Nectar_cab.Costs.cab_cycles (40 * (hi - lo)));
    !count
  in
  let w =
    World.build
      ~seats:(World.ports (workers + 1))
      (* prime-counting tasks run for tens of simulated milliseconds, far
         beyond the default RPC retry budget *)
      ~stack:(fun rt ->
        Stack.create rt ~rpc_rto:(Sim_time.ms 50) ~rpc_retries:20 ())
      ()
  in
  let eng = w.eng in
  (* node 0: the master's CAB; nodes 1..workers: worker CABs.  Dispatch
     runs on the master CAB so the per-worker dispatcher tasks issue RPCs
     concurrently (a host process would serialise on the driver). *)
  let master_stack = w.stacks.(0) in
  let master = Nectarine.cab_node master_stack in
  let worker_stacks = List.init workers (fun i -> w.stacks.(i + 1)) in

  let tasks_done = Array.make (workers + 1) 0 in
  List.iteri
    (fun i stack ->
      Reqresp.register_server stack.Stack.reqresp ~port:7
        ~mode:Reqresp.Thread_server (fun ctx request ->
          Scanf.sscanf request "%d %d" (fun lo hi ->
              let c = count_primes ctx lo hi in
              tasks_done.(i + 1) <- tasks_done.(i + 1) + 1;
              string_of_int c)))
    worker_stacks;

  let tasks = Queue.create () in
  let rec fill lo =
    if lo < range_limit then begin
      Queue.add (lo, min range_limit (lo + task_size)) tasks;
      fill (lo + task_size)
    end
  in
  fill 0;
  let n_tasks = Queue.length tasks in
  let total = ref 0 in
  let finished = ref 0 in
  let t_start = ref 0 and t_end = ref 0 in
  List.iteri
    (fun i stack ->
      ignore stack;
      Nectarine.spawn master ~name:(Printf.sprintf "dispatch-%d" i)
        (fun ctx ->
          if i = 0 then t_start := Engine.now eng;
          let continue_dispatch = ref true in
          while !continue_dispatch do
            match Queue.take_opt tasks with
            | None -> continue_dispatch := false
            | Some (lo, hi) ->
                let reply =
                  Nectarine.call ctx master
                    ~dst:{ Nectarine.cab = i + 1; port = 7 }
                    (Printf.sprintf "%d %d" lo hi)
                in
                total := !total + int_of_string reply;
                incr finished;
                if !finished = n_tasks then t_end := Engine.now eng
          done))
    worker_stacks;
  Engine.run eng;
  let parallel_ns = !t_end - !t_start in

  (* serial reference: the same job on a single worker CAB *)
  let serial_ns =
    let eng = Engine.create () in
    let net = Nectar_hub.Network.create eng ~hubs:1 () in
    let cab = Nectar_cab.Cab.create net ~hub:0 ~port:0 ~name:"solo" in
    ignore (Runtime.create cab);
    let took = ref 0 in
    ignore
      (Thread.create cab ~name:"solo" (fun ctx ->
           let count = ref 0 in
           let lo = ref 0 in
           while !lo < range_limit do
             count := !count + count_primes ctx !lo (!lo + task_size);
             lo := !lo + task_size
           done;
           took := Engine.now eng));
    Engine.run eng;
    !took
  in

  Printf.printf "prime count in [0, %d): %d\n" range_limit !total;
  Printf.printf "tasks: %d of %d candidates each\n" n_tasks task_size;
  Printf.printf "serial on one CAB:   %s\n" (Sim_time.to_string serial_ns);
  Printf.printf "parallel on %d CABs: %s  (speedup %.2fx)\n" workers
    (Sim_time.to_string parallel_ns)
    (float_of_int serial_ns /. float_of_int parallel_ns);
  Array.iteri
    (fun i n -> if i > 0 then Printf.printf "  worker %d served %d tasks\n" i n)
    tasks_done

(* Bulk TCP/IP across a two-HUB mesh with IP fragmentation and injected
   wire faults; TCP retransmission repairs the stream and the receiver
   verifies a content digest. *)
let tcp_file_transfer ?(file_bytes = 1024 * 1024) ?(mtu = 1500) ?(mss = 4096)
    ?(corrupt_every = 211) () =
  let module Net = Nectar_hub.Network in
  let digest_string acc s =
    String.fold_left (fun a c -> ((a * 131) + Char.code c) land 0xffffff) acc s
  in
  (* two HUBs joined by a trunk; one CAB on each *)
  let w =
    World.build ~hubs:2
      ~trunks:[ ((0, 15), (1, 15)) ]
      ~seats:[ (0, 0); (1, 0) ]
      ~stack:(fun rt -> Stack.create rt ~mtu ~tcp_mss:mss ())
      ()
  in
  let eng = w.eng and net = w.net in
  let src = w.stacks.(0) and dst = w.stacks.(1) in
  Printf.printf "route %d -> %d via ports %s\n" (Stack.node_id src)
    (Stack.node_id dst)
    (String.concat "," (List.map string_of_int
         (Net.route net ~src:(Stack.node_id src) ~dst:(Stack.node_id dst))));

  (* corrupt every Nth frame: the CAB hardware CRC drops it, transports
     recover *)
  let frames = ref 0 in
  Net.set_fault_hook net
    (Some (fun _ ->
         incr frames;
         if !frames mod corrupt_every = 0 then `Corrupt else `Deliver));

  let sent_digest = ref 0 and recv_digest = ref 0 in
  let received = ref 0 and finished_at = ref 0 in
  Tcp.listen dst.Stack.tcp ~port:2049 ~on_accept:(fun conn ->
      ignore
        (Thread.create (Runtime.cab dst.Stack.rt) ~name:"file-sink"
           (fun ctx ->
             while !received < file_bytes do
               let chunk = Tcp.recv_string ctx conn in
               recv_digest := digest_string !recv_digest chunk;
               received := !received + String.length chunk
             done;
             finished_at := Engine.now eng)));
  let started_at = ref 0 in
  ignore
    (Thread.create (Runtime.cab src.Stack.rt) ~name:"file-source" (fun ctx ->
         let conn =
           Tcp.connect ctx src.Stack.tcp ~dst:(Stack.addr dst) ~dst_port:2049
             ()
         in
         started_at := Engine.now eng;
         let sent = ref 0 in
         while !sent < file_bytes do
           let n = min 16384 (file_bytes - !sent) in
           let chunk =
             String.init n (fun i -> Char.chr ((!sent + i) land 0xff))
           in
           sent_digest := digest_string !sent_digest chunk;
           Tcp.send ctx conn chunk;
           sent := !sent + n
         done;
         Tcp.close ctx conn));
  Engine.run eng;

  let elapsed = !finished_at - !started_at in
  Printf.printf "transferred %d KB in %s: %.1f Mbit/s\n" (file_bytes / 1024)
    (Sim_time.to_string elapsed)
    (Stats.Throughput.mbit_per_s ~bytes_moved:file_bytes ~elapsed);
  Printf.printf "content digest: sent %06x, received %06x -> %s\n"
    !sent_digest !recv_digest
    (if !sent_digest = !recv_digest then "INTACT" else "CORRUPT");
  Printf.printf "tcp segments: %d out, %d retransmitted\n"
    (Tcp.segments_out src.Stack.tcp)
    (Tcp.retransmissions src.Stack.tcp);
  Printf.printf "ip fragments sent: %d, datagrams reassembled: %d\n"
    (Ipv4.fragments_out src.Stack.ip)
    (Ipv4.reassembled dst.Stack.ip);
  Printf.printf "frames dropped by hardware CRC: %d (of %d on the wire)\n"
    (Datalink.drops_crc dst.Stack.dl + Datalink.drops_crc src.Stack.dl)
    !frames

(* Network-device mode vs protocol offload (paper §5.1 vs §5.2): the same
   request-reply application over the two CAB usage levels. *)
let netdev_vs_offload ?(rounds = 16) () =
  let module Net = Nectar_hub.Network in
  let payload = String.make 64 'q' in
  let offload_rtt () =
    let w = World.build () in
    let eng = w.eng in
    let make i = Nectarine.host_node (World.add_host w i) w.stacks.(i) in
    let client = make 0 in
    let server = make 1 in
    let inbox_c = Nectarine.create_mailbox client ~name:"client-inbox" () in
    let inbox_s = Nectarine.create_mailbox server ~name:"server-inbox" () in
    Nectarine.spawn server ~name:"echo" (fun ctx ->
        for _ = 1 to rounds do
          let m = Nectarine.receive ctx inbox_s in
          Nectarine.send ctx server ~dst:(Nectarine.address inbox_c)
            ~reliable:false m
        done);
    let acc = ref 0 in
    Nectarine.spawn client ~name:"client" (fun ctx ->
        for i = 1 to rounds do
          let t0 = Engine.now eng in
          Nectarine.send ctx client ~dst:(Nectarine.address inbox_s)
            ~reliable:false payload;
          ignore (Nectarine.receive ctx inbox_c);
          if i > 4 then acc := !acc + (Engine.now eng - t0)
        done);
    Engine.run eng;
    !acc / (rounds - 4)
  in
  let netdev_rtt () =
    let eng = Engine.create () in
    let net = Net.create eng ~hubs:1 () in
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
    let host_c, nd_c = make 0 in
    let host_s, nd_s = make 1 in
    Netdev.bind nd_c ~port:9;
    Netdev.bind nd_s ~port:9;
    Host.spawn_process host_s ~name:"echo" (fun ctx ->
        for _ = 1 to rounds do
          let s = Netdev.recv_datagram ctx nd_s ~port:9 in
          Netdev.send_datagram ctx nd_s ~dst_cab:0 ~port:9 s
        done);
    let acc = ref 0 in
    Host.spawn_process host_c ~name:"client" (fun ctx ->
        for i = 1 to rounds do
          let t0 = Engine.now eng in
          Netdev.send_datagram ctx nd_c ~dst_cab:1 ~port:9 payload;
          ignore (Netdev.recv_datagram ctx nd_c ~port:9);
          if i > 4 then acc := !acc + (Engine.now eng - t0)
        done);
    Engine.run eng;
    !acc / (rounds - 4)
  in
  let offload = offload_rtt () in
  let netdev = netdev_rtt () in
  Printf.printf
    "64-byte request-reply round trip, host process to host process:\n";
  Printf.printf "  protocol offload (mailboxes, section 5.2):  %s\n"
    (Sim_time.to_string offload);
  Printf.printf "  network-device mode (sockets, section 5.1): %s\n"
    (Sim_time.to_string netdev);
  Printf.printf "  offload advantage: %.1fx  (the paper reports ~5x)\n"
    (float_of_int netdev /. float_of_int offload)

(* A deployment at the scale of the paper's production prototype: 25 CABs
   over two HUBs, a fixed span of mixed RMP/ICMP/TCP traffic.  Never
   quiesces — the run is cut off mid-traffic. *)
let deployment ?(nodes = 25) ?(run_for = Sim_time.ms 200) ?(tcp_pairs = 3) ()
    =
  let module Net = Nectar_hub.Network in
  let split = (nodes / 2) + 1 in
  let w =
    World.build ~hubs:2
      ~trunks:[ ((0, 15), (1, 15)) ]
      ~seats:
        (List.init nodes (fun i ->
             if i < split then (0, i) else (1, i - split)))
      ()
  in
  let eng = w.eng and net = w.net and stacks = w.stacks in
  let rng = Rng.create ~seed:1990 in

  (* every node accepts reliable messages on port 700 and drains them *)
  let rmp_received = Stats.Counter.create () in
  Array.iter
    (fun s ->
      let inbox =
        Runtime.create_mailbox s.Stack.rt ~name:"inbox" ~port:700 ()
      in
      ignore
        (Thread.create (Runtime.cab s.Stack.rt) ~name:"drain" (fun ctx ->
             while true do
               let m = Mailbox.begin_get ctx inbox in
               Stats.Counter.incr rmp_received;
               Mailbox.end_get ctx m
             done)))
    stacks;

  (* chatter: each node sends reliable messages to random peers *)
  let rmp_sent = Stats.Counter.create () in
  Array.iteri
    (fun i s ->
      let node_rng = Rng.split rng in
      ignore
        (Thread.create (Runtime.cab s.Stack.rt)
           ~name:(Printf.sprintf "chat%d" i) (fun ctx ->
             while Engine.now eng < run_for do
               let peer = Rng.int node_rng nodes in
               if peer <> i then begin
                 Rmp.send_string ctx s.Stack.rmp ~dst_cab:peer ~dst_port:700
                   (String.make (16 + Rng.int node_rng 2000) 'c');
                 Stats.Counter.incr rmp_sent
               end;
               Engine.sleep eng (Sim_time.us (500 + Rng.int node_rng 4000))
             done)))
    stacks;

  (* ping: each node pings its successor periodically *)
  let pings_ok = Stats.Counter.create () in
  Array.iteri
    (fun i s ->
      ignore
        (Thread.create (Runtime.cab s.Stack.rt)
           ~name:(Printf.sprintf "ping%d" i) (fun ctx ->
             while Engine.now eng < run_for do
               (match
                  Icmp.ping ctx s.Stack.icmp
                    ~dst:(Ipv4.addr_of_cab ((i + 1) mod nodes))
                    ()
                with
               | Some _ -> Stats.Counter.incr pings_ok
               | None -> ());
               Engine.sleep eng (Sim_time.ms 10)
             done)))
    stacks;

  (* bulk TCP across the trunk *)
  let tcp_bytes = Stats.Counter.create () in
  for p = 0 to tcp_pairs - 1 do
    let src = stacks.(p) and dst = stacks.(nodes - 1 - p) in
    Tcp.listen dst.Stack.tcp ~port:80 ~on_accept:(fun conn ->
        ignore
          (Thread.create (Runtime.cab dst.Stack.rt) ~name:"sink" (fun ctx ->
               while true do
                 let s = Tcp.recv_string ctx conn in
                 Stats.Counter.add tcp_bytes (String.length s)
               done)));
    ignore
      (Thread.create (Runtime.cab src.Stack.rt) ~name:"bulk" (fun ctx ->
           let conn =
             Tcp.connect ctx src.Stack.tcp ~dst:(Stack.addr dst) ~dst_port:80
               ()
           in
           while Engine.now eng < run_for do
             Tcp.send ctx conn (String.make 8192 'b')
           done))
  done;

  Engine.run ~until:(run_for + Sim_time.ms 100) eng;

  Printf.printf "deployment: %d CABs on 2 HUBs, %s of mixed traffic\n" nodes
    (Sim_time.to_string run_for);
  Printf.printf "  RMP messages:   %d sent, %d delivered\n"
    (Stats.Counter.value rmp_sent)
    (Stats.Counter.value rmp_received);
  Printf.printf "  ICMP echoes:    %d answered\n"
    (Stats.Counter.value pings_ok);
  Printf.printf "  TCP bulk:       %d KB across the trunk (%d connections)\n"
    (Stats.Counter.value tcp_bytes / 1024)
    tcp_pairs;
  let frames = Net.frames_sent net and bytes = Net.bytes_sent net in
  Printf.printf "  fabric:         %d frames, %.1f MB total\n" frames
    (float_of_int bytes /. 1e6);
  let retx =
    Array.fold_left (fun acc s -> acc + Rmp.retransmits s.Stack.rmp) 0 stacks
  in
  Printf.printf
    "  RMP retransmissions: %d  (spurious: stop-and-wait RTO under trunk\n\
    \   congestion from the TCP streams; duplicate suppression kept\n\
    \   delivery exactly-once)\n"
    retx

(* All-to-all reliable messaging on one HUB, run to quiescence — an
   integration workload for the vet checkers (no cut-off, so the teardown
   leak checks apply in full). *)
let integration_mesh ?(nodes = 6) ?(messages = 8) () =
  let w = World.build ~seats:(World.ports nodes) () in
  let eng = w.eng and stacks = w.stacks in
  let expected = messages * (nodes - 1) in
  let received = Stats.Counter.create () in
  Array.iter
    (fun s ->
      let inbox =
        Runtime.create_mailbox s.Stack.rt ~name:"inbox" ~port:700 ()
      in
      ignore
        (Thread.create (Runtime.cab s.Stack.rt) ~name:"drain" (fun ctx ->
             for _ = 1 to expected do
               let m = Mailbox.begin_get ctx inbox in
               Stats.Counter.incr received;
               Mailbox.end_get ctx m
             done)))
    stacks;
  Array.iteri
    (fun i s ->
      ignore
        (Thread.create (Runtime.cab s.Stack.rt)
           ~name:(Printf.sprintf "chat%d" i) (fun ctx ->
             for r = 1 to messages do
               for peer = 0 to nodes - 1 do
                 if peer <> i then
                   Rmp.send_string ctx s.Stack.rmp ~dst_cab:peer ~dst_port:700
                     (String.make (32 + ((r * 37) mod 512)) 'm')
               done
             done)))
    stacks;
  Engine.run eng;
  Printf.printf "integration-mesh: %d nodes, %d/%d messages delivered\n"
    nodes
    (Stats.Counter.value received)
    (nodes * expected)

(* A single-CAB workload exercising the raw runtime surface end to end —
   two-phase mailbox ops (including aborts and zero-copy enqueue), nested
   locks in a consistent order, thread join and interrupt-driven signals —
   so the vet checkers see every hook on a known-clean run. *)
let integration_mixed ?(items = 64) () =
  let eng = Engine.create () in
  let net = Nectar_hub.Network.create eng ~hubs:1 () in
  let cab = Nectar_cab.Cab.create net ~hub:0 ~port:0 ~name:"mix" in
  let rt = Runtime.create cab in
  let stage_a = Runtime.create_mailbox rt ~name:"stage-a" () in
  let stage_b = Runtime.create_mailbox rt ~name:"stage-b" () in
  let m1 = Lock.Mutex.create eng ~name:"mix-m1" in
  let m2 = Lock.Mutex.create eng ~name:"mix-m2" in
  let produced = ref 0 and consumed = ref 0 in
  let producer =
    Thread.create cab ~name:"producer" (fun ctx ->
        for i = 1 to items do
          if i mod 7 = 0 then begin
            (* exercise the abort path *)
            let m = Mailbox.begin_put ctx stage_a 64 in
            Mailbox.abort_put ctx stage_a m
          end;
          let m = Mailbox.begin_put ctx stage_a 32 in
          Message.set_u32 m 0 i;
          Lock.Mutex.with_lock ctx m1 (fun () ->
              Lock.Mutex.with_lock ctx m2 (fun () -> incr produced));
          Mailbox.end_put ctx stage_a m
        done)
  in
  let forwarder =
    Thread.create cab ~name:"forward" (fun ctx ->
        for _ = 1 to items do
          (* zero-copy move to the next stage: no end_get, the message now
             belongs to stage-b *)
          let m = Mailbox.begin_get ctx stage_a in
          Mailbox.enqueue ctx m stage_b
        done)
  in
  let consumer =
    Thread.create cab ~name:"consume" (fun ctx ->
        for _ = 1 to items do
          let m = Mailbox.begin_get ctx stage_b in
          ignore (Message.get_u32 m 0);
          Lock.Mutex.with_lock ctx m1 (fun () ->
              Lock.Mutex.with_lock ctx m2 (fun () -> incr consumed));
          Mailbox.end_get ctx m
        done)
  in
  Runtime.register_opcode rt ~opcode:9 (fun ictx ~param:_ ->
      ictx.Ctx.work (Nectar_cab.Costs.cab_cycles 50));
  for p = 1 to 4 do
    Runtime.post_to_cab rt ~opcode:9 ~param:p
  done;
  ignore
    (Thread.create cab ~name:"waiter" (fun ctx ->
         Thread.join ctx producer;
         Thread.join ctx forwarder;
         Thread.join ctx consumer));
  Engine.run eng;
  Printf.printf "integration-mixed: %d produced, %d consumed\n" !produced
    !consumed
