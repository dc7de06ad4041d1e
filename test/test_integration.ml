(* Cross-layer integration tests: whole-system scenarios the unit suites
   cannot cover — deployment-scale meshes, end-to-end determinism, resource
   exhaustion, teardown corner cases, and the Berkeley-socket emulation. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
module Net = Nectar_hub.Network
module Cab = Nectar_cab.Cab
module World = Nectar_fleet.World

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------- deployment scale: the paper's 2-HUB, many-host prototype ---- *)

let test_two_hub_deployment () =
  let nodes = 16 in
  let w =
    World.build ~hubs:2
      ~trunks:[ ((0, 15), (1, 15)) ]
      ~seats:(List.init nodes (fun i -> (i mod 2, i / 2)))
      ()
  in
  let eng = w.eng and stacks = w.stacks in
  (* every node opens a mailbox; every node reliably messages every other *)
  let inboxes =
    Array.map
      (fun s -> Runtime.create_mailbox s.Stack.rt ~name:"inbox" ~port:700 ())
      stacks
  in
  let received = Array.make nodes 0 in
  Array.iteri
    (fun i s ->
      ignore
        (Thread.create (Runtime.cab s.Stack.rt)
           ~name:(Printf.sprintf "recv%d" i) (fun ctx ->
             for _ = 1 to nodes - 1 do
               let m = Mailbox.begin_get ctx inboxes.(i) in
               received.(i) <- received.(i) + 1;
               Mailbox.end_get ctx m
             done)))
    stacks;
  Array.iteri
    (fun i s ->
      ignore
        (Thread.create (Runtime.cab s.Stack.rt)
           ~name:(Printf.sprintf "send%d" i) (fun ctx ->
             for j = 0 to nodes - 1 do
               if j <> i then
                 Rmp.send_string ctx s.Stack.rmp ~dst_cab:j ~dst_port:700
                   (Printf.sprintf "%d->%d" i j)
             done)))
    stacks;
  Engine.run eng;
  Array.iteri
    (fun i n ->
      check_int (Printf.sprintf "node %d heard from all peers" i) (nodes - 1)
        n)
    received;
  (* no retransmissions on a clean fabric, even with trunk contention *)
  Array.iter
    (fun s -> check_int "no retransmits" 0 (Rmp.retransmits s.Stack.rmp))
    stacks

(* ---------- full-stack determinism ---------- *)

let mixed_workload_fingerprint () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox = Runtime.create_mailbox b.Stack.rt ~name:"inbox" ~port:700 () in
  Reqresp.register_server b.Stack.reqresp ~port:7 ~mode:Reqresp.Upcall_server
    (fun _ r -> r);
  let log = Buffer.create 64 in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      ignore
        (Thread.create (Runtime.cab b.Stack.rt) ~name:"sink" (fun ctx ->
             let n = ref 0 in
             while !n < 64 * 1024 do
               n := !n + String.length (Tcp.recv_string ctx conn)
             done;
             Buffer.add_string log
               (Printf.sprintf "tcp:%d;" (Engine.now eng)))));
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"drain" (fun ctx ->
         for _ = 1 to 4 do
           let m = Mailbox.begin_get ctx inbox in
           Mailbox.end_get ctx m
         done;
         Buffer.add_string log (Printf.sprintf "rmp:%d;" (Engine.now eng))));
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"driver" (fun ctx ->
         for i = 1 to 4 do
           Rmp.send_string ctx a.Stack.rmp ~dst_cab:1 ~dst_port:700
             (String.make (100 * i) 'm')
         done;
         ignore
           (Reqresp.call ctx a.Stack.reqresp ~dst_cab:1 ~dst_port:7 "rpc");
         Buffer.add_string log (Printf.sprintf "rpc:%d;" (Engine.now eng));
         let conn =
           Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 ()
         in
         for _ = 1 to 8 do
           Tcp.send ctx conn (String.make 8192 't')
         done));
  Engine.run eng;
  Buffer.add_string log (Printf.sprintf "end:%d" (Engine.now eng));
  Buffer.contents log

let test_full_stack_determinism () =
  check_string "identical replay" (mixed_workload_fingerprint ())
    (mixed_workload_fingerprint ())

(* ---------- buffer exhaustion at the datalink ---------- *)

let test_input_overrun_drops_then_recovers () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  (* a destination mailbox so small that a burst of datagrams overruns the
     dgram input pool: the datalink must drop (no buffer), not wedge *)
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"flooded" ~port:700
      ~byte_limit:(2 * 1024 * 1024) ()
  in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"burst" (fun ctx ->
         (* 200 x 8 KB = 1.6 MB of fire-and-forget into a 1 MB data memory
            with nobody draining: the heap must run out and the datalink
            must drop cleanly *)
         for _ = 1 to 200 do
           Dgram.send_string ctx a.Stack.dgram ~dst_cab:1 ~dst_port:700
             (String.make 8000 'b')
         done));
  Engine.run eng;
  check_bool "input-pool exhaustion counted" true
    (Datalink.drops_no_buffer b.Stack.dl > 0);
  check_bool "many datagrams did land" true
    (Dgram.delivered b.Stack.dgram > 50);
  (* drain the backlog, freeing the heap *)
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"drain" (fun ctx ->
         for _ = 1 to Dgram.delivered b.Stack.dgram do
           let m = Mailbox.begin_get ctx inbox in
           Mailbox.end_get ctx m
         done));
  Engine.run eng;
  (* the system is still alive: a reliable message gets through afterwards *)
  let got = ref "" in
  let inbox2 = Runtime.create_mailbox b.Stack.rt ~name:"ok" ~port:701 () in
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"r" (fun ctx ->
         let m = Mailbox.begin_get ctx inbox2 in
         got := Message.to_string m;
         Mailbox.end_get ctx m));
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"s" (fun ctx ->
         Rmp.send_string ctx a.Stack.rmp ~dst_cab:1 ~dst_port:701 "alive"));
  Engine.run eng;
  check_string "still operational" "alive" !got

(* ---------- IP reassembly timeout ---------- *)

let test_reassembly_timeout_purges () =
  let w = World.build ~stack:(fun rt -> Stack.create rt ~mtu:256 ()) () in
  let eng = w.eng and net = w.net and a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox = Runtime.create_mailbox b.Stack.rt ~name:"udp" () in
  Udp.bind b.Stack.udp ~port:53 inbox;
  (* drop one fragment of the first datagram *)
  let count = ref 0 in
  Net.set_fault_hook net
    (Some
       (fun _ ->
         incr count;
         if !count = 2 then `Drop else `Deliver));
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"send" (fun ctx ->
         Udp.send_string ctx a.Stack.udp ~src_port:1 ~dst:(Stack.addr b)
           ~dst_port:53 (String.make 1000 'x');
         (* well past the 500 ms reassembly timeout *)
         Engine.sleep eng (Sim_time.ms 700);
         Net.set_fault_hook net None;
         Udp.send_string ctx a.Stack.udp ~src_port:1 ~dst:(Stack.addr b)
           ~dst_port:53 (String.make 1000 'y')));
  let got = ref [] in
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"recv" (fun ctx ->
         let m = Mailbox.begin_get ctx inbox in
         got := Message.to_string m :: !got;
         Mailbox.end_get ctx m));
  Engine.run eng;
  check_int "only the complete datagram arrived" 1 (List.length !got);
  check_bool "it is the second one" true
    (match !got with [ s ] -> s.[0] = 'y' | _ -> false);
  check_int "stale reassembly purged" 1 (Ipv4.drops_reassembly b.Stack.ip)

(* ---------- TCP teardown corner cases ---------- *)

let test_tcp_simultaneous_close () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let a_done = ref false and b_done = ref false in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      ignore
        (Thread.create (Runtime.cab b.Stack.rt) ~name:"server" (fun ctx ->
             (* close immediately from both sides at the same moment *)
             Tcp.close ctx conn;
             b_done := true)));
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"client" (fun ctx ->
         let conn =
           Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 ()
         in
         Tcp.close ctx conn;
         a_done := true));
  Engine.run eng;
  check_bool "client closed" true !a_done;
  check_bool "server closed" true !b_done

let test_tcp_connect_timeout_on_dead_wire () =
  let w = World.build () in
  let eng = w.eng and net = w.net and a = w.stacks.(0) in
  Net.set_fault_hook net (Some (fun _ -> `Drop));
  let outcome = ref "" in
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"client" (fun ctx ->
         try
           ignore
             (Tcp.connect ctx a.Stack.tcp ~dst:(Ipv4.addr_of_cab 1)
                ~dst_port:80 ())
         with
         | Tcp.Connection_timed_out -> outcome := "timeout"
         | Tcp.Connection_refused -> outcome := "refused"));
  Engine.run eng;
  check_string "SYN retries exhausted" "timeout" !outcome

let test_tcp_small_window_flow_control () =
  (* a 4 KB receive window forces continuous window updates; the transfer
     must still complete, at a rate bounded by window/RTT *)
  let w =
    World.build
      ~stack:(fun rt ->
        if Runtime.node_id rt = 0 then Stack.create rt ~tcp_mss:2048 ()
        else
          let dl = Datalink.create rt in
          let ip = Ipv4.create dl () in
          let icmp = Icmp.create ip in
          let udp = Udp.create ip () in
          let tcp = Tcp.create ip ~mss:2048 ~window:4096 () in
          let dgram = Dgram.create dl in
          let rmp = Rmp.create dl () in
          let reqresp = Reqresp.create dl () in
          let router = Datalink.router dl in
          { Stack.rt; router; dl; ip; icmp; udp; tcp; dgram; rmp; reqresp;
            services = [] })
      ()
  in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let total = 64 * 1024 in
  let received = ref 0 in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      ignore
        (Thread.create (Runtime.cab b.Stack.rt) ~name:"sink" (fun ctx ->
             while !received < total do
               received := !received + String.length (Tcp.recv_string ctx conn)
             done)));
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"src" (fun ctx ->
         let conn =
           Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 ()
         in
         for _ = 1 to total / 8192 do
           Tcp.send ctx conn (String.make 8192 'w')
         done));
  Engine.run ~until:(Sim_time.s 5) eng;
  check_int "transfer completed through a 4KB window" total !received

(* ---------- Berkeley socket emulation ---------- *)

(* A host driving the socket emulator over stack [i] of [w]. *)
let socket_host w i =
  let drv = World.add_host w i in
  (Cab_driver.host drv, Socket_emul.create drv w.World.stacks.(i))

let test_socket_echo () =
  let w = World.build () in
  let host_a, se_a = socket_host w 0 in
  let host_b, se_b = socket_host w 1 in
  let eng = w.eng in
  let served = ref "" and got = ref "" in
  Host.spawn_process host_b ~name:"server" (fun ctx ->
      let ls = Socket_emul.socket se_b in
      Socket_emul.listen ctx ls ~port:7777;
      let c = Socket_emul.accept ctx ls in
      served := Socket_emul.recv ctx c;
      Socket_emul.send ctx c ("echo: " ^ !served));
  Host.spawn_process host_a ~name:"client" (fun ctx ->
      let s = Socket_emul.socket se_a in
      Socket_emul.connect ctx s ~addr:(Ipv4.addr_of_cab 1) ~port:7777;
      Socket_emul.send ctx s "over the socket interface";
      got := Socket_emul.recv ctx s;
      Socket_emul.close ctx s);
  Engine.run eng;
  check_string "server saw request" "over the socket interface" !served;
  check_string "client got echo" "echo: over the socket interface" !got

let test_socket_refused () =
  let w = World.build () in
  let host_a, se_a = socket_host w 0 in
  let eng = w.eng in
  let raised = ref false in
  Host.spawn_process host_a ~name:"client" (fun ctx ->
      let s = Socket_emul.socket se_a in
      try Socket_emul.connect ctx s ~addr:(Ipv4.addr_of_cab 1) ~port:9
      with Socket_emul.Socket_error _ -> raised := true);
  Engine.run eng;
  check_bool "connect to closed port raises" true !raised

let test_socket_eof_on_close () =
  let w = World.build () in
  let host_a, se_a = socket_host w 0 in
  let host_b, se_b = socket_host w 1 in
  let eng = w.eng in
  let eof_seen = ref false in
  Host.spawn_process host_b ~name:"server" (fun ctx ->
      let ls = Socket_emul.socket se_b in
      Socket_emul.listen ctx ls ~port:7777;
      let c = Socket_emul.accept ctx ls in
      let first = Socket_emul.recv ctx c in
      check_string "data before eof" "bye" first;
      eof_seen := Socket_emul.recv ctx c = "");
  Host.spawn_process host_a ~name:"client" (fun ctx ->
      let s = Socket_emul.socket se_a in
      Socket_emul.connect ctx s ~addr:(Ipv4.addr_of_cab 1) ~port:7777;
      Socket_emul.send ctx s "bye";
      Engine.sleep eng (Sim_time.ms 2);
      Socket_emul.close ctx s);
  Engine.run eng;
  check_bool "close delivered EOF" true !eof_seen

(* ---------- protection domains around application tasks ---------- *)

let test_protection_firewalls_app_task () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let cab = Cab.create net ~hub:0 ~port:0 ~name:"cab" in
  let rt = Runtime.create cab in
  ignore rt;
  let mem = Cab.memory cab in
  (* the runtime grants an application task access to its own pages only *)
  Nectar_cab.Memory.grant_range mem ~domain:2 ~pos:(512 * 1024) ~len:4096
    Nectar_cab.Memory.Read_write;
  let faulted = ref false in
  ignore
    (Thread.create cab ~priority:Thread.App ~name:"app" (fun ctx ->
         ctx.work (Sim_time.us 5);
         Nectar_cab.Memory.set_domain mem 2;
         (* inside its window: fine *)
         Nectar_cab.Memory.checked_write mem ~pos:(512 * 1024) ~len:128;
         (* outside: the firewall trips *)
         (try Nectar_cab.Memory.checked_write mem ~pos:0 ~len:4
          with Nectar_cab.Memory.Protection_fault _ -> faulted := true);
         Nectar_cab.Memory.set_domain mem 0));
  Engine.run eng;
  check_bool "stray write caught by page protection" true !faulted

let () =
  Alcotest.run "nectar_integration"
    [
      ( "deployment",
        [
          Alcotest.test_case "16 nodes, 2 hubs, all-pairs RMP" `Quick
            test_two_hub_deployment;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "full-stack seeded replay" `Quick
            test_full_stack_determinism;
        ] );
      ( "exhaustion",
        [
          Alcotest.test_case "input overrun drops then recovers" `Quick
            test_input_overrun_drops_then_recovers;
          Alcotest.test_case "reassembly timeout purge" `Quick
            test_reassembly_timeout_purges;
        ] );
      ( "tcp-teardown",
        [
          Alcotest.test_case "simultaneous close" `Quick
            test_tcp_simultaneous_close;
          Alcotest.test_case "connect timeout" `Quick
            test_tcp_connect_timeout_on_dead_wire;
          Alcotest.test_case "4KB window flow control" `Quick
            test_tcp_small_window_flow_control;
        ] );
      ( "sockets",
        [
          Alcotest.test_case "echo" `Quick test_socket_echo;
          Alcotest.test_case "refused" `Quick test_socket_refused;
          Alcotest.test_case "eof on close" `Quick test_socket_eof_on_close;
        ] );
      ( "protection",
        [
          Alcotest.test_case "app task firewall" `Quick
            test_protection_firewalls_app_task;
        ] );
    ]
