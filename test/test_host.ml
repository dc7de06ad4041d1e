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
let us = Sim_time.us

(* ---------- driver primitives ---------- *)

let test_host_cond_poll () =
  let w = World.build () in
  let drv = World.add_host w 0 in
  let eng = w.eng and host = Cab_driver.host drv in
  let woke_at = ref (-1) in
  let cond = Cab_driver.Cond.create drv ~name:"c" in
  Host.spawn_process host ~name:"waiter" (fun ctx ->
      Cab_driver.Cond.wait_poll ctx cond ~since:0;
      woke_at := Engine.now eng);
  ignore
    (Engine.after eng (us 500) (fun () -> Cab_driver.Cond.signal cond));
  Engine.run eng;
  check_bool "woke promptly after signal" true
    (!woke_at >= us 500 && !woke_at < us 530)

let test_host_cond_block () =
  let w = World.build () in
  let drv = World.add_host w 0 in
  let eng = w.eng and host = Cab_driver.host drv in
  let woke_at = ref (-1) in
  let cond = Cab_driver.Cond.create drv ~name:"c" in
  Host.spawn_process host ~name:"waiter" (fun ctx ->
      Cab_driver.Cond.wait_block ctx cond ~since:0;
      woke_at := Engine.now eng);
  ignore
    (Engine.after eng (Sim_time.ms 1) (fun () -> Cab_driver.Cond.signal cond));
  Engine.run eng;
  check_bool "woken by interrupt" true (!woke_at >= Sim_time.ms 1);
  check_int "host interrupt taken" 1 (Cab_driver.interrupts_to_host drv)

let test_driver_rpc () =
  let w = World.build () in
  let drv = World.add_host w 0 in
  let eng = w.eng and host = Cab_driver.host drv in
  let result = ref 0 and took = ref 0 in
  Host.spawn_process host ~name:"caller" (fun ctx ->
      (* warm up: first-dispatch process switches are not part of the cost *)
      ignore (Cab_driver.rpc ctx drv (fun _cctx -> 0));
      let t0 = Engine.now eng in
      result := Cab_driver.rpc ctx drv (fun _cctx -> 21 * 2);
      took := Engine.now eng - t0);
  Engine.run eng;
  check_int "rpc result" 42 !result;
  check_bool "rpc cost is tens of microseconds" true
    (!took > us 5 && !took < us 100)

(* ---------- Hostlib ---------- *)

(* Every handle takes a CAB-signal opcode of its own.  Opcodes are
   allocated per runtime and step over the driver's fixed RPC opcode, so
   one runtime carries hundreds of handles; the last handle's signal and
   the driver's RPC must both still reach their own handlers.  Listed
   first in its executable, before any other attach. *)
let test_hostlib_many_handles () =
  let w = World.build () in
  let drv = World.add_host w 0 in
  let eng = w.eng and host = Cab_driver.host drv and stack = w.stacks.(0) in
  let rt = stack.Stack.rt in
  let mbox = Runtime.create_mailbox rt ~name:"many" ~byte_limit:4096 () in
  let last = ref None in
  for _ = 1 to 300 do
    last :=
      Some (Hostlib.attach drv mbox ~mode:Hostlib.Shared_memory ~readers:`Cab)
  done;
  let h = Option.get !last in
  let got = ref "" and rpc = ref 0 in
  ignore
    (Thread.create (Runtime.cab rt) ~name:"reader" (fun ctx ->
         let m = Mailbox.begin_get ctx mbox in
         got := Message.to_string m;
         Mailbox.end_get ctx m));
  Host.spawn_process host ~name:"writer" (fun ctx ->
      let m = Hostlib.begin_put ctx h 5 in
      Hostlib.write_string ctx h m ~pos:0 "hello";
      Hostlib.end_put ctx h m;
      rpc := Cab_driver.rpc ctx drv (fun _ -> 7));
  Engine.run eng;
  check_string "300th handle's end_put reached the CAB reader" "hello" !got;
  check_int "driver RPC still on its own opcode" 7 !rpc

let hostlib_cycle mode =
  let w = World.build () in
  let drv = World.add_host w 0 in
  let eng = w.eng and host = Cab_driver.host drv and stack = w.stacks.(0) in
  let mbox =
    Runtime.create_mailbox stack.Stack.rt ~name:"svc" ~byte_limit:4096 ()
  in
  let h = Hostlib.attach drv mbox ~mode ~readers:`Host in
  let took = ref 0 in
  Host.spawn_process host ~name:"proc" (fun ctx ->
      Engine.sleep eng (Sim_time.ms 1);
      let t0 = Engine.now eng in
      for _ = 1 to 10 do
        let m = Hostlib.begin_put ctx h 32 in
        Hostlib.write_string ctx h m ~pos:0 (String.make 32 'x');
        Hostlib.end_put ctx h m;
        let r = Hostlib.begin_get ctx h in
        let s = Hostlib.read_string ctx h r in
        assert (String.length s = 32);
        Hostlib.end_get ctx h r
      done;
      took := (Engine.now eng - t0) / 10);
  Engine.run eng;
  !took

let test_hostlib_shared_vs_rpc () =
  let shared = hostlib_cycle Hostlib.Shared_memory in
  let rpc = hostlib_cycle Hostlib.Rpc in
  check_bool "shared-memory cycle is tens of us" true
    (shared > us 10 && shared < us 200)
    ;
  (* the paper's §3.3 claim: shared memory is about a factor of two
     faster than the RPC-based implementation *)
  check_bool "rpc mode is materially slower" true
    (float_of_int rpc > 1.5 *. float_of_int shared)

let test_hostlib_blocking_get () =
  (* the driver-blocking wait variant: sleep in the kernel, woken by the
     CAB's interrupt *)
  let w = World.build () in
  let drv = World.add_host w 0 in
  let eng = w.eng and host = Cab_driver.host drv and stack = w.stacks.(0) in
  let mbox =
    Runtime.create_mailbox stack.Stack.rt ~name:"svc" ~byte_limit:4096 ()
  in
  let h = Hostlib.attach drv mbox ~mode:Hostlib.Shared_memory ~readers:`Host in
  let got = ref "" and got_at = ref 0 in
  Host.spawn_process host ~name:"reader" (fun ctx ->
      let m = Hostlib.begin_get ~wait:`Block ctx h in
      got := Hostlib.read_string ctx h m;
      got_at := Engine.now eng;
      Hostlib.end_get ctx h m);
  ignore
    (Thread.create (Runtime.cab stack.Stack.rt) ~name:"writer" (fun ctx ->
         Engine.sleep eng (Sim_time.ms 2);
         let m = Mailbox.begin_put ctx mbox 7 in
         Message.write_string m 0 "wake up";
         Mailbox.end_put ctx mbox m));
  Engine.run eng;
  check_bool "woken after the CAB write" true (!got_at >= Sim_time.ms 2)

let test_hostlib_cab_reader_wakeup () =
  let w = World.build () in
  let drv = World.add_host w 0 in
  let eng = w.eng and host = Cab_driver.host drv and stack = w.stacks.(0) in
  let mbox =
    Runtime.create_mailbox stack.Stack.rt ~name:"svc" ~byte_limit:4096 ()
  in
  let h = Hostlib.attach drv mbox ~mode:Hostlib.Shared_memory ~readers:`Cab in
  let got = ref "" in
  ignore
    (Thread.create (Runtime.cab stack.Stack.rt) ~name:"server" (fun ctx ->
         let m = Mailbox.begin_get ctx mbox in
         got := Message.to_string m;
         Mailbox.end_get ctx m));
  Host.spawn_process host ~name:"client" (fun ctx ->
      let m = Hostlib.begin_put ctx h 5 in
      Hostlib.write_string ctx h m ~pos:0 "hello";
      Hostlib.end_put ctx h m);
  Engine.run eng;
  check_string "CAB thread woken through the signal queue" "hello" !got;
  check_bool "an interrupt crossed to the CAB" true
    (Cab_driver.interrupts_to_cab drv >= 1)

(* ---------- Nectarine host-to-host ---------- *)

let test_nectarine_host_datagram () =
  let w = World.build () in
  let drv_a = World.add_host w 0 in
  let drv_b = World.add_host w 1 in
  let eng = w.eng and stack_a = w.stacks.(0) and stack_b = w.stacks.(1) in
  let na = Nectarine.host_node drv_a stack_a in
  let nb = Nectarine.host_node drv_b stack_b in
  let inbox = Nectarine.create_mailbox nb ~name:"inbox" () in
  let got = ref "" and latency = ref 0 in
  Nectarine.spawn nb ~name:"receiver" (fun ctx ->
      got := Nectarine.receive ctx inbox;
      latency := Engine.now eng);
  Nectarine.spawn na ~name:"sender" (fun ctx ->
      Engine.sleep eng (Sim_time.ms 1);
      Nectarine.send ctx na ~dst:(Nectarine.address inbox) ~reliable:false
        "host to host");
  Engine.run eng;
  check_string "payload" "host to host" !got;
  let one_way = !latency - Sim_time.ms 1 in
  (* the paper's one-way host-to-host datagram time is ~163 us *)
  check_bool "one-way latency in the paper's regime" true
    (one_way > us 80 && one_way < us 400)

let test_nectarine_host_reliable () =
  let w = World.build () in
  let drv_a = World.add_host w 0 in
  let drv_b = World.add_host w 1 in
  let eng = w.eng and stack_a = w.stacks.(0) and stack_b = w.stacks.(1) in
  let na = Nectarine.host_node drv_a stack_a in
  let nb = Nectarine.host_node drv_b stack_b in
  let inbox = Nectarine.create_mailbox nb ~name:"inbox" () in
  let got = ref [] in
  Nectarine.spawn nb ~name:"receiver" (fun ctx ->
      for _ = 1 to 3 do
        got := Nectarine.receive ctx inbox :: !got
      done);
  Nectarine.spawn na ~name:"sender" (fun ctx ->
      List.iter
        (fun s -> Nectarine.send ctx na ~dst:(Nectarine.address inbox) s)
        [ "one"; "two"; "three" ]);
  Engine.run eng;
  Alcotest.(check (list string))
    "rmp in order" [ "one"; "two"; "three" ] (List.rev !got)

let test_nectarine_host_rpc_under_500us () =
  let w = World.build () in
  let drv_a = World.add_host w 0 in
  let drv_b = World.add_host w 1 in
  let eng = w.eng and stack_a = w.stacks.(0) and stack_b = w.stacks.(1) in
  let na = Nectarine.host_node drv_a stack_a in
  let nb = Nectarine.host_node drv_b stack_b in
  Nectarine.serve nb ~port:77 (fun _ctx req -> "pong:" ^ req);
  let answer = ref "" and rtt = ref 0 in
  Nectarine.spawn na ~name:"client" (fun ctx ->
      Engine.sleep eng (Sim_time.ms 1);
      let t0 = Engine.now eng in
      answer := Nectarine.call ctx na ~dst:{ cab = 1; port = 77 } "ping";
      rtt := Engine.now eng - t0);
  Engine.run eng;
  check_string "rpc through host service" "pong:ping" !answer;
  (* abstract: "latency of a remote procedure call between application
     tasks executing on two Nectar hosts is less than 500 usec" *)
  check_bool "under 500us plus host-service forwarding slack" true
    (!rtt > us 100 && !rtt < us 900)

let test_nectarine_cab_to_cab_rpc () =
  let w = World.build () in
  let eng = w.eng and stack_a = w.stacks.(0) and stack_b = w.stacks.(1) in
  let na = Nectarine.cab_node stack_a in
  let nb = Nectarine.cab_node stack_b in
  Nectarine.serve nb ~port:78 (fun _ctx req -> String.uppercase_ascii req);
  let answer = ref "" and rtt = ref 0 in
  Nectarine.spawn na ~name:"client" (fun ctx ->
      ignore (Nectarine.call ctx na ~dst:{ cab = 1; port = 78 } "warmup");
      let t0 = Engine.now eng in
      answer := Nectarine.call ctx na ~dst:{ cab = 1; port = 78 } "cab rpc";
      rtt := Engine.now eng - t0);
  Engine.run eng;
  check_string "cab-resident rpc" "CAB RPC" !answer;
  check_bool "cab-cab rpc well under host-host" true (!rtt < us 300)

(* ---------- network-device mode ---------- *)

let netdev_world () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let make i =
    let cab = Cab.create net ~hub:0 ~port:i ~name:(Printf.sprintf "cab%d" i) in
    let rt = Runtime.create cab in
    let host = Host.create eng ~name:(Printf.sprintf "host%d" i) in
    let drv = Cab_driver.attach host rt in
    let nd = Netdev.create drv () in
    (host, nd)
  in
  let a = make 0 in
  let b = make 1 in
  (eng, a, b)

let test_netdev_echo_and_latency_factor () =
  let eng, (host_a, nd_a), (host_b, nd_b) = netdev_world () in
  Netdev.bind nd_a ~port:9;
  Netdev.bind nd_b ~port:9;
  let rtt = ref 0 and got = ref "" in
  Host.spawn_process host_b ~name:"echo" (fun ctx ->
      let s = Netdev.recv_datagram ctx nd_b ~port:9 in
      Netdev.send_datagram ctx nd_b ~dst_cab:0 ~port:9 s);
  Host.spawn_process host_a ~name:"client" (fun ctx ->
      Engine.sleep eng (Sim_time.ms 1);
      let t0 = Engine.now eng in
      Netdev.send_datagram ctx nd_a ~dst_cab:1 ~port:9 "ping";
      got := Netdev.recv_datagram ctx nd_a ~port:9;
      rtt := Engine.now eng - t0);
  Engine.run eng;
  check_string "echoed through both host stacks" "ping" !got;
  (* §1: mailbox interface beats the socket path by ~5x; netdev RTT must be
     well over a millisecond where datagram RTT is ~325 us *)
  check_bool "netdev RTT is milliseconds" true
    (!rtt > Sim_time.ms 1 && !rtt < Sim_time.ms 6)

let test_netdev_stream_throughput_band () =
  let eng, (host_a, nd_a), (host_b, nd_b) = netdev_world () in
  Netdev.bind nd_a ~port:11 (* acks *);
  Netdev.bind nd_b ~port:10 (* data *);
  let total = 100 * 1024 in
  let t0 = ref 0 and t1 = ref 0 in
  Host.spawn_process host_b ~name:"sink" (fun ctx ->
      Host_stream.run_receiver ctx
        (Host_stream.netdev_io nd_b ~peer:0)
        ~data_port:10 ~ack_port:11 ~total);
  Host.spawn_process host_a ~name:"source" (fun ctx ->
      t0 := Engine.now eng;
      Host_stream.run_sender ctx
        (Host_stream.netdev_io nd_a ~peer:1)
        ~data_port:10 ~ack_port:11 ~total ();
      t1 := Engine.now eng);
  Engine.run eng;
  let mbps =
    Stats.Throughput.mbit_per_s ~bytes_moved:total ~elapsed:(!t1 - !t0)
  in
  check_bool "netdev throughput in the single-digit Mbit/s band" true
    (mbps > 2. && mbps < 15.)

(* ---------- Ethernet baseline ---------- *)

let test_ethernet_roundtrip () =
  let eng = Engine.create () in
  let seg = Ethernet.create eng in
  let ha = Host.create eng ~name:"ha" and hb = Host.create eng ~name:"hb" in
  let sa = Ethernet.attach seg ha and sb = Ethernet.attach seg hb in
  Ethernet.bind sa ~port:5;
  Ethernet.bind sb ~port:5;
  let got = ref "" in
  Host.spawn_process hb ~name:"echo" (fun ctx ->
      let s = Ethernet.recv_datagram ctx sb ~port:5 in
      Ethernet.send_datagram ctx sb ~dst:(Ethernet.station_id sa) ~port:5 s);
  Host.spawn_process ha ~name:"client" (fun ctx ->
      Ethernet.send_datagram ctx sa ~dst:(Ethernet.station_id sb) ~port:5
        "over ethernet";
      got := Ethernet.recv_datagram ctx sa ~port:5);
  Engine.run eng;
  check_string "echoed" "over ethernet" !got;
  check_int "two frames crossed" 2 (Ethernet.frames_sent seg)

let test_ethernet_stream_band () =
  let eng = Engine.create () in
  let seg = Ethernet.create eng in
  let ha = Host.create eng ~name:"ha" and hb = Host.create eng ~name:"hb" in
  let sa = Ethernet.attach seg ha and sb = Ethernet.attach seg hb in
  Ethernet.bind sa ~port:11;
  Ethernet.bind sb ~port:10;
  let total = 100 * 1024 in
  let t0 = ref 0 and t1 = ref 0 in
  Host.spawn_process hb ~name:"sink" (fun ctx ->
      Host_stream.run_receiver ctx
        (Host_stream.ethernet_io sb ~peer:(Ethernet.station_id sa))
        ~data_port:10 ~ack_port:11 ~total);
  Host.spawn_process ha ~name:"source" (fun ctx ->
      t0 := Engine.now eng;
      Host_stream.run_sender ctx
        (Host_stream.ethernet_io sa ~peer:(Ethernet.station_id sb))
        ~data_port:10 ~ack_port:11 ~total ();
      t1 := Engine.now eng);
  Engine.run eng;
  let mbps =
    Stats.Throughput.mbit_per_s ~bytes_moved:total ~elapsed:(!t1 - !t0)
  in
  check_bool "ethernet throughput under the 10 Mbit/s wire" true
    (mbps > 3. && mbps < 10.)

let () =
  Alcotest.run "nectar_host"
    [
      ( "driver",
        [
          Alcotest.test_case "host cond poll" `Quick test_host_cond_poll;
          Alcotest.test_case "host cond block" `Quick test_host_cond_block;
          Alcotest.test_case "host-to-cab rpc" `Quick test_driver_rpc;
        ] );
      ( "hostlib",
        [
          Alcotest.test_case "300 handles on one runtime" `Quick
            test_hostlib_many_handles;
          Alcotest.test_case "shared vs rpc factor" `Quick
            test_hostlib_shared_vs_rpc;
          Alcotest.test_case "cab reader wakeup" `Quick
            test_hostlib_cab_reader_wakeup;
          Alcotest.test_case "blocking get" `Quick test_hostlib_blocking_get;
        ] );
      ( "nectarine",
        [
          Alcotest.test_case "host datagram" `Quick
            test_nectarine_host_datagram;
          Alcotest.test_case "host reliable" `Quick
            test_nectarine_host_reliable;
          Alcotest.test_case "host rpc" `Quick
            test_nectarine_host_rpc_under_500us;
          Alcotest.test_case "cab rpc" `Quick test_nectarine_cab_to_cab_rpc;
        ] );
      ( "netdev",
        [
          Alcotest.test_case "echo + latency factor" `Quick
            test_netdev_echo_and_latency_factor;
          Alcotest.test_case "stream throughput band" `Quick
            test_netdev_stream_throughput_band;
        ] );
      ( "ethernet",
        [
          Alcotest.test_case "roundtrip" `Quick test_ethernet_roundtrip;
          Alcotest.test_case "stream band" `Quick test_ethernet_stream_band;
        ] );
    ]
