(* Table 1: round-trip latency (us) for the Nectar transports, between two
   host processes and between two CAB threads.

   Paper anchor points: datagram 325 us host-to-host / 179 us CAB-to-CAB;
   abstract: RPC < 500 us between host application tasks.  The OCR of the
   paper preserves only the datagram row, so the other rows are reproduced
   against those constraints (see EXPERIMENTS.md). *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
open Bench_world

let payload_bytes = 64
let iterations = 24
let warmup = 4

let mean_rtt samples =
  let s = List.filteri (fun i _ -> i >= warmup) (List.rev samples) in
  List.fold_left ( + ) 0 s / List.length s

(* ---------- CAB-to-CAB ---------- *)

(* Echo over a transport whose receive side is a runtime-port mailbox. *)
let cab_rtt_mailbox_transport (w : World.t) ~send =
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let port = 900 in
  let inbox_a =
    Runtime.create_mailbox a.Stack.rt ~name:"t1-inbox-a" ~port ()
  in
  let inbox_b =
    Runtime.create_mailbox b.Stack.rt ~name:"t1-inbox-b" ~port ()
  in
  spawn_cab_thread b ~name:"echo" (fun ctx ->
      for _ = 1 to iterations do
        let m = Mailbox.begin_get ctx inbox_b in
        let s = Message.to_string m in
        Mailbox.end_get ctx m;
        send ctx b ~dst_cab:(Stack.node_id a) ~dst_port:port s
      done);
  let samples = ref [] in
  spawn_cab_thread a ~name:"client" (fun ctx ->
      for _ = 1 to iterations do
        let t0 = Engine.now w.eng in
        send ctx a ~dst_cab:(Stack.node_id b) ~dst_port:port
          (String.make payload_bytes 'x');
        let m = Mailbox.begin_get ctx inbox_a in
        Mailbox.end_get ctx m;
        samples := (Engine.now w.eng - t0) :: !samples
      done);
  Engine.run w.eng;
  mean_rtt !samples

let cab_dgram_rtt () =
  let w = World.build () in
  cab_rtt_mailbox_transport w ~send:(fun ctx s ~dst_cab ~dst_port payload ->
      Dgram.send_string ctx s.Stack.dgram ~dst_cab ~dst_port payload)

let cab_rmp_rtt () =
  let w = World.build () in
  cab_rtt_mailbox_transport w ~send:(fun ctx s ~dst_cab ~dst_port payload ->
      Rmp.send_string ctx s.Stack.rmp ~dst_cab ~dst_port payload)

let cab_udp_rtt () =
  let w = World.build () in
  let port = 901 in
  let inbox_a = Runtime.create_mailbox w.stacks.(0).Stack.rt ~name:"u-a" () in
  let inbox_b = Runtime.create_mailbox w.stacks.(1).Stack.rt ~name:"u-b" () in
  Udp.bind w.stacks.(0).Stack.udp ~port inbox_a;
  Udp.bind w.stacks.(1).Stack.udp ~port inbox_b;
  spawn_cab_thread w.stacks.(1) ~name:"echo" (fun ctx ->
      for _ = 1 to iterations do
        let m = Mailbox.begin_get ctx inbox_b in
        let s = Message.to_string m in
        Mailbox.end_get ctx m;
        Udp.send_string ctx w.stacks.(1).Stack.udp ~src_port:port
          ~dst:(Stack.addr w.stacks.(0)) ~dst_port:port s
      done);
  let samples = ref [] in
  spawn_cab_thread w.stacks.(0) ~name:"client" (fun ctx ->
      for _ = 1 to iterations do
        let t0 = Engine.now w.eng in
        Udp.send_string ctx w.stacks.(0).Stack.udp ~src_port:port
          ~dst:(Stack.addr w.stacks.(1)) ~dst_port:port
          (String.make payload_bytes 'x');
        let m = Mailbox.begin_get ctx inbox_a in
        Mailbox.end_get ctx m;
        samples := (Engine.now w.eng - t0) :: !samples
      done);
  Engine.run w.eng;
  mean_rtt !samples

let cab_rpc_rtt () =
  let w = World.build () in
  Reqresp.register_server w.stacks.(1).Stack.reqresp ~port:902
    ~mode:Reqresp.Thread_server (fun _ req -> req);
  let samples = ref [] in
  spawn_cab_thread w.stacks.(0) ~name:"client" (fun ctx ->
      for _ = 1 to iterations do
        let t0 = Engine.now w.eng in
        ignore
          (Reqresp.call ctx w.stacks.(0).Stack.reqresp
             ~dst_cab:(Stack.node_id w.stacks.(1)) ~dst_port:902
             (String.make payload_bytes 'x'));
        samples := (Engine.now w.eng - t0) :: !samples
      done);
  Engine.run w.eng;
  mean_rtt !samples

(* ---------- host-to-host ---------- *)

(* A CAB "send server" thread per side turns host send-requests
   [dst_cab u16 | dst_port u16 | payload] into transport sends — the
   paper's host-to-CAB service pattern. *)
let install_send_server stack ~send =
  let mbox =
    Runtime.create_mailbox stack.Stack.rt ~name:"t1-sendsrv"
      ~byte_limit:(64 * 1024) ()
  in
  spawn_cab_thread stack ~name:"send-server" (fun ctx ->
      while true do
        let m = Mailbox.begin_get ctx mbox in
        let dst_cab = Message.get_u16 m 0 in
        let dst_port = Message.get_u16 m 2 in
        let payload = Message.read_string m ~pos:4 ~len:(Message.length m - 4) in
        Mailbox.end_get ctx m;
        send ctx stack ~dst_cab ~dst_port payload
      done);
  mbox

let host_send ctx handle ~dst_cab ~dst_port payload =
  let m = Hostlib.begin_put ctx handle (4 + String.length payload) in
  Message.set_u16 m 0 dst_cab;
  Message.set_u16 m 2 dst_port;
  Hostlib.write_string ctx handle m ~pos:4 payload;
  Hostlib.end_put ctx handle m

let touch (ctx : Ctx.t) n =
  ctx.work (n * Nectar_cab.Costs.host_msg_touch_ns_per_byte)

(* Generic host-to-host echo RTT over a transport delivering into runtime
   port mailboxes (datagram, RMP) or UDP-bound mailboxes. *)
let host_rtt ?(udp = false) () =
  fun ~send ->
    let w = World.build () in
    let drv_a = World.add_host w 0 in
    let drv_b = World.add_host w 1 in
    let port = 900 in
    let inbox_a = Runtime.create_mailbox w.stacks.(0).Stack.rt ~name:"h-a"
        ?port:(if udp then None else Some port) () in
    let inbox_b = Runtime.create_mailbox w.stacks.(1).Stack.rt ~name:"h-b"
        ?port:(if udp then None else Some port) () in
    if udp then begin
      Udp.bind w.stacks.(0).Stack.udp ~port inbox_a;
      Udp.bind w.stacks.(1).Stack.udp ~port inbox_b
    end;
    let srv_a = install_send_server w.stacks.(0) ~send in
    let srv_b = install_send_server w.stacks.(1) ~send in
    let ha_srv = Hostlib.attach drv_a srv_a ~mode:Hostlib.Shared_memory ~readers:`Cab in
    let hb_srv = Hostlib.attach drv_b srv_b ~mode:Hostlib.Shared_memory ~readers:`Cab in
    let ha_in = Hostlib.attach drv_a inbox_a ~mode:Hostlib.Shared_memory ~readers:`Host in
    let hb_in = Hostlib.attach drv_b inbox_b ~mode:Hostlib.Shared_memory ~readers:`Host in
    Host.spawn_process (Cab_driver.host drv_b) ~name:"echo" (fun ctx ->
        for _ = 1 to iterations do
          let m = Hostlib.begin_get ctx hb_in in
          let s = Hostlib.read_string ctx hb_in m in
          Hostlib.end_get ctx hb_in m;
          touch ctx (String.length s);
          host_send ctx hb_srv ~dst_cab:0 ~dst_port:port s
        done);
    let samples = ref [] in
    Host.spawn_process (Cab_driver.host drv_a) ~name:"client" (fun ctx ->
        for _ = 1 to iterations do
          let t0 = Engine.now w.eng in
          touch ctx payload_bytes;
          host_send ctx ha_srv ~dst_cab:1 ~dst_port:port
            (String.make payload_bytes 'x');
          let m = Hostlib.begin_get ctx ha_in in
          let s = Hostlib.read_string ctx ha_in m in
          touch ctx (String.length s);
          Hostlib.end_get ctx ha_in m;
          samples := (Engine.now w.eng - t0) :: !samples
        done);
    Engine.run w.eng;
    mean_rtt !samples

let host_dgram_rtt () =
  (host_rtt ()) ~send:(fun ctx s ~dst_cab ~dst_port payload ->
      Dgram.send_string ctx s.Stack.dgram ~dst_cab ~dst_port payload)

let host_rmp_rtt () =
  (host_rtt ()) ~send:(fun ctx s ~dst_cab ~dst_port payload ->
      Rmp.send_string ctx s.Stack.rmp ~dst_cab ~dst_port payload)

let host_udp_rtt () =
  (host_rtt ~udp:true ()) ~send:(fun ctx s ~dst_cab ~dst_port payload ->
      Udp.send_string ctx s.Stack.udp ~src_port:900
        ~dst:(Ipv4.addr_of_cab dst_cab) ~dst_port payload)

let host_rpc_rtt () =
  let w = World.build () in
  let drv_a = World.add_host w 0 in
  let drv_b = World.add_host w 1 in
  let na = Nectarine.host_node drv_a w.stacks.(0) in
  let nb = Nectarine.host_node drv_b w.stacks.(1) in
  Nectarine.serve nb ~port:902 (fun _ req -> req);
  let samples = ref [] in
  Nectarine.spawn na ~name:"client" (fun ctx ->
      for _ = 1 to iterations do
        let t0 = Engine.now w.eng in
        ignore
          (Nectarine.call ctx na ~dst:{ Nectarine.cab = 1; port = 902 }
             (String.make payload_bytes 'x'));
        samples := (Engine.now w.eng - t0) :: !samples
      done);
  Engine.run w.eng;
  mean_rtt !samples

let run () =
  section
    (Printf.sprintf "Table 1: round-trip latency, %d-byte messages (us)"
       payload_bytes);
  row4 "protocol" "host-host" "cab-cab" "paper (h/c)";
  row4 "--------" "---------" "-------" "-----------";
  let line name hh cc paper =
    row4 name (fmt_us hh) (fmt_us cc) paper
  in
  line "datagram" (host_dgram_rtt ()) (cab_dgram_rtt ()) "325 / 179";
  line "reliable message (RMP)" (host_rmp_rtt ()) (cab_rmp_rtt ()) "- / -";
  line "request-response (RPC)" (host_rpc_rtt ()) (cab_rpc_rtt ()) "< 500 / -";
  line "UDP/IP" (host_udp_rtt ()) (cab_udp_rtt ()) "- / -"
