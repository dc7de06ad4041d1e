(* Shared measurement helpers for the paper-reproduction benches.  Each
   bench builds a fresh World, runs a workload, and reports simulated
   time — absolute hardware truth comes from the cost
   model in Nectar_cab.Costs (see DESIGN.md section 5).

   The paper measures two things between a pair of CABs or hosts:
   round-trip latency (Table 1) and one-way throughput (Figures 7 and 8).
   [echo_rtt] and [bulk] are those two loops, run on stacks 0 and 1 of a
   caller-built world ([bulk] also N:1, every other stack into stack 1),
   so stack options, wire faults and competing threads reach them through
   the world.  Both return raw measurements; [goodput] is the one
   throughput figure taken from a transfer. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
module World = Nectar_fleet.World

let spawn_cab_thread stack ~name body =
  ignore
    (Thread.create (Runtime.cab stack.Stack.rt) ~priority:Thread.System ~name
       body)

(* ---------- the echo loop and the bulk loop ---------- *)

type transport = Dgram | Rmp | Udp | Rpc of Reqresp.server_mode | Tcp

let port = 900

(* The receive mailbox of a datagram-style transport: a runtime port, or
   a mailbox bound to the UDP port. *)
let inbox transport (s : Stack.t) =
  if transport = Udp then begin
    let mb = Runtime.create_mailbox s.rt ~name:"inbox" () in
    Udp.bind s.udp ~port mb;
    mb
  end
  else Runtime.create_mailbox s.rt ~name:"inbox" ~port ()

let send_to transport ctx (s : Stack.t) ~dst_cab ~dst_port payload =
  match transport with
  | Dgram -> Dgram.send_string ctx s.dgram ~dst_cab ~dst_port payload
  | Rmp -> Rmp.send_string ctx s.rmp ~dst_cab ~dst_port payload
  | Udp ->
      Udp.send_string ctx s.udp ~src_port:port ~dst:(Ipv4.addr_of_cab dst_cab)
        ~dst_port payload
  | Rpc _ | Tcp -> invalid_arg "Bench_world.send_to: not a datagram transport"

(* The host's cost of building or consuming an [n]-byte message in place. *)
let touch (ctx : Ctx.t) n =
  ctx.work (n * Nectar_cab.Costs.host_msg_touch_ns_per_byte)

(* A CAB "send server" thread turns host send-requests
   [dst_cab u16 | dst_port u16 | payload] into transport sends — the
   paper's host-to-CAB service pattern. *)
let host_sender drv transport (s : Stack.t) =
  let mb =
    Runtime.create_mailbox s.rt ~name:"send-server" ~byte_limit:(64 * 1024) ()
  in
  spawn_cab_thread s ~name:"send-server" (fun ctx ->
      while true do
        let m = Mailbox.begin_get ctx mb in
        let dst_cab = Message.get_u16 m 0 in
        let dst_port = Message.get_u16 m 2 in
        let len = Message.length m - 4 in
        let payload = Message.read_string m ~pos:4 ~len in
        Mailbox.end_get ctx m;
        send_to transport ctx s ~dst_cab ~dst_port payload
      done);
  let h = Hostlib.attach drv mb ~mode:Hostlib.Shared_memory ~readers:`Cab in
  fun ctx ~dst_cab payload ->
    let m = Hostlib.begin_put ctx h (4 + String.length payload) in
    Message.set_u16 m 0 dst_cab;
    Message.set_u16 m 2 port;
    Hostlib.write_string ctx h m ~pos:4 payload;
    Hostlib.end_put ctx h m

(* [rounds] echoes of a [payload]-byte message from stack 0 to stack 1
   and back, between CAB threads or, with [host], between host
   processes; the round-trip times in order.  RPC echoes through a
   server of the given mode (a host process at the host level); TCP
   echoes over one connection, set up before the first round. *)
let echo_rtt (w : World.t) transport ~host ~payload ~rounds =
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let msg = String.make payload 'x' in
  let samples = ref [] in
  let timed round_trip ctx =
    for _ = 1 to rounds do
      let t0 = Engine.now w.eng in
      round_trip ctx;
      samples := (Engine.now w.eng - t0) :: !samples
    done
  in
  (match (transport, host) with
  | (Dgram | Rmp | Udp), false ->
      let inbox_a = inbox transport a in
      let inbox_b = inbox transport b in
      spawn_cab_thread b ~name:"echo" (fun ctx ->
          for _ = 1 to rounds do
            let m = Mailbox.begin_get ctx inbox_b in
            let s = Message.to_string m in
            Mailbox.end_get ctx m;
            send_to transport ctx b ~dst_cab:(Stack.node_id a) ~dst_port:port s
          done);
      spawn_cab_thread a ~name:"client"
        (timed (fun ctx ->
             send_to transport ctx a ~dst_cab:(Stack.node_id b) ~dst_port:port
               msg;
             Mailbox.end_get ctx (Mailbox.begin_get ctx inbox_a)))
  | (Dgram | Rmp | Udp), true ->
      let drv_a = World.add_host w 0 in
      let drv_b = World.add_host w 1 in
      let inbox_a = inbox transport a in
      let inbox_b = inbox transport b in
      let send_a = host_sender drv_a transport a in
      let send_b = host_sender drv_b transport b in
      let attach drv mb =
        Hostlib.attach drv mb ~mode:Hostlib.Shared_memory ~readers:`Host
      in
      let in_a = attach drv_a inbox_a in
      let in_b = attach drv_b inbox_b in
      let receive ctx h =
        let m = Hostlib.begin_get ctx h in
        let s = Hostlib.read_string ctx h m in
        Hostlib.end_get ctx h m;
        touch ctx (String.length s);
        s
      in
      Host.spawn_process (Cab_driver.host drv_b) ~name:"echo" (fun ctx ->
          for _ = 1 to rounds do
            send_b ctx ~dst_cab:(Stack.node_id a) (receive ctx in_b)
          done);
      Host.spawn_process (Cab_driver.host drv_a) ~name:"client"
        (timed (fun ctx ->
             touch ctx payload;
             send_a ctx ~dst_cab:(Stack.node_id b) msg;
             ignore (receive ctx in_a)))
  | Rpc mode, false ->
      Reqresp.register_server b.reqresp ~port ~mode (fun _ req -> req);
      spawn_cab_thread a ~name:"client"
        (timed (fun ctx ->
             ignore
               (Reqresp.call ctx a.reqresp ~dst_cab:(Stack.node_id b)
                  ~dst_port:port msg)))
  | Rpc Reqresp.Thread_server, true ->
      let drv_a = World.add_host w 0 in
      let drv_b = World.add_host w 1 in
      let na = Nectarine.host_node drv_a a in
      let nb = Nectarine.host_node drv_b b in
      Nectarine.serve nb ~port (fun _ req -> req);
      Nectarine.spawn na ~name:"client"
        (timed (fun ctx ->
             ignore
               (Nectarine.call ctx na
                  ~dst:{ Nectarine.cab = Stack.node_id b; port }
                  msg)))
  | Tcp, false ->
      Tcp.listen b.tcp ~port ~on_accept:(fun conn ->
          spawn_cab_thread b ~name:"echo" (fun ctx ->
              for _ = 1 to rounds do
                Tcp.send ctx conn (Tcp.recv_string ctx conn)
              done));
      spawn_cab_thread a ~name:"client" (fun ctx ->
          let conn =
            Tcp.connect ctx a.tcp ~dst:(Stack.addr b) ~dst_port:port ()
          in
          timed
            (fun ctx ->
              Tcp.send ctx conn msg;
              ignore (Tcp.recv_string ctx conn))
            ctx)
  | (Rpc Reqresp.Upcall_server | Tcp), true ->
      invalid_arg "Bench_world.echo_rtt: no host-level echo over this");
  Engine.run w.eng;
  List.rev !samples

(* What one bulk transfer measured: when the first source started sending
   (after connection set-up), when the last byte reached the sink, the
   bytes delivered, and the sends that ended in a typed error. *)
type bulk = {
  started : Sim_time.t;
  last_arrival : Sim_time.t;
  delivered : int;
  errors : int;
}

(* A transfer's goodput: Mbit/s of the bytes delivered from the first send
   to the last arrival. *)
let goodput r =
  Stats.Throughput.mbit_per_s ~bytes_moved:r.delivered
    ~elapsed:(r.last_arrival - r.started)

(* [count] messages of [size] bytes from every stack but stack 1 to one
   sink on stack 1, over RMP (then flushed, for windowed senders) or one
   TCP connection per source.  The ends are CAB threads or, with [host]
   (two stacks only), a host process on stack 0 and one on stack 1: RMP
   then crosses a CAB send-server that forwards each message whole, and
   TCP connects from a CAB thread before the hosts use its send-request
   and receive mailboxes.  RMP counts each failed send and goes on; a TCP
   error ends its source.  Bytes that never arrive leave the sink waiting,
   which ends the run. *)
let bulk (w : World.t) transport ~host ~size ~count =
  let b = w.stacks.(1) in
  let sources = List.filteri (fun i _ -> i <> 1) (Array.to_list w.stacks) in
  if host && List.length sources <> 1 then
    invalid_arg "Bench_world.bulk: a host-level transfer needs two stacks";
  let total = size * count * List.length sources
  and payload = String.make size 'b' in
  let started = ref None and last_arrival = ref 0 in
  let delivered = ref 0 and errors = ref 0 in
  let start () =
    if !started = None then started := Some (Engine.now w.eng)
  in
  let arrived n =
    delivered := !delivered + n;
    last_arrival := Engine.now w.eng
  in
  let dst_cab = Stack.node_id b in
  let reliably f = try f () with Rmp.Delivery_timeout _ -> incr errors in
  let rmp_send ctx (a : Stack.t) payload =
    reliably (fun () ->
        Rmp.send_string ctx a.rmp ~dst_cab ~dst_port:port payload)
  in
  let sink_mailbox () =
    Runtime.create_mailbox b.rt ~name:"sink" ~port ~byte_limit:(128 * 1024) ()
  in
  let connect ctx (a : Stack.t) =
    Tcp.connect ctx a.tcp ~dst:(Stack.addr b) ~dst_port:port ()
  in
  (match (transport, host) with
  | Rmp, false ->
      let inbox = sink_mailbox () in
      spawn_cab_thread b ~name:"sink" (fun ctx ->
          while !delivered < total do
            let m = Mailbox.begin_get ctx inbox in
            let n = Message.length m in
            Mailbox.end_get ctx m;
            arrived n
          done);
      List.iter
        (fun (a : Stack.t) ->
          spawn_cab_thread a ~name:"source" (fun ctx ->
              start ();
              for _ = 1 to count do
                rmp_send ctx a payload
              done;
              reliably (fun () -> Rmp.flush ctx a.rmp ~dst_cab ~dst_port:port)))
        sources
  | Tcp, false ->
      Tcp.listen b.tcp ~port ~on_accept:(fun conn ->
          spawn_cab_thread b ~name:"sink" (fun ctx ->
              while !delivered < total do
                arrived (String.length (Tcp.recv_string ctx conn))
              done));
      List.iter
        (fun a ->
          spawn_cab_thread a ~name:"source" (fun ctx ->
              try
                let conn = connect ctx a in
                start ();
                for _ = 1 to count do
                  Tcp.send ctx conn payload
                done
              with Tcp.Connection_timed_out | Tcp.Connection_reset ->
                incr errors))
        sources
  | (Rmp | Tcp), true ->
      let a = w.stacks.(0) in
      let drv_a = World.add_host w 0 in
      let drv_b = World.add_host w 1 in
      (* the host source's send mailbox, the connection id TCP's send
         requests carry, and the host sink's receive mailbox *)
      let send_mb, conn_id, inbox =
        if transport = Rmp then begin
          let inbox = sink_mailbox () in
          let send_mb =
            Runtime.create_mailbox a.rt ~name:"send-server"
              ~byte_limit:(128 * 1024) ()
          in
          spawn_cab_thread a ~name:"send-server" (fun ctx ->
              while true do
                let m = Mailbox.begin_get ctx send_mb in
                let s = Message.read_string m ~pos:0 ~len:(Message.length m) in
                Mailbox.end_get ctx m;
                rmp_send ctx a s
              done);
          (send_mb, None, inbox)
        end
        else begin
          let accepted = ref None and conn = ref None in
          Tcp.listen b.tcp ~port ~on_accept:(fun c -> accepted := Some c);
          spawn_cab_thread a ~name:"connector" (fun ctx ->
              conn := Some (connect ctx a));
          Engine.run w.eng;
          ( Tcp.send_request_mailbox a.tcp,
            Some (Tcp.conn_id (Option.get !conn)),
            Tcp.recv_mailbox (Option.get !accepted) )
        end
      in
      let h_send =
        Hostlib.attach drv_a send_mb ~mode:Hostlib.Shared_memory ~readers:`Cab
      in
      let h_in =
        Hostlib.attach drv_b inbox ~mode:Hostlib.Shared_memory ~readers:`Host
      in
      Host.spawn_process (Cab_driver.host drv_b) ~name:"sink" (fun ctx ->
          while !delivered < total do
            let m = Hostlib.begin_get ctx h_in in
            let n = String.length (Hostlib.read_string ctx h_in m) in
            Hostlib.end_get ctx h_in m;
            arrived n
          done);
      let hdr = if conn_id = None then 0 else 4 in
      Host.spawn_process (Cab_driver.host drv_a) ~name:"source" (fun ctx ->
          start ();
          for _ = 1 to count do
            let m = Hostlib.begin_put ctx h_send (hdr + size) in
            Option.iter (Message.set_u32 m 0) conn_id;
            Hostlib.write_string ctx h_send m ~pos:hdr payload;
            Hostlib.end_put ctx h_send m
          done)
  | (Dgram | Udp | Rpc _), _ ->
      invalid_arg "Bench_world.bulk: not a reliable stream transport");
  Engine.run w.eng;
  {
    started = Option.value !started ~default:0;
    last_arrival = !last_arrival;
    delivered = !delivered;
    errors = !errors;
  }

(* Two CABs on one HUB with no stacks, each under a host whose socket
   layer is the network-device driver (the UNIX-socket path). *)
let netdev_pair () =
  let eng = Engine.create () in
  let net = Nectar_hub.Network.create eng ~hubs:1 () in
  let make i =
    let cab =
      Nectar_cab.Cab.create net ~hub:0 ~port:i ~name:(Printf.sprintf "cab%d" i)
    in
    let host = Host.create eng ~name:(Printf.sprintf "host%d" i) in
    (host, Netdev.create (Cab_driver.attach host (Runtime.create cab)))
  in
  let pa = make 0 in
  (eng, pa, make 1)

(* Figure 8's netdev and Ethernet columns: 40 to 200 messages' worth of
   bytes through Host_stream from the host process on [a] to the one on
   [b], in datagrams of at most [size] bytes; Mbit/s from the sender's
   start to its last ack. *)
let stream_throughput eng ~size (host_a, io_a) (host_b, io_b) =
  let total = max 40 (min 200 (300_000 / size)) * size in
  let t0 = ref 0 and t1 = ref 0 in
  Host.spawn_process host_b ~name:"sink" (fun ctx ->
      Host_stream.run_receiver ctx io_b ~data_port:10 ~ack_port:11 ~total);
  Host.spawn_process host_a ~name:"source" (fun ctx ->
      t0 := Engine.now eng;
      let mtu = min size io_a.Host_stream.stream_mtu in
      let io_a = { io_a with Host_stream.stream_mtu = mtu } in
      Host_stream.run_sender ctx io_a ~data_port:10 ~ack_port:11 ~total ();
      t1 := Engine.now eng);
  Engine.run eng;
  Stats.Throughput.mbit_per_s ~bytes_moved:total ~elapsed:(!t1 - !t0)

(* ---------- checks ---------- *)

(* A gate's typed verdict on one claim.  The gated benches return lists
   of these; the scenario registry's runner prints the failed ones and
   owns the exit status. *)
type check = { msg : string; ok : bool }

let check msg ok = { msg; ok }

(* A gate's checks in the order it makes them: the function that records
   one, and the function that lists those recorded so far. *)
let collector () =
  let acc = ref [] in
  ((fun msg ok -> acc := check msg ok :: !acc), fun () -> List.rev !acc)

(* ---------- formatting ---------- *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row4 a b c d = Printf.printf "  %-26s %14s %14s %14s\n" a b c d

let fmt_us ns = Printf.sprintf "%.0f us" (Sim_time.to_us ns)
let fmt_mbps v = Printf.sprintf "%.1f" v
