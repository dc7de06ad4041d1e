(* Shared measurement helpers for the paper-reproduction benches.  Each
   bench builds a fresh World, runs a workload, and reports simulated
   time — absolute hardware truth comes from the cost
   model in Nectar_cab.Costs (see DESIGN.md section 5).

   The paper measures two things between a pair of CABs: round-trip
   latency (Table 1) and one-way throughput (Figure 7).  [echo_rtt] and
   [bulk] are those two loops, run on stacks 0 and 1 of a caller-built
   world, so stack options, wire faults and competing threads reach them
   through the world.  Both return raw measurements; every caller does
   its own arithmetic on them. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
module World = Nectar_fleet.World

let spawn_cab_thread stack ~name body =
  ignore
    (Thread.create (Runtime.cab stack.Stack.rt) ~priority:Thread.System ~name
       body)

(* ---------- the two two-CAB loops ---------- *)

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

(* What one bulk transfer measured: when the source started sending
   (after connection set-up), when the last byte reached the sink, the
   bytes delivered, and the sends that ended in a typed error. *)
type bulk = {
  started : Sim_time.t;
  last_arrival : Sim_time.t;
  delivered : int;
  errors : int;
}

(* [count] messages of [size] bytes from a source thread on stack 0 to a
   sink thread on stack 1, over RMP (then flushed, for windowed senders)
   or one TCP connection.  RMP counts each failed send and goes on; a
   TCP error ends the source.  Bytes that never arrive leave the sink
   waiting, which ends the run. *)
let bulk (w : World.t) transport ~size ~count =
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let total = size * count and payload = String.make size 'b' in
  let started = ref 0 and last_arrival = ref 0 in
  let delivered = ref 0 and errors = ref 0 in
  let arrived n =
    delivered := !delivered + n;
    last_arrival := Engine.now w.eng
  in
  (match transport with
  | Rmp ->
      let inbox =
        Runtime.create_mailbox b.rt ~name:"sink" ~port
          ~byte_limit:(128 * 1024) ()
      in
      spawn_cab_thread b ~name:"sink" (fun ctx ->
          while !delivered < total do
            let m = Mailbox.begin_get ctx inbox in
            let n = Message.length m in
            Mailbox.end_get ctx m;
            arrived n
          done);
      spawn_cab_thread a ~name:"source" (fun ctx ->
          started := Engine.now w.eng;
          let dst_cab = Stack.node_id b in
          let reliably f =
            try f () with Rmp.Delivery_timeout _ -> incr errors
          in
          for _ = 1 to count do
            reliably (fun () ->
                Rmp.send_string ctx a.rmp ~dst_cab ~dst_port:port payload)
          done;
          reliably (fun () -> Rmp.flush ctx a.rmp ~dst_cab ~dst_port:port))
  | Tcp ->
      Tcp.listen b.tcp ~port ~on_accept:(fun conn ->
          spawn_cab_thread b ~name:"sink" (fun ctx ->
              while !delivered < total do
                arrived (String.length (Tcp.recv_string ctx conn))
              done));
      spawn_cab_thread a ~name:"source" (fun ctx ->
          try
            let conn =
              Tcp.connect ctx a.tcp ~dst:(Stack.addr b) ~dst_port:port ()
            in
            started := Engine.now w.eng;
            for _ = 1 to count do
              Tcp.send ctx conn payload
            done
          with Tcp.Connection_timed_out | Tcp.Connection_reset -> incr errors)
  | Dgram | Udp | Rpc _ ->
      invalid_arg "Bench_world.bulk: not a reliable stream transport");
  Engine.run w.eng;
  {
    started = !started;
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
