open Nectar_sim
open Nectar_core
open Nectar_proto
module Costs = Nectar_cab.Costs

let mtu = 1500
let header_bytes = 8

type t = {
  drv : Cab_driver.t;
  dl : Datalink.t;
  tx_handle : Hostlib.handle;
  rx_pool : Mailbox.t;
  (* packets the CAB relay thread has handed to the host, pending softnet *)
  host_rx : Message.t Queue.t;
  rx_cond : Cab_driver.Cond.cond;
  ports : (int, string Queue.t * Waitq.t) Hashtbl.t;
  mutable out_count : int;
  mutable in_count : int;
}

(* Header: dst_cab u16 | port u16 | len u16 | pad u16 *)

(* CAB transmit server thread: takes packets the host driver put into the
   output pool and pushes them onto the fabric. *)
let cab_tx_thread tx_pool dl (ctx : Ctx.t) =
  while true do
    let msg = Mailbox.begin_get ctx tx_pool in
    ctx.work (Sim_time.us 10);
    let dst_cab = Message.get_u16 msg 0 in
    Datalink.output ctx dl ~dst_cab ~proto:Wire.proto_netdev ~msg
      ~free:true
  done

(* CAB receive server thread: moves arrived packets to the host side and
   signals the driver. *)
let cab_rx_thread t (ctx : Ctx.t) =
  while true do
    let msg = Mailbox.begin_get ctx t.rx_pool in
    ctx.work (Sim_time.us 10);
    Queue.add msg t.host_rx;
    Cab_driver.Cond.signal t.rx_cond
  done

(* Host "softnet" process: drains relayed packets, runs the host protocol
   stack, dispatches to sockets.  It models the kernel bottom half: the
   CAB's interrupt (already charged through the driver) wakes it, so
   waiting costs no syscalls. *)
let host_softnet t (ctx : Ctx.t) =
  let woken = Cab_driver.Cond.waitq t.rx_cond in
  while true do
    while Queue.is_empty t.host_rx do
      Nectar_sim.Waitq.wait woken
    done;
    ctx.work (Sim_time.us 10);
    let msg = Queue.take t.host_rx in
    (* copy the packet out of CAB memory and run IP + UDP + socket layers *)
    let port = Message.get_u16 msg 2 in
    let len = Message.get_u16 msg 4 in
    Nectar_util.Copy_meter.record ~owner:"host-softnet"
      Nectar_util.Copy_meter.Host len;
    let payload = Message.read_string msg ~pos:header_bytes ~len in
    Cab_driver.ctx_pio ctx t.drv ~bytes:(Message.length msg);
    Mailbox.end_get ctx msg;
    ctx.work
      (Costs.host_driver_ns + Costs.host_ip_ns + Costs.host_udp_ns
      + (len * Costs.host_stack_ns_per_byte));
    t.in_count <- t.in_count + 1;
    match Hashtbl.find_opt t.ports port with
    | Some (q, wq) ->
        Queue.add payload q;
        ignore (Waitq.broadcast wq)
    | None -> ()
  done

let create drv =
  let rt = Cab_driver.runtime drv in
  let host = Cab_driver.host drv in
  let dl = Datalink.create rt in
  let tx_pool =
    Runtime.create_mailbox rt ~name:"netdev-tx-pool" ~byte_limit:(64 * 1024)
      ~cached_buffer_bytes:0 ()
  in
  let rx_pool =
    Runtime.create_mailbox rt ~name:"netdev-rx-pool" ~byte_limit:(64 * 1024)
      ~cached_buffer_bytes:0 ()
  in
  Datalink.register dl ~proto:Wire.proto_netdev
    {
      Datalink.input_mailbox = rx_pool;
      proto_header_len = header_bytes;
      start_of_data = None;
      end_of_data =
        (fun ctx msg ~src_cab ->
          ignore src_cab;
          Mailbox.end_put ctx rx_pool msg);
    };
  let t =
    {
      drv;
      dl;
      tx_handle =
        Hostlib.attach drv tx_pool ~mode:Hostlib.Shared_memory ~readers:`Cab;
      rx_pool;
      host_rx = Queue.create ();
      rx_cond = Cab_driver.Cond.create drv;
      ports = Hashtbl.create 8;
      out_count = 0;
      in_count = 0;
    }
  in
  ignore
    (Thread.create (Runtime.cab rt) ~priority:Thread.System ~name:"netdev-tx"
       (cab_tx_thread tx_pool dl));
  ignore
    (Thread.create (Runtime.cab rt) ~priority:Thread.System ~name:"netdev-rx"
       (cab_rx_thread t));
  Host.spawn_process host ~name:"netdev-softnet" (host_softnet t);
  t

let bind t ~port =
  if Hashtbl.mem t.ports port then invalid_arg "Netdev.bind: port in use";
  Hashtbl.replace t.ports port
    (Queue.create (), Waitq.create (Host.engine (Cab_driver.host t.drv)))

let send_datagram (ctx : Ctx.t) t ~dst_cab ~port payload =
  let n = String.length payload in
  if header_bytes + n > mtu then invalid_arg "Netdev.send_datagram: over MTU";
  (* socket write + UDP + IP on the host, then the driver copies the packet
     into the CAB output pool and rings the doorbell *)
  ctx.work
    (Costs.host_socket_ns + Costs.host_udp_ns + Costs.host_ip_ns
   + Costs.host_driver_ns
    + (n * Costs.host_stack_ns_per_byte));
  let msg =
    Hostlib.begin_put ctx t.tx_handle
      (Wire.dl_header_bytes + header_bytes + n)
  in
  Message.adjust_head msg Wire.dl_header_bytes;
  Message.set_u16 msg 0 dst_cab;
  Message.set_u16 msg 2 port;
  Message.set_u16 msg 4 n;
  Message.set_u16 msg 6 0;
  Hostlib.write_string ctx t.tx_handle msg ~pos:header_bytes payload;
  t.out_count <- t.out_count + 1;
  Hostlib.end_put ctx t.tx_handle msg

let recv_datagram (ctx : Ctx.t) t ~port =
  match Hashtbl.find_opt t.ports port with
  | None -> invalid_arg "Netdev.recv_datagram: port not bound"
  | Some (q, wq) ->
      Host.syscall ctx;
      while Queue.is_empty q do
        Waitq.wait wq
      done;
      Queue.take q
