open Nectar_core
open Nectar_proto
open Nectar_host
module Costs = Nectar_cab.Costs

type endpoint = { cab : int; port : int }

type error =
  | Delivery_timeout of endpoint
  | Call_timeout of endpoint
  | No_buffer

let string_of_error = function
  | Delivery_timeout { cab; port } ->
      Printf.sprintf "delivery timeout (cab %d port %d)" cab port
  | Call_timeout { cab; port } ->
      Printf.sprintf "call timeout (cab %d port %d)" cab port
  | No_buffer -> "out of transmit buffers"

type side = Cab_side | Host_side of Cab_driver.t

type node = {
  stack : Stack.t;
  side : side;
  mutable next_port : int;
  (* host-side plumbing, built lazily *)
  mutable send_server : Mailbox.t option;
  mutable send_handle : Hostlib.handle option;
  mutable rpc_proxy : proxy option;
}

(* Host calls go through a CAB proxy thread: request in, response back in a
   host-read mailbox.  Calls are serialised per node. *)
and proxy = {
  req_h : Hostlib.handle;
  resp_h : Hostlib.handle;
  plock : Nectar_sim.Resource.t;
}

type mbox = {
  owner : node;
  raw : Mailbox.t;
  handle : Hostlib.handle option; (* host nodes read through this *)
  ep : endpoint;
}

let cab_node stack =
  { stack; side = Cab_side; next_port = 500; send_server = None;
    send_handle = None; rpc_proxy = None }

let host_node drv stack =
  if Runtime.node_id (Cab_driver.runtime drv) <> Stack.node_id stack then
    invalid_arg "Nectarine.host_node: driver and stack on different CABs";
  { stack; side = Host_side drv; next_port = 500; send_server = None;
    send_handle = None; rpc_proxy = None }

let node_cab_id n = Stack.node_id n.stack

let cab_owner stack = Nectar_cab.Cab.name (Runtime.cab stack.Stack.rt)

let meter_app stack n =
  Nectar_util.Copy_meter.record ~owner:(cab_owner stack)
    Nectar_util.Copy_meter.App n

let fresh_port n =
  let p = n.next_port in
  n.next_port <- p + 1;
  p

let spawn n ~name body =
  match n.side with
  | Cab_side ->
      ignore
        (Thread.create (Runtime.cab n.stack.Stack.rt) ~priority:Thread.App
           ~name body)
  | Host_side drv -> Host.spawn_process (Cab_driver.host drv) ~name body

(* ---------- mailboxes ---------- *)

let create_mailbox n ~name ?port () =
  let port = match port with Some p -> p | None -> fresh_port n in
  let raw =
    Runtime.create_mailbox n.stack.Stack.rt ~name ~port
      ~byte_limit:(64 * 1024) ()
  in
  let handle =
    match n.side with
    | Cab_side -> None
    | Host_side drv ->
        Some (Hostlib.attach drv raw ~mode:Hostlib.Shared_memory ~readers:`Host)
  in
  { owner = n; raw; handle; ep = { cab = Stack.node_id n.stack; port } }

let address m = m.ep

let receive ctx m =
  match m.handle with
  | None ->
      let msg = Mailbox.begin_get ctx m.raw in
      meter_app m.owner.stack (Message.length msg);
      let s = Message.to_string msg in
      Mailbox.end_get ctx msg;
      s
  | Some h ->
      let msg = Hostlib.begin_get ctx h in
      let s = Hostlib.read_string ctx h msg in
      Hostlib.end_get ctx h msg;
      s

(* ---------- sending ----------

   CAB tasks call the transports directly; host tasks place a request in
   the CAB send server's mailbox (the paper's host-CAB service pattern):
   [kind u8 | pad u8 | dst_cab u16 | dst_port u16 | payload...]. *)

let kind_dgram = 0
let kind_rmp = 1

let send_server_thread stack mbox (ctx : Ctx.t) =
  while true do
    let m = Mailbox.begin_get ctx mbox in
    let kind = Message.get_u8 m 0 in
    let dst_cab = Message.get_u16 m 2 in
    let dst_port = Message.get_u16 m 4 in
    meter_app stack (Message.length m - 6);
    let payload = Message.read_string m ~pos:6 ~len:(Message.length m - 6) in
    Mailbox.end_get ctx m;
    if kind = kind_dgram then
      Dgram.send_string ctx stack.Stack.dgram ~dst_cab ~dst_port payload
    else
      Rmp.send_string ctx stack.Stack.rmp ~dst_cab ~dst_port payload
  done

let host_send_handle n drv =
  match n.send_handle with
  | Some h -> h
  | None ->
      let mbox =
        Runtime.create_mailbox n.stack.Stack.rt ~name:"nectarine-send"
          ~byte_limit:(64 * 1024) ()
      in
      ignore
        (Thread.create (Runtime.cab n.stack.Stack.rt) ~priority:Thread.System
           ~name:"nectarine-send" (send_server_thread n.stack mbox));
      let h = Hostlib.attach drv mbox ~mode:Hostlib.Shared_memory ~readers:`Cab in
      n.send_server <- Some mbox;
      n.send_handle <- Some h;
      h

let send ctx n ~dst ?(reliable = true) payload =
  match n.side with
  | Cab_side ->
      if reliable then
        Rmp.send_string ctx n.stack.Stack.rmp ~dst_cab:dst.cab
          ~dst_port:dst.port payload
      else
        Dgram.send_string ctx n.stack.Stack.dgram ~dst_cab:dst.cab
          ~dst_port:dst.port payload
  | Host_side drv ->
      let h = host_send_handle n drv in
      let m = Hostlib.begin_put ctx h (6 + String.length payload) in
      Message.set_u8 m 0 (if reliable then kind_rmp else kind_dgram);
      Message.set_u8 m 1 0;
      Message.set_u16 m 2 dst.cab;
      Message.set_u16 m 4 dst.port;
      Hostlib.write_string ctx h m ~pos:6 payload;
      Hostlib.end_put ctx h m

(* Typed-error variant: a scenario thread that lets [Rmp.Delivery_timeout]
   escape is killed by the engine (Process_failure) and takes the whole
   run with it; chaos traffic uses this form and counts the error. *)
let send_result ctx n ~dst ?reliable payload =
  match send ctx n ~dst ?reliable payload with
  | () -> Ok ()
  | exception Rmp.Delivery_timeout { dst_cab; dst_port } ->
      Error (Delivery_timeout { cab = dst_cab; port = dst_port })
  | exception Datalink.No_buffer -> Error No_buffer

(* ---------- RPC ---------- *)

let rpc_proxy_thread stack req_mb resp_mb (ctx : Ctx.t) =
  while true do
    let m = Mailbox.begin_get ctx req_mb in
    let dst_cab = Message.get_u16 m 0 in
    let dst_port = Message.get_u16 m 2 in
    meter_app stack (Message.length m - 4);
    let payload = Message.read_string m ~pos:4 ~len:(Message.length m - 4) in
    Mailbox.end_get ctx m;
    let response =
      try Reqresp.call ctx stack.Stack.reqresp ~dst_cab ~dst_port payload
      with Reqresp.Call_timeout _ -> ""
    in
    let r = Mailbox.begin_put ctx resp_mb (String.length response) in
    meter_app stack (String.length response);
    Message.write_string r 0 response;
    Mailbox.end_put ctx resp_mb r
  done

let host_proxy n drv =
  match n.rpc_proxy with
  | Some p -> p
  | None ->
      let rt = n.stack.Stack.rt in
      let req_mb =
        Runtime.create_mailbox rt ~name:"nectarine-rpc-req"
          ~byte_limit:(64 * 1024) ()
      in
      let resp_mb =
        Runtime.create_mailbox rt ~name:"nectarine-rpc-resp"
          ~byte_limit:(64 * 1024) ()
      in
      ignore
        (Thread.create (Runtime.cab rt) ~priority:Thread.System
           ~name:"nectarine-rpc-proxy"
           (rpc_proxy_thread n.stack req_mb resp_mb));
      let p =
        {
          req_h =
            Hostlib.attach drv req_mb ~mode:Hostlib.Shared_memory
              ~readers:`Cab;
          resp_h =
            Hostlib.attach drv resp_mb ~mode:Hostlib.Shared_memory
              ~readers:`Host;
          plock = Nectar_sim.Resource.create (Runtime.engine rt) ();
        }
      in
      n.rpc_proxy <- Some p;
      p

let call ctx n ~dst payload =
  match n.side with
  | Cab_side ->
      Reqresp.call ctx n.stack.Stack.reqresp ~dst_cab:dst.cab
        ~dst_port:dst.port payload
  | Host_side drv ->
      let p = host_proxy n drv in
      Nectar_sim.Resource.with_held p.plock (fun () ->
          let m = Hostlib.begin_put ctx p.req_h (4 + String.length payload) in
          Message.set_u16 m 0 dst.cab;
          Message.set_u16 m 2 dst.port;
          Hostlib.write_string ctx p.req_h m ~pos:4 payload;
          Hostlib.end_put ctx p.req_h m;
          let r = Hostlib.begin_get ctx p.resp_h in
          let s = Hostlib.read_string ctx p.resp_h r in
          Hostlib.end_get ctx p.resp_h r;
          s)

let call_result ctx n ~dst payload =
  match call ctx n ~dst payload with
  | response -> Ok response
  | exception Reqresp.Call_timeout { dst_cab; dst_port } ->
      Error (Call_timeout { cab = dst_cab; port = dst_port })
  | exception Datalink.No_buffer -> Error No_buffer

(* ---------- services ---------- *)

let serve n ~port handler =
  match n.side with
  | Cab_side ->
      Reqresp.register_server n.stack.Stack.reqresp ~port
        ~mode:Reqresp.Thread_server handler
  | Host_side drv ->
      (* forward requests into a host-read mailbox; the handler runs in a
         host worker process whose reply flows back through a CAB-read
         mailbox *)
      let rt = n.stack.Stack.rt in
      let req_mb =
        Runtime.create_mailbox rt
          ~name:(Printf.sprintf "hostsvc-req-%d" port)
          ~byte_limit:(64 * 1024) ()
      in
      let resp_mb =
        Runtime.create_mailbox rt
          ~name:(Printf.sprintf "hostsvc-resp-%d" port)
          ~byte_limit:(64 * 1024) ()
      in
      let req_h =
        Hostlib.attach drv req_mb ~mode:Hostlib.Shared_memory ~readers:`Host
      in
      let resp_h =
        Hostlib.attach drv resp_mb ~mode:Hostlib.Shared_memory ~readers:`Cab
      in
      Reqresp.register_server n.stack.Stack.reqresp ~port
        ~mode:Reqresp.Thread_server
        (fun cctx request ->
          let m = Mailbox.begin_put cctx req_mb (String.length request) in
          Message.write_string m 0 request;
          Mailbox.end_put cctx req_mb m;
          let r = Mailbox.begin_get cctx resp_mb in
          let s = Message.to_string r in
          Mailbox.end_get cctx r;
          s);
      Host.spawn_process (Cab_driver.host drv)
        ~name:(Printf.sprintf "hostsvc-%d" port)
        (fun ctx ->
          while true do
            let m = Hostlib.begin_get ctx req_h in
            let request = Hostlib.read_string ctx req_h m in
            Hostlib.end_get ctx req_h m;
            ctx.work (String.length request * Costs.host_msg_touch_ns_per_byte);
            let response = handler ctx request in
            let r = Hostlib.begin_put ctx resp_h (String.length response) in
            Hostlib.write_string ctx resp_h r ~pos:0 response;
            Hostlib.end_put ctx resp_h r
          done)

module Presentation = Presentation
