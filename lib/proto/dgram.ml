open Nectar_core
module Costs = Nectar_cab.Costs
module Router = Nectar_route.Router

let header_bytes = 8

type t = {
  dl : Datalink.t;
  rt : Runtime.t;
  input : Mailbox.t;
  mutable delivered_count : int;
  mutable no_port : int;
  mutable route_drops_count : int;
}

(* Header: dst_port u16 | src_port u16 | payload_len u16 | reserved u16 *)

let write_header (msg : Message.t) ~dst_port ~src_port =
  Message.set_u16 msg 0 dst_port;
  Message.set_u16 msg 2 src_port;
  Message.set_u16 msg 4 (Message.length msg - header_bytes);
  Message.set_u16 msg 6 0

(* All datagram input processing happens at interrupt level: parse, look up
   the destination mailbox, enqueue without copying. *)
let end_of_data t ctx (msg : Message.t) ~src_cab =
  ignore src_cab;
  Nectar_sim.Trace.instant
    ~track:(Nectar_cab.Cab.name (Runtime.cab t.rt))
    "dgram.deliver";
  ctx.Ctx.work Costs.dgram_ns;
  if Message.length msg < header_bytes then begin
    t.no_port <- t.no_port + 1;
    Mailbox.dispose ctx msg
  end
  else begin
    let dst_port = Message.get_u16 msg 0 in
    Message.adjust_head msg header_bytes;
    match Runtime.mailbox_at t.rt ~port:dst_port with
    | Some mbox ->
        t.delivered_count <- t.delivered_count + 1;
        Mailbox.enqueue ctx msg mbox
    | None ->
        t.no_port <- t.no_port + 1;
        Mailbox.dispose ctx msg
  end

let create dl =
  let rt = Datalink.runtime dl in
  let input =
    Runtime.create_mailbox rt ~name:"dgram-input" ~byte_limit:(128 * 1024)
      ~cached_buffer_bytes:0 ()
  in
  let t = { dl; rt; input; delivered_count = 0; no_port = 0; route_drops_count = 0 } in
  Datalink.register dl ~proto:Wire.proto_dgram
    {
      Datalink.input_mailbox = input;
      proto_header_len = header_bytes;
      start_of_data = None;
      end_of_data = (fun ctx msg ~src_cab -> end_of_data t ctx msg ~src_cab);
    };
  t

let alloc ctx t n =
  let msg = Datalink.alloc_frame_blocking ctx t.dl (header_bytes + n) in
  Message.adjust_head msg header_bytes;
  msg

let send (ctx : Ctx.t) t ~dst_cab ~dst_port ?(src_port = 0) msg =
  Nectar_sim.Trace.instant
    ~track:(Nectar_cab.Cab.name (Runtime.cab t.rt))
    "dgram.send";
  ctx.work Costs.dgram_ns;
  Message.push_head msg header_bytes;
  write_header msg ~dst_port ~src_port;
  try
    Datalink.output ctx t.dl ~dst_cab ~proto:Wire.proto_dgram ~msg
      ~free:true
  with Router.Route_down _ | Router.No_route _ ->
    (* unreliable datagram: a refused route is a local drop, counted —
       exactly what the wire would have done to it a window later *)
    t.route_drops_count <- t.route_drops_count + 1;
    Mailbox.dispose ctx msg

let send_string ctx t ~dst_cab ~dst_port s =
  let msg = alloc ctx t (String.length s) in
  Nectar_util.Copy_meter.record
    ~owner:(Nectar_cab.Cab.name (Runtime.cab t.rt))
    Nectar_util.Copy_meter.App (String.length s);
  Message.write_string msg 0 s;
  send ctx t ~dst_cab ~dst_port msg

let delivered t = t.delivered_count
let dropped_no_port t = t.no_port
let route_drops t = t.route_drops_count
