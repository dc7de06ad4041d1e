open Nectar_core
module Costs = Nectar_cab.Costs

let header_bytes = 8

type t = {
  ip : Ipv4.t;
  rt : Runtime.t;
  input : Mailbox.t;
  icmp : Icmp.t option;
  use_checksum : bool;
  ports : (int, Mailbox.t) Hashtbl.t;
  mutable delivered_count : int;
  mutable no_port : int;
  mutable bad_cksum : int;
}

let segment_checksum = Ipv4.pseudo_checksum

let server_body t (ctx : Ctx.t) =
  while true do
    let msg = Mailbox.begin_get ctx t.input in
    ctx.work Costs.udp_input_ns;
    (match Ipv4.read_header msg with
    | None -> Mailbox.end_get ctx msg
    | Some h ->
        let ip_hdr = Ipv4.header_bytes in
        let seg_len = Message.length msg - ip_hdr in
        if seg_len < header_bytes then Mailbox.end_get ctx msg
        else begin
          let checksum_ok =
            if not t.use_checksum then true
            else begin
              ctx.work (seg_len * Costs.tcp_cksum_ns_per_byte);
              let stored = Message.get_u16 msg (ip_hdr + 6) in
              stored = 0
              || segment_checksum (Message.bytes msg)
                   ~pos:(msg.Message.off + ip_hdr) ~len:seg_len ~src:h.Ipv4.src
                   ~dst:h.Ipv4.dst ~proto:Ipv4.proto_udp
                 = 0
            end
          in
          if not checksum_ok then begin
            t.bad_cksum <- t.bad_cksum + 1;
            Mailbox.end_get ctx msg
          end
          else begin
            let dst_port = Message.get_u16 msg (ip_hdr + 2) in
            let udp_len = Message.get_u16 msg (ip_hdr + 4) in
            match Hashtbl.find_opt t.ports dst_port with
            | Some mbox when udp_len >= header_bytes && udp_len <= seg_len ->
                Message.adjust_tail msg (seg_len - udp_len);
                Message.adjust_head msg (ip_hdr + header_bytes);
                t.delivered_count <- t.delivered_count + 1;
                Mailbox.enqueue ctx msg mbox
            | Some _ | None ->
                t.no_port <- t.no_port + 1;
                (match t.icmp with
                | Some icmp -> Icmp.port_unreachable ctx icmp ~orig:msg
                | None -> ());
                Mailbox.end_get ctx msg
          end
        end);
    ()
  done

let create ip ?(checksum = true) ?icmp () =
  let rt = Datalink.runtime (Ipv4.datalink ip) in
  let input =
    Runtime.create_mailbox rt ~name:"udp-input" ~port:Wire.port_udp_input
      ~byte_limit:(128 * 1024) ~cached_buffer_bytes:0 ()
  in
  let t =
    {
      ip;
      rt;
      input;
      icmp;
      use_checksum = checksum;
      ports = Hashtbl.create 16;
      delivered_count = 0;
      no_port = 0;
      bad_cksum = 0;
    }
  in
  Ipv4.register ip ~proto:Ipv4.proto_udp input;
  ignore
    (Thread.create (Runtime.cab rt) ~priority:Thread.System ~name:"udp-input"
       (server_body t));
  t

let bind t ~port mbox =
  if Hashtbl.mem t.ports port then invalid_arg "Udp.bind: port in use";
  Hashtbl.replace t.ports port mbox

let alloc ctx t n =
  let msg = Ipv4.alloc ctx t.ip (header_bytes + n) in
  Message.adjust_head msg header_bytes;
  msg

let send (ctx : Ctx.t) t ~src_port ~dst ~dst_port msg =
  ctx.work Costs.udp_output_ns;
  let udp_len = header_bytes + Message.length msg in
  Message.push_head msg header_bytes;
  Message.set_u16 msg 0 src_port;
  Message.set_u16 msg 2 dst_port;
  Message.set_u16 msg 4 udp_len;
  Message.set_u16 msg 6 0;
  if t.use_checksum then begin
    ctx.work (udp_len * Costs.tcp_cksum_ns_per_byte);
    let ck =
      segment_checksum (Message.bytes msg) ~pos:msg.Message.off ~len:udp_len
        ~src:(Ipv4.local_addr t.ip) ~dst ~proto:Ipv4.proto_udp
    in
    Message.set_u16 msg 6 (if ck = 0 then 0xffff else ck)
  end;
  Ipv4.output ctx t.ip ~dst ~proto:Ipv4.proto_udp msg

let send_string ctx t ~src_port ~dst ~dst_port s =
  let msg = alloc ctx t (String.length s) in
  Nectar_util.Copy_meter.record
    ~owner:(Nectar_cab.Cab.name (Runtime.cab t.rt))
    Nectar_util.Copy_meter.App (String.length s);
  Message.write_string msg 0 s;
  send ctx t ~src_port ~dst ~dst_port msg

let datagrams_delivered t = t.delivered_count
let drops_no_port t = t.no_port
