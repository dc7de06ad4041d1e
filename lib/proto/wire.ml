open Nectar_util

let dl_header_bytes = 12
let proto_ip = 1
let proto_dgram = 2
let proto_rmp = 3
let proto_reqresp = 4
let proto_netdev = 5

(* proto u8 | flags u8 | payload_len u16 | src_cab u16 | dst_cab u16 |
   reserved u32, read and written in place *)
let write_dl b ~pos ~proto ~payload_len ~src_cab ~dst_cab =
  Byte_view.set_u8 b pos proto;
  Byte_view.set_u8 b (pos + 1) 0;
  Byte_view.set_u16 b (pos + 2) payload_len;
  Byte_view.set_u16 b (pos + 4) src_cab;
  Byte_view.set_u16 b (pos + 6) dst_cab;
  Byte_view.set_u32 b (pos + 8) 0

let dl_proto b pos = Byte_view.get_u8 b pos
let dl_payload_len b pos = Byte_view.get_u16 b (pos + 2)
let dl_src_cab b pos = Byte_view.get_u16 b (pos + 4)
let dl_dst_cab b pos = Byte_view.get_u16 b (pos + 6)

let port_ip_input = 1
let port_tcp_input = 2
let port_udp_input = 3
let port_tcp_send_request = 4
let port_first_user = 100
