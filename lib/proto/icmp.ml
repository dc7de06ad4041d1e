open Nectar_core
open Nectar_sim
open Nectar_util
module Costs = Nectar_cab.Costs

let header_bytes = 8
let ty_echo_reply = 0
let ty_unreachable = 3
let ty_echo_request = 8
let code_port_unreachable = 3

type pending_ping = { ping_q : Waitq.t; mutable replied : bool }

type t = {
  ip : Ipv4.t;
  rt : Runtime.t;
  owner : string;  (* CAB name, labels this node's copy-meter records *)
  input : Mailbox.t;
  pings : (int, pending_ping) Hashtbl.t; (* echo id *)
  mutable next_ping : int;
  mutable answered : int;
  mutable bad_cksum : int;
  mutable unreachable : int;
}

let icmp_checksum (msg : Message.t) ~pos ~len =
  Inet_checksum.checksum (Message.bytes msg) ~pos:(msg.Message.off + pos) ~len

(* The mailbox upcall: consume the datagram in place, inside the caller's
   (IP interrupt) context. *)
let upcall t ctx mbox =
  match Mailbox.try_begin_get ctx mbox with
  | None -> ()
  | Some msg -> (
      ctx.Ctx.work Costs.icmp_ns;
      match Ipv4.read_header msg with
      | None -> Mailbox.end_get ctx msg
      | Some h ->
          let ip_hdr = Ipv4.header_bytes in
          let icmp_len = Message.length msg - ip_hdr in
          if icmp_len < header_bytes then Mailbox.end_get ctx msg
          else if icmp_checksum msg ~pos:ip_hdr ~len:icmp_len <> 0 then begin
            t.bad_cksum <- t.bad_cksum + 1;
            Mailbox.end_get ctx msg
          end
          else begin
            let ty = Message.get_u8 msg ip_hdr in
            let ident = Message.get_u16 msg (ip_hdr + 4) in
            if ty = ty_echo_request then begin
              (* build the reply: same payload, type swapped; drop it when
                 the transmit pool is full (echo is best-effort) *)
              match Ipv4.alloc ctx t.ip icmp_len with
              | exception Datalink.No_buffer -> ()
              | reply ->
                  (* the reply edits type and checksum fields, so it cannot
                     alias the request buffer: a header-rebuild copy *)
                  Copy_meter.record ~owner:t.owner Copy_meter.Hdr icmp_len;
                  Message.blit_from reply ~dst_pos:0 ~src:(Message.bytes msg)
                    ~src_pos:(msg.Message.off + ip_hdr) ~len:icmp_len;
                  Message.set_u8 reply 0 ty_echo_reply;
                  Message.set_u16 reply 2 0;
                  let ck = icmp_checksum reply ~pos:0 ~len:icmp_len in
                  Message.set_u16 reply 2 ck;
                  t.answered <- t.answered + 1;
                  Ipv4.output ctx t.ip ~dst:h.Ipv4.src ~proto:Ipv4.proto_icmp
                    reply
            end
            else if ty = ty_echo_reply then begin
              match Hashtbl.find_opt t.pings ident with
              | Some p when not p.replied ->
                  p.replied <- true;
                  ignore (Waitq.broadcast p.ping_q)
              | Some _ | None -> ()
            end
            else if ty = ty_unreachable then
              t.unreachable <- t.unreachable + 1;
            Mailbox.end_get ctx msg
          end)

let create ip =
  let rt = Datalink.runtime (Ipv4.datalink ip) in
  let input =
    Runtime.create_mailbox rt ~name:"icmp-input" ~byte_limit:(32 * 1024)
      ~cached_buffer_bytes:0 ()
  in
  let t =
    {
      ip;
      rt;
      owner = Nectar_cab.Cab.name (Runtime.cab rt);
      input;
      pings = Hashtbl.create 8;
      next_ping = 1;
      answered = 0;
      bad_cksum = 0;
      unreachable = 0;
    }
  in
  Mailbox.set_upcall input (Some (upcall t));
  Ipv4.register ip ~proto:Ipv4.proto_icmp input;
  t

(* How long [ping] waits for the echo reply. *)
let ping_timeout = Sim_time.ms 100

let ping (ctx : Ctx.t) t ~dst ?(payload_bytes = 32) () =
  Ctx.assert_may_block ctx "Icmp.ping";
  let ident = t.next_ping in
  t.next_ping <- ident + 1;
  let p = { ping_q = Waitq.create (Runtime.engine t.rt); replied = false } in
  Hashtbl.replace t.pings ident p;
  let len = header_bytes + payload_bytes in
  let req = Ipv4.alloc ctx t.ip len in
  Message.set_u8 req 0 ty_echo_request;
  Message.set_u8 req 1 0;
  Message.set_u16 req 2 0;
  Message.set_u16 req 4 ident;
  Message.set_u16 req 6 1;
  for i = 0 to payload_bytes - 1 do
    Message.set_u8 req (header_bytes + i) (i land 0xff)
  done;
  let ck = icmp_checksum req ~pos:0 ~len in
  Message.set_u16 req 2 ck;
  let started = Engine.now (Runtime.engine t.rt) in
  Ipv4.output ctx t.ip ~dst ~proto:Ipv4.proto_icmp req;
  let rec await () =
    if p.replied then begin
      Hashtbl.remove t.pings ident;
      Some (Engine.now (Runtime.engine t.rt) - started)
    end
    else
      match Waitq.wait_timeout p.ping_q ping_timeout with
      | `Signaled -> await ()
      | `Timeout ->
          Hashtbl.remove t.pings ident;
          None
  in
  await ()

(* RFC 792: type 3 carries the offending datagram's IP header plus its
   first 8 bytes. *)
let port_unreachable (ctx : Ctx.t) t ~orig =
  match Ipv4.read_header orig with
  | None -> ()
  | Some h -> (
      let quoted = min (Message.length orig) (Ipv4.header_bytes + 8) in
      let len = header_bytes + quoted in
      match Ipv4.alloc ctx t.ip len with
      | exception Datalink.No_buffer -> ()
      | msg ->
          Message.set_u8 msg 0 ty_unreachable;
          Message.set_u8 msg 1 code_port_unreachable;
          Message.set_u16 msg 2 0;
          Message.set_u32 msg 4 0;
          Copy_meter.record ~owner:t.owner Copy_meter.Hdr quoted;
          Message.blit_from msg ~dst_pos:header_bytes
            ~src:(Message.bytes orig) ~src_pos:orig.Message.off ~len:quoted;
          let ck = icmp_checksum msg ~pos:0 ~len in
          Message.set_u16 msg 2 ck;
          Ipv4.output ctx t.ip ~dst:h.Ipv4.src ~proto:Ipv4.proto_icmp msg)

let echoes_answered t = t.answered
let bad_checksums t = t.bad_cksum
let unreachables_received t = t.unreachable
