open Nectar_core
open Nectar_sim
open Nectar_util
module Costs = Nectar_cab.Costs
module Router = Nectar_route.Router

type addr = int

let header_bytes = 20

let addr_of_cab cab = 0x0a010000 lor (cab + 1)
let cab_of_addr addr = (addr land 0xffff) - 1

let string_of_addr a =
  Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 0xff) ((a lsr 16) land 0xff)
    ((a lsr 8) land 0xff) (a land 0xff)

let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

type header = {
  total_len : int;
  id : int;
  more_fragments : bool;
  frag_off : int;
  ttl : int;
  proto : int;
  src : addr;
  dst : addr;
}

(* A partially reassembled datagram: fragments are kept as the received
   messages (still owned by the IP input mailbox) until the hole list is
   empty. *)
type reass = {
  mutable frags : (int * Message.t) list; (* frag_off (bytes) -> fragment *)
  mutable total : int option; (* payload length, known once the last
                                 fragment arrives *)
  mutable received : int;
  born : Sim_time.t;
}

type t = {
  dl : Datalink.t;
  rt : Runtime.t;
  owner : string;  (* CAB name, labels this node's copy-meter records *)
  input : Mailbox.t;
  ip_mtu : int;
  default_ttl : int;
  addr : addr;
  bindings : (int, Mailbox.t) Hashtbl.t;
  reass_table : (int * int * int * int, reass) Hashtbl.t;
  reass_timeout : Sim_time.span;
  mutable next_id : int;
  mutable in_count : int;
  mutable out_count : int;
  mutable frag_out : int;
  mutable reass_count : int;
  mutable hdr_drops : int;
  mutable proto_drops : int;
  mutable reass_drops : int;
  mutable route_drops_count : int;
}

let datalink t = t.dl
let local_addr t = t.addr
let mtu t = t.ip_mtu

let register t ~proto mailbox =
  if Hashtbl.mem t.bindings proto then
    invalid_arg "Ipv4.register: protocol already registered";
  Hashtbl.replace t.bindings proto mailbox

(* ---------- header encode / decode ---------- *)

let encode_header mem ~pos ~total_len ~id ~more_fragments ~frag_off ~ttl
    ~proto ~src ~dst =
  Byte_view.set_u8 mem pos 0x45;
  Byte_view.set_u8 mem (pos + 1) 0;
  Byte_view.set_u16 mem (pos + 2) total_len;
  Byte_view.set_u16 mem (pos + 4) id;
  let flags = if more_fragments then 0x2000 else 0 in
  Byte_view.set_u16 mem (pos + 6) (flags lor (frag_off / 8));
  Byte_view.set_u8 mem (pos + 8) ttl;
  Byte_view.set_u8 mem (pos + 9) proto;
  Byte_view.set_u16 mem (pos + 10) 0;
  Byte_view.set_u32 mem (pos + 12) src;
  Byte_view.set_u32 mem (pos + 16) dst;
  let cksum = Inet_checksum.checksum mem ~pos ~len:header_bytes in
  Byte_view.set_u16 mem (pos + 10) cksum

let read_header (msg : Message.t) =
  if Message.length msg < header_bytes then None
  else
    let mem = Message.bytes msg and pos = msg.Message.off in
    let ver_ihl = Byte_view.get_u8 mem pos in
    if ver_ihl <> 0x45 then None
    else if not (Inet_checksum.valid mem ~pos ~len:header_bytes) then None
    else
      let frag_field = Byte_view.get_u16 mem (pos + 6) in
      Some
        {
          total_len = Byte_view.get_u16 mem (pos + 2);
          id = Byte_view.get_u16 mem (pos + 4);
          more_fragments = frag_field land 0x2000 <> 0;
          frag_off = (frag_field land 0x1fff) * 8;
          ttl = Byte_view.get_u8 mem (pos + 8);
          proto = Byte_view.get_u8 mem (pos + 9);
          src = Byte_view.get_u32 mem (pos + 12);
          dst = Byte_view.get_u32 mem (pos + 16);
        }

let pseudo_checksum mem ~pos ~len ~src ~dst ~proto =
  let acc = Inet_checksum.sum mem ~pos ~len in
  let acc = Inet_checksum.add16 acc (src lsr 16) in
  let acc = Inet_checksum.add16 acc (src land 0xffff) in
  let acc = Inet_checksum.add16 acc (dst lsr 16) in
  let acc = Inet_checksum.add16 acc (dst land 0xffff) in
  let acc = Inet_checksum.add16 acc proto in
  let acc = Inet_checksum.add16 acc len in
  Inet_checksum.finish acc

(* ---------- output ---------- *)

let alloc ctx t n =
  let msg =
    Datalink.alloc_frame_blocking ctx t.dl (header_bytes + n)
  in
  Message.adjust_head msg header_bytes;
  msg

let fresh_id t =
  let id = t.next_id in
  t.next_id <- (id + 1) land 0xffff;
  id

let send_datagram ctx t ~id ~more_fragments ~frag_off ~ttl ~proto ~src ~dst
    (msg : Message.t) =
  Message.push_head msg header_bytes;
  encode_header (Message.bytes msg) ~pos:msg.Message.off
    ~total_len:(Message.length msg) ~id ~more_fragments ~frag_off ~ttl ~proto
    ~src ~dst;
  t.out_count <- t.out_count + 1;
  try
    Datalink.output ctx t.dl ~dst_cab:(cab_of_addr dst) ~proto:Wire.proto_ip
      ~msg ~on_done:Mailbox.dispose
  with Router.Route_down _ | Router.No_route _ ->
    (* IP is best-effort: a refused route is a local drop, counted; the
       transports above (TCP RTO) recover on their own clock *)
    t.route_drops_count <- t.route_drops_count + 1;
    Mailbox.dispose ctx msg

let output (ctx : Ctx.t) t ?src ~dst ~proto msg =
  ctx.work Costs.ip_output_ns;
  let src = Option.value src ~default:t.addr in
  let ttl = t.default_ttl in
  let payload_len = Message.length msg in
  if header_bytes + payload_len <= t.ip_mtu then
    send_datagram ctx t ~id:(fresh_id t) ~more_fragments:false ~frag_off:0
      ~ttl ~proto ~src ~dst msg
  else begin
    (* Fragment, zero-copy: each fragment is a small header-only message
       plus a slice view of the original payload, sent as scatter/gather
       extents — the payload bytes are never copied on the transmit side.
       Each slice holds a buffer reference, so disposing [msg] below only
       drops the owner's reference; the buffer lives until the last
       fragment's frame dies. *)
    let id = fresh_id t in
    let max_payload = (t.ip_mtu - header_bytes) land lnot 7 in
    if max_payload <= 0 then invalid_arg "Ipv4.output: MTU too small";
    let rec slice off =
      if off < payload_len then begin
        ctx.work Costs.ip_frag_ns;
        let n = min max_payload (payload_len - off) in
        let last = off + n >= payload_len in
        let hdr = alloc ctx t 0 in
        let payload = Message.slice msg ~pos:off ~len:n in
        Message.push_head hdr header_bytes;
        encode_header (Message.bytes hdr) ~pos:hdr.Message.off
          ~total_len:(header_bytes + n) ~id ~more_fragments:(not last)
          ~frag_off:off ~ttl ~proto ~src ~dst;
        t.frag_out <- t.frag_out + 1;
        t.out_count <- t.out_count + 1;
        (try
           Datalink.output_sg ctx t.dl ~dst_cab:(cab_of_addr dst)
             ~proto:Wire.proto_ip ~msg:hdr ~tail:[ payload ]
             ~on_done:Mailbox.dispose
         with Router.Route_down _ | Router.No_route _ ->
           (* the refused fragment never became a frame: slice ownership
              only transfers on a successful send, so release both the
              header message and the payload slice here *)
           t.route_drops_count <- t.route_drops_count + 1;
           Mailbox.dispose ctx hdr;
           Message.Slice.release payload);
        slice (off + n)
      end
    in
    slice 0;
    Mailbox.dispose ctx msg
  end

(* ---------- input (all at interrupt level, paper §4.1) ---------- *)

let purge_stale t ctx now =
  let stale =
    Hashtbl.fold
      (fun key r acc -> if now - r.born > t.reass_timeout then key :: acc else acc)
      t.reass_table []
  in
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.reass_table key with
      | Some r ->
          t.reass_drops <- t.reass_drops + 1;
          List.iter (fun (_, frag) -> Mailbox.dispose ctx frag) r.frags;
          Hashtbl.remove t.reass_table key
      | None -> ())
    stale

let deliver t ctx (msg : Message.t) ~proto =
  match Hashtbl.find_opt t.bindings proto with
  | Some mbox ->
      t.in_count <- t.in_count + 1;
      Mailbox.enqueue ctx msg mbox
  | None ->
      t.proto_drops <- t.proto_drops + 1;
      Mailbox.dispose ctx msg

let try_complete t ctx key (r : reass) ~proto =
  match r.total with
  | Some total when r.received >= total -> (
      (* Verify full coverage, then rebuild a contiguous datagram. *)
      let sorted = List.sort compare r.frags in
      let contiguous =
        List.fold_left
          (fun expect (off, frag) ->
            if off <> expect then -1
            else expect + Message.length frag - header_bytes)
          0 sorted
        = total
      in
      if not contiguous then ()
      else
        match Mailbox.try_begin_put ctx t.input (header_bytes + total) with
        | None ->
            t.reass_drops <- t.reass_drops + 1;
            List.iter (fun (_, frag) -> Mailbox.dispose ctx frag) r.frags;
            Hashtbl.remove t.reass_table key
        | Some whole ->
            ctx.Ctx.work Costs.ip_frag_ns;
            (match sorted with
            | (_, first) :: _ ->
                (* copy the first fragment's header, clearing fragmentation
                   fields and re-checksumming *)
                Copy_meter.record ~owner:t.owner Copy_meter.Hdr header_bytes;
                let mem = Message.bytes whole and pos = whole.Message.off in
                Message.blit_to first ~src_pos:0 ~dst:mem ~dst_pos:pos
                  ~len:header_bytes;
                Byte_view.set_u16 mem (pos + 2) (header_bytes + total);
                Byte_view.set_u16 mem (pos + 6) 0;
                Byte_view.set_u16 mem (pos + 10) 0;
                let ck = Inet_checksum.checksum mem ~pos ~len:header_bytes in
                Byte_view.set_u16 mem (pos + 10) ck
            | [] -> assert false);
            List.iter
              (fun (off, frag) ->
                let n = Message.length frag - header_bytes in
                (* reassembly is inherently a gather copy: the fragments
                   landed in separate receive buffers *)
                Copy_meter.record ~owner:t.owner Copy_meter.Frag n;
                Message.blit_to frag ~src_pos:header_bytes
                  ~dst:(Message.bytes whole)
                  ~dst_pos:(whole.Message.off + header_bytes + off)
                  ~len:n;
                Mailbox.dispose ctx frag)
              sorted;
            Hashtbl.remove t.reass_table key;
            t.reass_count <- t.reass_count + 1;
            deliver t ctx whole ~proto)
  | Some _ | None -> ()

let input_fragment t ctx (msg : Message.t) (h : header) =
  ctx.Ctx.work Costs.ip_frag_ns;
  purge_stale t ctx (Engine.now (Runtime.engine t.rt));
  let key = (h.src, h.dst, h.id, h.proto) in
  let r =
    match Hashtbl.find_opt t.reass_table key with
    | Some r -> r
    | None ->
        let r =
          {
            frags = [];
            total = None;
            received = 0;
            born = Engine.now (Runtime.engine t.rt);
          }
        in
        Hashtbl.replace t.reass_table key r;
        r
  in
  let payload = Message.length msg - header_bytes in
  if List.mem_assoc h.frag_off r.frags then Mailbox.dispose ctx msg
  else begin
    r.frags <- (h.frag_off, msg) :: r.frags;
    r.received <- r.received + payload;
    if not h.more_fragments then r.total <- Some (h.frag_off + payload);
    try_complete t ctx key r ~proto:h.proto
  end

let end_of_data t ctx (msg : Message.t) ~src_cab =
  ignore src_cab;
  ctx.Ctx.work Costs.ip_input_ns;
  match read_header msg with
  | None ->
      t.hdr_drops <- t.hdr_drops + 1;
      Mailbox.dispose ctx msg
  | Some h ->
      if h.total_len > Message.length msg then begin
        t.hdr_drops <- t.hdr_drops + 1;
        Mailbox.dispose ctx msg
      end
      else begin
        (* trim datalink padding, if any *)
        Message.adjust_tail msg (Message.length msg - h.total_len);
        if h.more_fragments || h.frag_off > 0 then input_fragment t ctx msg h
        else deliver t ctx msg ~proto:h.proto
      end

let create dl ?(mtu = 65535) ?(ttl = 32) () =
  let rt = Datalink.runtime dl in
  let input =
    Runtime.create_mailbox rt ~name:"ip-input" ~port:Wire.port_ip_input
      ~byte_limit:(256 * 1024) ~cached_buffer_bytes:0 ()
  in
  let t =
    {
      dl;
      rt;
      owner = Nectar_cab.Cab.name (Runtime.cab rt);
      input;
      ip_mtu = mtu;
      default_ttl = ttl;
      addr = addr_of_cab (Runtime.node_id rt);
      bindings = Hashtbl.create 8;
      reass_table = Hashtbl.create 8;
      reass_timeout = Sim_time.ms 500;
      next_id = 1;
      in_count = 0;
      out_count = 0;
      frag_out = 0;
      reass_count = 0;
      hdr_drops = 0;
      proto_drops = 0;
      reass_drops = 0;
      route_drops_count = 0;
    }
  in
  Datalink.register dl ~proto:Wire.proto_ip
    {
      Datalink.input_mailbox = input;
      proto_header_len = header_bytes;
      start_of_data =
        Some (fun ctx -> ctx.Ctx.work Costs.ip_hdr_check_ns);
      end_of_data = (fun ctx msg ~src_cab -> end_of_data t ctx msg ~src_cab);
    };
  t

let datagrams_in t = t.in_count
let datagrams_out t = t.out_count
let fragments_out t = t.frag_out
let reassembled t = t.reass_count
let drops_header t = t.hdr_drops
let drops_no_proto t = t.proto_drops
let drops_reassembly t = t.reass_drops
let route_drops t = t.route_drops_count
