open Nectar_core
open Nectar_cab
module Router = Nectar_route.Router

type binding = {
  input_mailbox : Mailbox.t;
  proto_header_len : int;
  start_of_data : (Ctx.t -> unit) option;
  end_of_data : Ctx.t -> Message.t -> src_cab:int -> unit;
}

type t = {
  rt : Runtime.t;
  cab : Cab.t;
  bindings : binding option array;
      (* indexed by protocol number; the proto field is a u8 on the wire,
         so 256 slots cover every decodable value and the per-frame demux
         is a single array load instead of a hash probe *)
  tx_pool : Mailbox.t;
  router : Router.t;
  mutable no_buffer : int;
  mutable bad_proto : int;
  mutable bad_len : int;
  mutable crc_drops : int;
  mutable route_down_count : int;
  mutable no_route_count : int;
  mutable frames_in_count : int;
  mutable frames_out_count : int;
}

(* Start-of-packet interrupt handler: read and parse the datalink header,
   allocate buffer space in the protocol's input mailbox, program DMA. *)
let rx_frame t ictx pending =
  let ctx = Ctx.of_interrupt ictx in
  Nectar_sim.Trace.instant ~track:(Cab.name t.cab) "dl.rx";
  ctx.work Costs.dl_rx_header_ns;
  t.frames_in_count <- t.frames_in_count + 1;
  let rx = Cab.rx t.cab in
  let hdr_bytes, hdr_pos = Rx.read_view rx pending Wire.dl_header_bytes in
  let hdr = Wire.decode_dl hdr_bytes ~pos:hdr_pos in
  if hdr.Wire.payload_len <> Rx.total pending - Wire.dl_header_bytes then begin
    (* Never size a receive buffer from the wire's claim alone: the DMA
       drains the whole physical frame, so a header whose length field
       disagrees with the frame would overrun the buffer.  Such frames are
       malformed (e.g. a transmitter snapshotting a recycled buffer) and
       are dropped whole, like a CRC failure. *)
    t.bad_len <- t.bad_len + 1;
    Rx.discard rx pending
  end
  else
    match Array.unsafe_get t.bindings hdr.Wire.proto with
    (* safe: proto is a u8 and the array has 256 slots *)
    | None ->
        t.bad_proto <- t.bad_proto + 1;
        Rx.discard rx pending
    | Some b -> (
      match Mailbox.try_begin_put ctx b.input_mailbox hdr.Wire.payload_len with
      | None ->
          t.no_buffer <- t.no_buffer + 1;
          Rx.discard rx pending
      | Some msg ->
          let watch =
            match b.start_of_data with
            | None -> []
            | Some f ->
                let proto_hdr =
                  min b.proto_header_len hdr.Wire.payload_len
                in
                [
                  ( Wire.dl_header_bytes + proto_hdr,
                    fun ictx -> f (Ctx.of_interrupt ictx) );
                ]
          in
          Rx.dma_to_memory rx pending ~dst:msg.Message.mem
            ~dst_pos:msg.Message.off ~watch
            ~on_complete:(fun ictx ~crc_ok ->
              let ctx = Ctx.of_interrupt ictx in
              if crc_ok then b.end_of_data ctx msg ~src_cab:hdr.Wire.src_cab
              else begin
                t.crc_drops <- t.crc_drops + 1;
                Mailbox.abort_put ctx b.input_mailbox msg
              end)
            ())

let create ?router rt =
  let cab = Runtime.cab rt in
  let router =
    match router with
    | Some r -> r
    | None -> Router.create (Cab.network cab)
  in
  let tx_pool =
    Runtime.create_mailbox rt
      ~name:(Cab.name cab ^ ".dl-tx-pool")
      ~byte_limit:(256 * 1024) ~cached_buffer_bytes:0 ()
  in
  let t =
    {
      rt;
      cab;
      bindings = Array.make 256 None;
      tx_pool;
      router;
      no_buffer = 0;
      bad_proto = 0;
      bad_len = 0;
      crc_drops = 0;
      route_down_count = 0;
      no_route_count = 0;
      frames_in_count = 0;
      frames_out_count = 0;
    }
  in
  Rx.set_frame_handler (Cab.rx cab) (rx_frame t);
  t

let runtime t = t.rt
let router t = t.router

let register t ~proto binding =
  if proto < 0 || proto > 255 then
    invalid_arg "Datalink.register: protocol number must fit in a u8";
  if Option.is_some t.bindings.(proto) then
    invalid_arg "Datalink.register: protocol already bound";
  t.bindings.(proto) <- Some binding

(* Consult the live route database for this flow.  Typed refusals are
   counted here (per CAB) as well as in the router (per database): a
   refused send never reaches the wire, so conservation accounting treats
   it like a local drop absorbed by retransmission. *)
let route_to t ~dst_cab ~proto =
  try Router.lookup t.router ~src:(Cab.node_id t.cab) ~dst:dst_cab ~proto
  with
  | Router.Route_down _ as e ->
      t.route_down_count <- t.route_down_count + 1;
      raise e
  | Router.No_route _ as e ->
      t.no_route_count <- t.no_route_count + 1;
      raise e

let alloc_frame ctx t n =
  (* headroom reserved at allocation: [output] prepends the datalink header
     into the same buffer with [Message.push_head] — never a fresh message *)
  Mailbox.try_begin_put ctx t.tx_pool ~headroom:Wire.dl_header_bytes n

exception No_buffer

let alloc_frame_blocking (ctx : Ctx.t) t n =
  if ctx.may_block then
    Mailbox.begin_put ctx t.tx_pool ~headroom:Wire.dl_header_bytes n
  else match alloc_frame ctx t n with Some msg -> msg | None -> raise No_buffer

let output_sg (ctx : Ctx.t) t ~dst_cab ~proto ~msg ~tail ~on_done =
  if dst_cab = Cab.node_id t.cab then
    invalid_arg
      (Printf.sprintf "Datalink.output: loopback not supported (%s, dst %d)"
         (Cab.name t.cab) dst_cab);
  (* Route lookup comes first, before any mutation of [msg]: a typed
     [Route_down]/[No_route] refusal must leave the caller's message view
     and refcounts exactly as they were, so retransmission machinery can
     re-send the same buffer once the routes reconverge. *)
  let route = route_to t ~dst_cab ~proto in
  let tid = Nectar_sim.Trace.span_begin ~track:(Cab.name t.cab) "dl.tx" in
  ctx.work Costs.dl_tx_setup_ns;
  let tail_len =
    List.fold_left (fun acc s -> acc + Message.Slice.length s) 0 tail
  in
  let payload_len = Message.length msg + tail_len in
  Message.push_head msg Wire.dl_header_bytes;
  let header =
    {
      Wire.proto;
      flags = 0;
      payload_len;
      src_cab = Cab.node_id t.cab;
      dst_cab;
    }
  in
  Wire.encode_dl (Message.bytes msg) ~pos:msg.Message.off header;
  t.frames_out_count <- t.frames_out_count + 1;
  (* Zero-copy transmit: the frame's extents point straight into the
     message's buffer (headers and payload in place, paper §5.2) plus any
     payload slices carved out of other messages.  The head buffer is
     pinned with a reference for the frame's lifetime — [on_done] only
     means the transmit descriptor completed; the physical bytes stay until
     the frame dies at the receiver (or on a faulted wire). *)
  Message.retain msg;
  let extents =
    (msg.Message.mem, msg.Message.off, Message.length msg)
    :: List.map Message.Slice.extent tail
  in
  Cab.send_frame t.cab ~route ~header_bytes:Wire.dl_header_bytes
    ~release:(fun () ->
      Message.release msg;
      List.iter Message.Slice.release tail)
    ~extents
    ~on_done:(fun ictx -> on_done (Ctx.of_interrupt ictx) msg) ();
  (* Restore the caller's view of the message (transport header + payload):
     the frame extent was captured above, and reliable protocols re-send the
     same message on retransmission. *)
  Message.adjust_head msg Wire.dl_header_bytes;
  Nectar_sim.Trace.span_end tid

let output (ctx : Ctx.t) t ~dst_cab ~proto ~msg ~on_done =
  output_sg ctx t ~dst_cab ~proto ~msg ~tail:[] ~on_done

let drops_no_buffer t = t.no_buffer
let drops_bad_proto t = t.bad_proto
let drops_bad_len t = t.bad_len
let drops_crc t = t.crc_drops
let drops_route_down t = t.route_down_count
let drops_no_route t = t.no_route_count
let frames_in t = t.frames_in_count
let frames_out t = t.frames_out_count

let register_metrics t reg ~prefix =
  let c name read = Nectar_util.Metrics.counter reg (prefix ^ name) read in
  c "dl.frames_in" (fun () -> frames_in t);
  c "dl.frames_out" (fun () -> frames_out t);
  c "dl.drops_bad_len" (fun () -> drops_bad_len t);
  c "dl.drops_bad_proto" (fun () -> drops_bad_proto t);
  c "dl.drops_no_buffer" (fun () -> drops_no_buffer t);
  c "dl.drops_crc" (fun () -> drops_crc t);
  c "dl.drops_route_down" (fun () -> drops_route_down t);
  c "dl.drops_no_route" (fun () -> drops_no_route t)
