open Nectar_core
open Nectar_cab
module Router = Nectar_route.Router
module Frame = Nectar_hub.Frame

type binding = {
  input_mailbox : Mailbox.t;
  proto_header_len : int;
  start_of_data : (Ctx.t -> unit) option;
  end_of_data : Ctx.t -> Message.t -> src_cab:int -> unit;
}

type t = {
  rt : Runtime.t;
  cab : Cab.t;
  bindings : bound option array;
      (* indexed by protocol number; the proto field is a u8 on the wire,
         so 256 slots cover every decodable value and the per-frame demux
         is a single array load instead of a hash probe *)
  tx_pool : Mailbox.t;
  router : Router.t;
  dispose_ops : Message.t Frame.ops;
  dispose_sg_ops : (Message.t * Message.Slice.t list) Frame.ops;
  mutable no_buffer : int;
  mutable bad_proto : int;
  mutable bad_len : int;
  mutable crc_drops : int;
  mutable route_down_count : int;
  mutable no_route_count : int;
  mutable frames_in_count : int;
  mutable frames_out_count : int;
}

and bound = { binding : binding; dl : t }

(* The receive DMA client of every binding: the start-of-data and
   end-of-data upcalls at interrupt level.  The frame's source is the
   sending CAB the header names. *)
let client =
  {
    Rx.watched =
      (fun _ _ bd _ ->
        match bd.binding.start_of_data with
        | Some f -> f (Runtime.interrupt_ctx bd.dl.rt)
        | None -> ());
    completed =
      (fun _ (f : Frame.t) { binding = b; dl = t } msg ->
        let ctx = Runtime.interrupt_ctx t.rt in
        if Frame.crc_verdict f then b.end_of_data ctx msg ~src_cab:f.src
        else begin
          t.crc_drops <- t.crc_drops + 1;
          Mailbox.abort_put ctx b.input_mailbox msg
        end);
  }

(* Start-of-packet interrupt handler: read the datalink header in place,
   allocate buffer space in the protocol's input mailbox, program DMA. *)
let rx_frame t _ (f : Frame.t) =
  let ctx = Runtime.interrupt_ctx t.rt in
  Nectar_sim.Trace.instant ~track:(Cab.name t.cab) "dl.rx";
  ctx.work Costs.dl_rx_header_ns;
  t.frames_in_count <- t.frames_in_count + 1;
  let rx = Cab.rx t.cab in
  let hdr = Rx.read_view rx f Wire.dl_header_bytes in
  let pos = Rx.view_offset rx in
  let payload_len = Wire.dl_payload_len hdr pos in
  if payload_len <> Rx.total f - Wire.dl_header_bytes then begin
    (* Never size a receive buffer from the wire's claim alone: the DMA
       drains the whole physical frame, so a header whose length field
       disagrees with the frame would overrun the buffer.  Such frames are
       malformed (e.g. a transmitter snapshotting a recycled buffer) and
       are dropped whole, like a CRC failure. *)
    t.bad_len <- t.bad_len + 1;
    Rx.discard rx f
  end
  else
    match Array.unsafe_get t.bindings (Wire.dl_proto hdr pos) with
    (* safe: proto is a u8 and the array has 256 slots *)
    | None ->
        t.bad_proto <- t.bad_proto + 1;
        Rx.discard rx f
    | Some ({ binding = b; _ } as bd) -> (
      match Mailbox.try_begin_put ctx b.input_mailbox payload_len with
      | None ->
          t.no_buffer <- t.no_buffer + 1;
          Rx.discard rx f
      | Some msg ->
          let watch_at =
            match b.start_of_data with
            | None -> max_int
            | Some _ ->
                Wire.dl_header_bytes + Int.min b.proto_header_len payload_len
          in
          Rx.receive rx f ~dst:msg.Message.mem ~dst_pos:msg.Message.off
            ~watch_at client bd msg)

(* What a sent frame's owner does: drop the frame's buffer reference when
   the frame dies, and with [~free:true] dispose the message at
   transmit-done. *)
let release_sg (msg, tail) =
  Message.release msg;
  List.iter Message.Slice.release tail

let keep_ops = { Frame.release = Message.release; sent = ignore }
let keep_sg_ops = { Frame.release = release_sg; sent = ignore }

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
  let dispose msg = Mailbox.dispose (Runtime.interrupt_ctx rt) msg in
  let t =
    {
      rt;
      cab;
      bindings = Array.make 256 None;
      tx_pool;
      router;
      dispose_ops = { Frame.release = Message.release; sent = dispose };
      dispose_sg_ops =
        { Frame.release = release_sg; sent = (fun (msg, _) -> dispose msg) };
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
  t.bindings.(proto) <- Some { binding; dl = t }

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

let slice_extent s =
  let ereg, eoff, elen = Message.Slice.extent s in
  { Frame.ereg; eoff; elen }

let output_sg (ctx : Ctx.t) t ~dst_cab ~proto ~msg ~tail ~free =
  if dst_cab = Cab.node_id t.cab then
    invalid_arg
      (Printf.sprintf "Datalink.output: loopback not supported (%s, dst %d)"
         (Cab.name t.cab) dst_cab);
  (* Route lookup comes first, before any mutation of [msg]: a typed
     [Route_down]/[No_route] refusal must leave the caller's message view
     and refcounts exactly as they were, so retransmission machinery can
     re-send the same buffer once the routes reconverge. *)
  let route = route_to t ~dst_cab ~proto in
  (* The frame's reference on the buffer is taken before any work: the
     setup below can be preempted, and an interrupt or higher-priority
     thread (an RMP ack, the windowed give-up) may dispose [msg] while
     [output] is still running.  The reference keeps the bytes until the
     frame dies at the receiver (or on a faulted wire), whenever the
     sender disposes; [free] only moves the sender's own dispose to the
     transmit-done interrupt. *)
  Message.retain msg;
  let tid = Nectar_sim.Trace.span_begin ~track:(Cab.name t.cab) "dl.tx" in
  ctx.work Costs.dl_tx_setup_ns;
  let tail_len =
    List.fold_left (fun acc s -> acc + Message.Slice.length s) 0 tail
  in
  let payload_len = Message.length msg + tail_len in
  Message.push_head msg Wire.dl_header_bytes;
  Wire.write_dl (Message.bytes msg) ~pos:msg.Message.off ~proto ~payload_len
    ~src_cab:(Cab.node_id t.cab) ~dst_cab;
  t.frames_out_count <- t.frames_out_count + 1;
  (* Zero-copy transmit: the frame's extents point straight into the
     message's buffer (headers and payload in place, paper §5.2) plus any
     payload slices carved out of other messages. *)
  let owner =
    match tail with
    | [] ->
        Frame.Owner { value = msg; ops = (if free then t.dispose_ops else keep_ops) }
    | _ ->
        Frame.Owner
          {
            value = (msg, tail);
            ops = (if free then t.dispose_sg_ops else keep_sg_ops);
          }
  in
  Cab.send t.cab
    (Frame.outgoing ~src:(Cab.node_id t.cab) ~route
       ~header_bytes:Wire.dl_header_bytes msg.Message.mem ~off:msg.Message.off
       ~len:(Message.length msg) ~tail:(List.map slice_extent tail) owner);
  (* Restore the caller's view of the message (transport header + payload):
     the frame extent was captured above, and reliable protocols re-send the
     same message on retransmission. *)
  Message.adjust_head msg Wire.dl_header_bytes;
  Nectar_sim.Trace.span_end tid

let output (ctx : Ctx.t) t ~dst_cab ~proto ~msg ~free =
  output_sg ctx t ~dst_cab ~proto ~msg ~tail:[] ~free

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
