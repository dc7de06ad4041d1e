open Nectar_core
open Nectar_sim
module Costs = Nectar_cab.Costs
module Router = Nectar_route.Router
module Tbl = Nectar_util.Int_key.Tbl

let header_bytes = 12

let ty_data = 0
let ty_ack = 1

(* Retransmissions before a send gives up. *)
let max_retries = 8

exception Delivery_timeout of { dst_cab : int; dst_port : int }

(* A data message the windowed sender has transmitted but not yet retired;
   the sender disposes it when it is acked or abandoned. *)
type inflight = {
  if_seq : int;
  if_msg : Message.t;
  mutable if_sent_at : Sim_time.t; (* last (re)transmission time *)
  mutable if_tries : int; (* retransmissions so far *)
}

type channel = {
  busy : Resource.t; (* serialises senders *)
  mutable next_seq : int;
  mutable acked : int; (* highest acknowledged seq (acks are cumulative) *)
  ack_q : Waitq.t;
      (* window = 1: the blocked sender waits here for its ack.
         window > 1: the retransmit daemon waits here for ack progress. *)
  ch_dst_cab : int;
  ch_dst_port : int;
  (* windowed-mode state; inert when window = 1 *)
  inflight : inflight Queue.t; (* oldest (lowest seq) first *)
  window_q : Waitq.t; (* admission and [flush] wait for window space *)
  mutable daemon : bool; (* retransmit daemon started *)
  mutable failed : bool; (* latched after the retry budget is exhausted *)
}

type t = {
  dl : Datalink.t;
  rt : Runtime.t;
  input : Mailbox.t;
  rto : Sim_time.span;
  window : int;
  channels : channel Tbl.t; (* Int_key.cab_port (dst_cab, dst_port) *)
  expected : int Tbl.t;
      (* Int_key.cab_port (src_cab, dst_port) -> next expected seq *)
  stash : Message.t Tbl.t Tbl.t;
      (* windowed receiver: out-of-order frames held until the gap fills,
         keyed like [expected], inner table seq -> message *)
  mutable delivered_count : int;
  mutable dup_count : int;
  mutable retx_count : int;
  mutable failed_count : int; (* messages abandoned by the windowed sender *)
}

(* Header: type u8 | flags u8 | dst_port u16 | src_port u16 | pad u16 |
   seq u32 *)

let write_header (msg : Message.t) ~ty ~dst_port ~seq =
  Message.set_u8 msg 0 ty;
  Message.set_u8 msg 1 0;
  Message.set_u16 msg 2 dst_port;
  Message.set_u16 msg 4 0;
  Message.set_u16 msg 6 0;
  Message.set_u32 msg 8 seq

let channel t ~dst_cab ~dst_port =
  let key = Nectar_util.Int_key.cab_port ~cab:dst_cab ~port:dst_port in
  match Tbl.find_opt t.channels key with
  | Some c -> c
  | None ->
      let eng = Runtime.engine t.rt in
      let c =
        {
          busy = Resource.create eng ();
          next_seq = 1;
          acked = 0;
          ack_q = Waitq.create eng;
          ch_dst_cab = dst_cab;
          ch_dst_port = dst_port;
          inflight = Queue.create ();
          window_q = Waitq.create eng;
          daemon = false;
          failed = false;
        }
      in
      Tbl.replace t.channels key c;
      c

let send_ack t ctx ~dst_cab ~dst_port ~seq =
  match Datalink.alloc_frame ctx t.dl header_bytes with
  | None -> () (* no transmit space: the sender will retransmit *)
  | Some ack -> (
      write_header ack ~ty:ty_ack ~dst_port ~seq;
      try
        Datalink.output ctx t.dl ~dst_cab ~proto:Wire.proto_rmp ~msg:ack
          ~free:true
      with Router.Route_down _ | Router.No_route _ ->
        (* no live return path: drop the ack, the sender retransmits *)
        Mailbox.dispose ctx ack)

(* {2 Windowed sender} *)

(* A [Route_down] refusal (before the wire) is left to the retransmit
   daemon, which retries after the next RTO, by when routes may have
   reconverged.  [No_route] is raised: see [windowed_send]. *)
let transmit t ctx c entry =
  entry.if_sent_at <- Engine.now (Runtime.engine t.rt);
  try
    Datalink.output ctx t.dl ~dst_cab:c.ch_dst_cab ~proto:Wire.proto_rmp
      ~msg:entry.if_msg ~free:false
  with Router.Route_down _ -> ()

(* End an entry's exchange unacknowledged: a latched channel gives up on
   the message. *)
let abandon t ctx e =
  t.failed_count <- t.failed_count + 1;
  Mailbox.dispose ctx e.if_msg

(* Retransmit daemon: one system thread per windowed channel.  Only the
   head of the window is retransmitted — cumulative acks mean a head
   retransmission is exactly what fills the receiver's gap (the receiver
   stashes the later frames it already has). *)
let daemon_body t c (dctx : Ctx.t) =
  let eng = Runtime.engine t.rt in
  while true do
    match Queue.peek_opt c.inflight with
    | None -> Waitq.wait c.ack_q
    | Some e ->
        let deadline = e.if_sent_at + t.rto in
        let now = Engine.now eng in
        if now < deadline then
          (* Signaled (ack progress: head may have been retired) or timed
             out (head due for retransmission): either way, re-examine. *)
          ignore (Waitq.wait_timeout c.ack_q (deadline - now))
        else if e.if_tries >= max_retries then begin
          (* Retry budget exhausted: latch the channel as failed and
             abandon the whole window; [send]/[flush] surface it. *)
          c.failed <- true;
          Queue.iter (abandon t dctx) c.inflight;
          Queue.clear c.inflight;
          ignore (Waitq.broadcast c.window_q)
        end
        else begin
          e.if_tries <- e.if_tries + 1;
          t.retx_count <- t.retx_count + 1;
          Nectar_sim.Trace.instant
            ~track:(Nectar_cab.Cab.name (Runtime.cab t.rt))
            "rmp.retx";
          transmit t dctx c e
        end
  done

let ensure_daemon t c =
  if not c.daemon then begin
    c.daemon <- true;
    ignore
      (Thread.create (Runtime.cab t.rt) ~priority:Thread.System
         ~name:(Printf.sprintf "rmp-retx-%d-%d" c.ch_dst_cab c.ch_dst_port)
         (daemon_body t c))
  end

(* {2 Receiver} *)

let deliver t ctx (msg : Message.t) ~dst_port =
  Message.adjust_head msg header_bytes;
  match Runtime.mailbox_at t.rt ~port:dst_port with
  | Some mbox ->
      t.delivered_count <- t.delivered_count + 1;
      Nectar_sim.Trace.instant
        ~track:(Nectar_cab.Cab.name (Runtime.cab t.rt))
        "rmp.deliver";
      Mailbox.enqueue ctx msg mbox
  | None -> Mailbox.dispose ctx msg

(* Cumulative ack for a windowed receive channel: the highest in-order
   sequence number delivered so far. *)
let send_cum_ack t ctx ~src_cab ~dst_port key =
  let cum_seq = Option.value (Tbl.find_opt t.expected key) ~default:1 - 1 in
  send_ack t ctx ~dst_cab:src_cab ~dst_port ~seq:cum_seq

let stash_for t key =
  match Tbl.find_opt t.stash key with
  | Some s -> s
  | None ->
      let s = Tbl.create 8 in
      Tbl.replace t.stash key s;
      s

(* Windowed data path: in-order frames are delivered immediately and drain
   any stashed successors; out-of-order frames are stashed (bounded) so a
   single head retransmission repairs a loss without resending the rest of
   the window. *)
let windowed_data t ctx (msg : Message.t) ~src_cab ~dst_port ~seq key =
  let expected = Option.value (Tbl.find_opt t.expected key) ~default:1 in
  if seq < expected then begin
    t.dup_count <- t.dup_count + 1;
    send_cum_ack t ctx ~src_cab ~dst_port key;
    Mailbox.dispose ctx msg
  end
  else if seq = expected then begin
    deliver t ctx msg ~dst_port;
    let next = ref (seq + 1) in
    let s = stash_for t key in
    let continue_drain = ref (Tbl.length s > 0) in
    while !continue_drain do
      match Tbl.find_opt s !next with
      | Some stashed ->
          Tbl.remove s !next;
          deliver t ctx stashed ~dst_port;
          incr next
      | None -> continue_drain := false
    done;
    Tbl.replace t.expected key !next;
    send_cum_ack t ctx ~src_cab ~dst_port key
  end
  else begin
    (* gap: the frame for [expected] was lost or reordered *)
    let s = stash_for t key in
    if Tbl.mem s seq then begin
      t.dup_count <- t.dup_count + 1;
      Mailbox.dispose ctx msg
    end
    else if Tbl.length s >= 2 * t.window then
      (* stash full (sender far ahead): drop without acknowledging; the
         sender's retransmissions will resupply *)
      Mailbox.dispose ctx msg
    else Tbl.replace s seq msg;
    (* re-ack the cumulative front so a lost ack cannot stall the sender *)
    send_cum_ack t ctx ~src_cab ~dst_port key
  end

(* Interrupt-level input processing for both DATA and ACK frames. *)
let end_of_data t ctx (msg : Message.t) ~src_cab =
  ctx.Ctx.work Costs.rmp_ns;
  if Message.length msg < header_bytes then Mailbox.dispose ctx msg
  else begin
    let ty = Message.get_u8 msg 0 in
    let dst_port = Message.get_u16 msg 2 in
    let seq = Message.get_u32 msg 8 in
    if ty = ty_ack then begin
      let c = channel t ~dst_cab:src_cab ~dst_port in
      if seq > c.acked then begin
        c.acked <- seq;
        (* retire acknowledged window entries (empty when window = 1: the
           blocked sender disposes its own buffer) *)
        let continue_retire = ref (not (Queue.is_empty c.inflight)) in
        while !continue_retire do
          match Queue.peek_opt c.inflight with
          | Some e when e.if_seq <= c.acked ->
              ignore (Queue.pop c.inflight);
              Mailbox.dispose ctx e.if_msg;
              ignore (Waitq.broadcast c.window_q)
          | _ -> continue_retire := false
        done;
        (* An ack that advances the window restarts the retransmit clock
           for the newly exposed head.  Its own [if_sent_at] was stamped
           when it was handed to the datalink, which at deep windows
           predates its actual wire slot by many frame times — judged
           against that stamp, a clean pipeline looks timed out. *)
        (match Queue.peek_opt c.inflight with
        | Some e -> e.if_sent_at <- Engine.now (Runtime.engine t.rt)
        | None -> ());
        ignore (Waitq.broadcast c.ack_q)
      end;
      Mailbox.dispose ctx msg
    end
    else if t.window = 1 then begin
      let key = Nectar_util.Int_key.cab_port ~cab:src_cab ~port:dst_port in
      let expected =
        Option.value (Tbl.find_opt t.expected key) ~default:1
      in
      if seq < expected then begin
        (* duplicate from a retransmission: re-ack, drop *)
        t.dup_count <- t.dup_count + 1;
        send_ack t ctx ~dst_cab:src_cab ~dst_port ~seq;
        Mailbox.dispose ctx msg
      end
      else begin
        Tbl.replace t.expected key (seq + 1);
        send_ack t ctx ~dst_cab:src_cab ~dst_port ~seq;
        Message.adjust_head msg header_bytes;
        match Runtime.mailbox_at t.rt ~port:dst_port with
        | Some mbox ->
            t.delivered_count <- t.delivered_count + 1;
            Mailbox.enqueue ctx msg mbox
        | None -> Mailbox.dispose ctx msg
      end
    end
    else
      let key = Nectar_util.Int_key.cab_port ~cab:src_cab ~port:dst_port in
      windowed_data t ctx msg ~src_cab ~dst_port ~seq key
  end

let create dl ?(rto = Sim_time.ms 5) ?(window = 1) () =
  if window < 1 then invalid_arg "Rmp.create: window must be >= 1";
  let rt = Datalink.runtime dl in
  let input =
    (* a windowed receiver may hold a stash of out-of-order frames on top
       of the frames in flight, so scale the input pool with the window *)
    Runtime.create_mailbox rt ~name:"rmp-input"
      ~byte_limit:(128 * 1024 * min window 16)
      ~cached_buffer_bytes:0 ()
  in
  let t =
    {
      dl;
      rt;
      input;
      rto;
      window;
      channels = Tbl.create 8;
      expected = Tbl.create 8;
      stash = Tbl.create 8;
      delivered_count = 0;
      dup_count = 0;
      retx_count = 0;
      failed_count = 0;
    }
  in
  Datalink.register dl ~proto:Wire.proto_rmp
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

(* Stop-and-wait send (window = 1): blocks until the ack, exactly the
   paper's protocol.  The buffer is disposed once, when the exchange ends. *)
let stop_and_wait_send (ctx : Ctx.t) t ~dst_cab ~dst_port msg =
  let c = channel t ~dst_cab ~dst_port in
  Resource.with_held c.busy (fun () ->
      ctx.work Costs.rmp_ns;
      let seq = c.next_seq in
      c.next_seq <- seq + 1;
      Message.push_head msg header_bytes;
      write_header msg ~ty:ty_data ~dst_port ~seq;
      let rec attempt tries =
        if tries > max_retries then begin
          Mailbox.dispose ctx msg;
          raise (Delivery_timeout { dst_cab; dst_port })
        end;
        (* [Datalink.output] restores the message to this view after queueing
           the frame, so a retransmission simply sends the same message. *)
        if tries > 0 then begin
          t.retx_count <- t.retx_count + 1;
          Nectar_sim.Trace.instant
            ~track:(Nectar_cab.Cab.name (Runtime.cab t.rt))
            "rmp.retx"
        end;
        (try
           Datalink.output ctx t.dl ~dst_cab ~proto:Wire.proto_rmp ~msg
             ~free:false
         with
        | Router.Route_down _ ->
            (* refused before the wire (blackout window): wait out the RTO
               exactly like a frame lost on the wire, then retry — by then
               the routes may have reconverged onto an alternate path *)
            ()
        | Router.No_route _ as e ->
            (* statically partitioned: no amount of retrying helps;
               surface the typed error with the buffer reclaimed *)
            Mailbox.dispose ctx msg;
            raise e);
        let rec await () =
          if c.acked >= seq then ()
          else
            match Waitq.wait_timeout c.ack_q t.rto with
            | `Signaled -> await ()
            | `Timeout -> attempt (tries + 1)
        in
        await ()
      in
      attempt 0;
      Mailbox.dispose ctx msg)

(* Windowed send: blocks only for window admission; the ack, retransmission
   and buffer disposal are handled asynchronously (ack handler + daemon). *)
let windowed_send (ctx : Ctx.t) t ~dst_cab ~dst_port msg =
  let c = channel t ~dst_cab ~dst_port in
  Resource.with_held c.busy (fun () ->
      if not c.failed then begin
        ctx.work Costs.rmp_ns;
        while Queue.length c.inflight >= t.window && not c.failed do
          Waitq.wait c.window_q
        done
      end;
      if c.failed then begin
        (* a latched failure ends this message's exchange before it starts *)
        Mailbox.dispose ctx msg;
        raise (Delivery_timeout { dst_cab; dst_port })
      end;
      let seq = c.next_seq in
      Message.push_head msg header_bytes;
      write_header msg ~ty:ty_data ~dst_port ~seq;
      let entry = { if_seq = seq; if_msg = msg; if_sent_at = 0; if_tries = 0 } in
      (* The entry joins the window only once transmitted: a [No_route]
         refusal (statically partitioned, as at window 1: no retry helps)
         then leaves nothing to undo, and [seq] is not consumed, so the
         receiver's in-order stash never waits on a seq that never went
         out. *)
      (try transmit t ctx c entry
       with Router.No_route _ as e ->
         Mailbox.dispose ctx msg;
         raise e);
      c.next_seq <- seq + 1;
      (* the daemon may have latched the channel while [transmit] ran *)
      if c.failed then abandon t ctx entry
      else begin
        Queue.add entry c.inflight;
        ensure_daemon t c;
        (* wake the daemon so its retransmit deadline covers the new head *)
        ignore (Waitq.broadcast c.ack_q)
      end)

let send (ctx : Ctx.t) t ~dst_cab ~dst_port msg =
  Ctx.assert_may_block ctx "Rmp.send";
  let tid =
    Nectar_sim.Trace.span_begin
      ~track:(Nectar_cab.Cab.name (Runtime.cab t.rt))
      "rmp.send"
  in
  Fun.protect
    ~finally:(fun () -> Nectar_sim.Trace.span_end tid)
    (fun () ->
      if t.window = 1 then stop_and_wait_send ctx t ~dst_cab ~dst_port msg
      else windowed_send ctx t ~dst_cab ~dst_port msg)

let flush (ctx : Ctx.t) t ~dst_cab ~dst_port =
  Ctx.assert_may_block ctx "Rmp.flush";
  if t.window > 1 then begin
    let c = channel t ~dst_cab ~dst_port in
    while not (Queue.is_empty c.inflight || c.failed) do
      Waitq.wait c.window_q
    done;
    if c.failed then raise (Delivery_timeout { dst_cab; dst_port })
  end

let send_string ctx t ~dst_cab ~dst_port s =
  let msg = alloc ctx t (String.length s) in
  (* the string API's one unavoidable copy: application data entering the
     mailbox buffer.  Everything below here is zero-copy *)
  Nectar_util.Copy_meter.record
    ~owner:(Nectar_cab.Cab.name (Runtime.cab t.rt))
    Nectar_util.Copy_meter.App (String.length s);
  Message.write_string msg 0 s;
  send ctx t ~dst_cab ~dst_port msg

let window t = t.window
let rto t = t.rto
let delivered t = t.delivered_count
let duplicates t = t.dup_count
let retransmits t = t.retx_count
let failed_sends t = t.failed_count

let register_metrics t reg ~prefix =
  let c name read = Nectar_util.Metrics.counter reg (prefix ^ name) read in
  c "rmp.delivered" (fun () -> delivered t);
  c "rmp.duplicates" (fun () -> duplicates t);
  c "rmp.retransmits" (fun () -> retransmits t);
  c "rmp.failed_sends" (fun () -> failed_sends t)
