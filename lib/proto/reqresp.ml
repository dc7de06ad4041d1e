open Nectar_core
open Nectar_sim
module Costs = Nectar_cab.Costs
module Router = Nectar_route.Router

let header_bytes = 12

let ty_request = 0
let ty_response = 1

exception Call_timeout of { dst_cab : int; dst_port : int }

type pending = { resp_q : Waitq.t; mutable response : string option }

type server = {
  mode : server_mode;
  handler : Ctx.t -> string -> string;
  (* at-most-once duplicate cache, keyed by
     [Int_key.cab_txn (client_cab, txn)] *)
  replies : (int, string) Hashtbl.t;
  reply_order : int Queue.t;
  (* requests whose handler is still running: retransmitted duplicates are
     dropped, not re-executed *)
  in_flight : (int, unit) Hashtbl.t;
}

and server_mode = Thread_server | Upcall_server

type t = {
  dl : Datalink.t;
  rt : Runtime.t;
  owner : string;  (* CAB name, labels this node's copy-meter records *)
  input : Mailbox.t;
  rto : Sim_time.span;
  max_retries : int;
  mutable next_txn : int;
  pending_calls : (int, pending) Hashtbl.t;
  servers : (int, server) Hashtbl.t;
  server_work : Mailbox.t; (* thread-mode request queue *)
  mutable server_thread : Thread.t option;
  mutable completed : int;
  mutable served : int;
  mutable dups : int;
}

(* Header: type u8 | flags u8 | dst_port u16 | txn u32 | payload_len u16 |
   pad u16 *)

let write_header (msg : Message.t) ~ty ~dst_port ~txn =
  Message.set_u8 msg 0 ty;
  Message.set_u8 msg 1 0;
  Message.set_u16 msg 2 dst_port;
  Message.set_u32 msg 4 txn;
  Message.set_u16 msg 8 (Message.length msg - header_bytes);
  Message.set_u16 msg 10 0

let reply_cache_cap = 128

let cache_reply server ~client_cab ~txn response =
  if Hashtbl.length server.replies >= reply_cache_cap then begin
    match Queue.take_opt server.reply_order with
    | Some oldest -> Hashtbl.remove server.replies oldest
    | None -> ()
  end;
  let key = Nectar_util.Int_key.cab_txn ~cab:client_cab ~txn in
  Hashtbl.replace server.replies key response;
  Queue.add key server.reply_order

let send_response t ctx ~dst_cab ~dst_port ~txn response =
  match
    Datalink.alloc_frame ctx t.dl (header_bytes + String.length response)
  with
  | None -> () (* client will retransmit the request *)
  | Some msg -> (
      Nectar_util.Copy_meter.record ~owner:t.owner Nectar_util.Copy_meter.App
        (String.length response);
      Message.write_string msg header_bytes response;
      write_header msg ~ty:ty_response ~dst_port ~txn;
      try
        Datalink.output ctx t.dl ~dst_cab ~proto:Wire.proto_reqresp ~msg
          ~on_done:Mailbox.dispose
      with Router.Route_down _ | Router.No_route _ ->
        (* no live return path: drop the response — the reply cache
           answers the client's retransmitted request after recovery *)
        Mailbox.dispose ctx msg)

let run_handler t ctx server ~client_cab ~dst_port ~txn request =
  Nectar_sim.Trace.instant ~track:t.owner "rpc.serve";
  ctx.Ctx.work Costs.reqresp_ns;
  let key = Nectar_util.Int_key.cab_txn ~cab:client_cab ~txn in
  match Hashtbl.find_opt server.replies key with
  | Some cached ->
      t.dups <- t.dups + 1;
      send_response t ctx ~dst_cab:client_cab ~dst_port ~txn cached
  | None ->
      if Hashtbl.mem server.in_flight key then
        (* a retransmission of a request still executing: at-most-once *)
        t.dups <- t.dups + 1
      else begin
        Hashtbl.replace server.in_flight key ();
        let response = server.handler ctx request in
        Hashtbl.remove server.in_flight key;
        t.served <- t.served + 1;
        cache_reply server ~client_cab ~txn response;
        send_response t ctx ~dst_cab:client_cab ~dst_port ~txn response
      end

(* Thread-mode requests are parked in [server_work] as
   [port u16 | txn u32 | client u16 | payload...] and served by a single
   system thread. *)
let server_thread_body t (ctx : Ctx.t) =
  while true do
    let m = Mailbox.begin_get ctx t.server_work in
    let dst_port = Message.get_u16 m 0 in
    let txn = Message.get_u32 m 2 in
    let client_cab = Message.get_u16 m 6 in
    Nectar_util.Copy_meter.record ~owner:t.owner Nectar_util.Copy_meter.App
      (Message.length m - 8);
    let request = Message.read_string m ~pos:8 ~len:(Message.length m - 8) in
    Mailbox.end_get ctx m;
    match Hashtbl.find_opt t.servers dst_port with
    | Some server -> run_handler t ctx server ~client_cab ~dst_port ~txn request
    | None -> ()
  done

let end_of_data t ctx (msg : Message.t) ~src_cab =
  ctx.Ctx.work Costs.reqresp_ns;
  if Message.length msg < header_bytes then Mailbox.dispose ctx msg
  else begin
    let ty = Message.get_u8 msg 0 in
    let dst_port = Message.get_u16 msg 2 in
    let txn = Message.get_u32 msg 4 in
    if ty = ty_response then begin
      (match Hashtbl.find_opt t.pending_calls txn with
      | Some p when p.response = None ->
          Nectar_util.Copy_meter.record ~owner:t.owner
            Nectar_util.Copy_meter.App
            (Message.length msg - header_bytes);
          p.response <-
            Some
              (Message.read_string msg ~pos:header_bytes
                 ~len:(Message.length msg - header_bytes));
          ignore (Waitq.broadcast p.resp_q)
      | Some _ | None -> () (* duplicate or stale response *));
      Mailbox.dispose ctx msg
    end
    else begin
      match Hashtbl.find_opt t.servers dst_port with
      | None -> Mailbox.dispose ctx msg
      | Some server -> (
          match server.mode with
          | Upcall_server ->
              Nectar_util.Copy_meter.record ~owner:t.owner
                Nectar_util.Copy_meter.App
                (Message.length msg - header_bytes);
              let request =
                Message.read_string msg ~pos:header_bytes
                  ~len:(Message.length msg - header_bytes)
              in
              Mailbox.dispose ctx msg;
              run_handler t ctx server ~client_cab:src_cab ~dst_port ~txn
                request
          | Thread_server -> (
              let n = Message.length msg - header_bytes in
              match Mailbox.try_begin_put ctx t.server_work (8 + n) with
              | None -> Mailbox.dispose ctx msg (* overload: drop *)
              | Some work ->
                  Message.set_u16 work 0 dst_port;
                  Message.set_u32 work 2 txn;
                  Message.set_u16 work 6 src_cab;
                  (* The hand-off to the server thread re-packages the
                     request into the work queue's format; the receive
                     buffer cannot be enqueued in place without changing
                     the mailbox charge sequence the Table 1 RPC row is
                     calibrated against, so this copy stays — metered, so
                     the accounting shows exactly what the thread-mode
                     server costs over the upcall path. *)
                  Nectar_util.Copy_meter.record ~owner:t.owner
                    Nectar_util.Copy_meter.Frag n;
                  Message.blit_from work ~dst_pos:8 ~src:(Message.bytes msg)
                    ~src_pos:(msg.Message.off + header_bytes) ~len:n;
                  Mailbox.dispose ctx msg;
                  Mailbox.end_put ctx t.server_work work))
    end
  end

let create dl ?(rto = Sim_time.ms 5) ?(max_retries = 8) () =
  let rt = Datalink.runtime dl in
  let input =
    Runtime.create_mailbox rt ~name:"reqresp-input" ~byte_limit:(128 * 1024)
      ~cached_buffer_bytes:0 ()
  in
  let server_work =
    Runtime.create_mailbox rt ~name:"reqresp-server-work"
      ~byte_limit:(64 * 1024) ~cached_buffer_bytes:128 ()
  in
  let t =
    {
      dl;
      rt;
      owner = Nectar_cab.Cab.name (Runtime.cab rt);
      input;
      rto;
      max_retries;
      next_txn = 1;
      pending_calls = Hashtbl.create 16;
      servers = Hashtbl.create 8;
      server_work;
      server_thread = None;
      completed = 0;
      served = 0;
      dups = 0;
    }
  in
  Datalink.register dl ~proto:Wire.proto_reqresp
    {
      Datalink.input_mailbox = input;
      proto_header_len = header_bytes;
      start_of_data = None;
      end_of_data = (fun ctx msg ~src_cab -> end_of_data t ctx msg ~src_cab);
    };
  t

let register_server t ~port ~mode handler =
  if Hashtbl.mem t.servers port then
    invalid_arg "Reqresp.register_server: port already served";
  Hashtbl.replace t.servers port
    {
      mode;
      handler;
      replies = Hashtbl.create 64;
      reply_order = Queue.create ();
      in_flight = Hashtbl.create 8;
    };
  if mode = Thread_server && t.server_thread = None then
    t.server_thread <-
      Some
        (Thread.create (Runtime.cab t.rt) ~priority:Thread.System
           ~name:"reqresp-server" (server_thread_body t))

let call (ctx : Ctx.t) t ~dst_cab ~dst_port request =
  Ctx.assert_may_block ctx "Reqresp.call";
  let trace_id = Nectar_sim.Trace.span_begin ~track:t.owner "rpc.call" in
  ctx.work Costs.reqresp_ns;
  let txn = t.next_txn in
  t.next_txn <- txn + 1;
  let p =
    {
      resp_q = Waitq.create (Runtime.engine t.rt) ~name:"reqresp-call" ();
      response = None;
    }
  in
  Hashtbl.replace t.pending_calls txn p;
  let msg =
    Datalink.alloc_frame_blocking ctx t.dl
      (header_bytes + String.length request)
  in
  Nectar_util.Copy_meter.record ~owner:t.owner Nectar_util.Copy_meter.App
    (String.length request);
  Message.write_string msg header_bytes request;
  write_header msg ~ty:ty_request ~dst_port ~txn;
  (* As in [Rmp.send], the request buffer must outlive every queued copy of
     the frame: the tx DMA snapshots the bytes only when the transmit queue
     drains down to the frame, so disposing at response time while a
     retransmission is still queued would put recycled memory on the wire. *)
  let queued = ref 0 and caller_done = ref false in
  let release ctx = if !caller_done && !queued = 0 then Mailbox.dispose ctx msg in
  let finish () =
    Hashtbl.remove t.pending_calls txn;
    caller_done := true;
    release ctx
  in
  let rec attempt tries =
    if tries > t.max_retries then begin
      finish ();
      Nectar_sim.Trace.span_end trace_id;
      raise (Call_timeout { dst_cab; dst_port })
    end;
    if tries > 0 then Nectar_sim.Trace.instant ~track:t.owner "rpc.retx";
    incr queued;
    (try
       Datalink.output ctx t.dl ~dst_cab ~proto:Wire.proto_reqresp ~msg
         ~on_done:(fun ctx _ ->
           decr queued;
           release ctx)
     with
    | Router.Route_down _ ->
        (* blackout window: treat like a lost request, retry after RTO *)
        decr queued
    | Router.No_route _ as e ->
        decr queued;
        finish ();
        Nectar_sim.Trace.span_end trace_id;
        raise e);
    let rec await () =
      match p.response with
      | Some r -> r
      | None -> (
          match Waitq.wait_timeout p.resp_q t.rto with
          | `Signaled -> await ()
          | `Timeout -> attempt (tries + 1))
    in
    await ()
  in
  let response = attempt 0 in
  finish ();
  t.completed <- t.completed + 1;
  Nectar_sim.Trace.span_end trace_id;
  response

let calls_completed t = t.completed
let requests_served t = t.served
let duplicate_requests t = t.dups

let register_metrics t reg ~prefix =
  let c name read = Nectar_util.Metrics.counter reg (prefix ^ name) read in
  c "rpc.calls_completed" (fun () -> calls_completed t);
  c "rpc.requests_served" (fun () -> requests_served t);
  c "rpc.duplicate_requests" (fun () -> duplicate_requests t)
