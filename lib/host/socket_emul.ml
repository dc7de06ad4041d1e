open Nectar_sim
open Nectar_core
open Nectar_proto

exception Socket_error of string

(* Control requests to the CAB socket server:
   [op u8 | pad u8 | port u16 | addr u32]  with op codes below; the reply
   (via the response mailbox) is a connection id, or -1 for failure. *)
let op_connect = 1
let op_listen = 2
let op_close = 3

type state =
  | Fresh
  | Listening of int (* port; accepted conn ids arrive in accept_mb *)
  | Connected of Tcp.conn
  | Closed

type t = {
  drv : Cab_driver.t;
  stack : Stack.t;
  ctl_h : Hostlib.handle; (* control requests, readers = CAB *)
  resp_h : Hostlib.handle; (* control replies, readers = host *)
  accept_mb : Mailbox.t; (* accepted connection ids *)
  accept_h : Hostlib.handle;
  ctl_lock : Resource.t; (* one outstanding control op per instance *)
  mutable send_h : Hostlib.handle option; (* TCP send-request mailbox *)
  recv_hs : (int, Hostlib.handle) Hashtbl.t; (* conn id -> recv handle *)
}

type socket = { owner : t; mutable st : state }

(* The CAB-resident socket server: performs the blocking TCP control
   operations on behalf of host processes. *)
let sockd t ctl_mb resp_mb (ctx : Ctx.t) =
  while true do
    let m = Mailbox.begin_get ctx ctl_mb in
    let op = Message.get_u8 m 0 in
    let port = Message.get_u16 m 2 in
    let addr = Message.get_u32 m 4 in
    Mailbox.end_get ctx m;
    let reply v =
      let r = Mailbox.begin_put ctx resp_mb 4 in
      Message.set_u32 r 0 (v land 0xffffffff);
      Mailbox.end_put ctx resp_mb r
    in
    if op = op_connect then begin
      match Tcp.connect ctx t.stack.Stack.tcp ~dst:addr ~dst_port:port () with
      | conn -> reply (Tcp.conn_id conn)
      | exception (Tcp.Connection_refused | Tcp.Connection_timed_out) ->
          reply 0xffffffff
    end
    else if op = op_listen then begin
      (match
         Tcp.listen t.stack.Stack.tcp ~port ~on_accept:(fun conn ->
             (* runs in the input-processing context: queue the id for the
                host's accept *)
             match Mailbox.try_begin_put ctx t.accept_mb 4 with
             | Some am ->
                 Message.set_u32 am 0 (Tcp.conn_id conn);
                 Mailbox.end_put ctx t.accept_mb am
             | None -> ())
       with
      | () -> reply 0
      | exception Invalid_argument _ -> reply 0xffffffff)
    end
    else if op = op_close then begin
      (match Tcp.conn_by_id t.stack.Stack.tcp addr with
      | Some conn -> Tcp.close ctx conn
      | None -> ());
      reply 0
    end
    else reply 0xffffffff
  done

let create drv stack =
  let rt = stack.Stack.rt in
  let eng = Runtime.engine rt in
  let ctl_mb =
    Runtime.create_mailbox rt ~name:"sockd-ctl" ~byte_limit:4096 ()
  in
  let resp_mb =
    Runtime.create_mailbox rt ~name:"sockd-resp" ~byte_limit:4096 ()
  in
  let accept_mb =
    Runtime.create_mailbox rt ~name:"sockd-accept" ~byte_limit:4096 ()
  in
  let t =
    {
      drv;
      stack;
      ctl_h = Hostlib.attach drv ctl_mb ~mode:Hostlib.Shared_memory ~readers:`Cab;
      resp_h =
        Hostlib.attach drv resp_mb ~mode:Hostlib.Shared_memory ~readers:`Host;
      accept_mb;
      accept_h =
        Hostlib.attach drv accept_mb ~mode:Hostlib.Shared_memory
          ~readers:`Host;
      ctl_lock = Resource.create eng ();
      send_h = None;
      recv_hs = Hashtbl.create 16;
    }
  in
  ignore
    (Thread.create (Runtime.cab rt) ~priority:Thread.System ~name:"sockd"
       (sockd t ctl_mb resp_mb));
  t

let socket t = { owner = t; st = Fresh }

let control ctx t ~op ~port ~addr =
  Resource.with_held t.ctl_lock (fun () ->
      let m = Hostlib.begin_put ctx t.ctl_h 8 in
      Message.set_u8 m 0 op;
      Message.set_u8 m 1 0;
      Message.set_u16 m 2 port;
      Message.set_u32 m 4 addr;
      Hostlib.end_put ctx t.ctl_h m;
      let r = Hostlib.begin_get ctx t.resp_h in
      let v = Message.get_u32 r 0 in
      Hostlib.end_get ctx t.resp_h r;
      if v = 0xffffffff then None else Some v)

let conn_of s =
  match s.st with
  | Connected conn -> conn
  | Fresh | Listening _ | Closed ->
      raise (Socket_error "socket is not connected")

let connect ctx s ~addr ~port =
  (match s.st with
  | Fresh -> ()
  | _ -> raise (Socket_error "socket already in use"));
  match control ctx s.owner ~op:op_connect ~port ~addr with
  | None -> raise (Socket_error "connection refused")
  | Some conn_id -> (
      match Tcp.conn_by_id s.owner.stack.Stack.tcp conn_id with
      | Some conn -> s.st <- Connected conn
      | None -> raise (Socket_error "connection vanished"))

let listen ctx s ~port =
  (match s.st with
  | Fresh -> ()
  | _ -> raise (Socket_error "socket already in use"));
  match control ctx s.owner ~op:op_listen ~port ~addr:0 with
  | None -> raise (Socket_error "port already in use")
  | Some _ -> s.st <- Listening port

let accept ctx s =
  (match s.st with
  | Listening _ -> ()
  | _ -> raise (Socket_error "socket is not listening"));
  let t = s.owner in
  let m = Hostlib.begin_get ctx t.accept_h in
  let conn_id = Message.get_u32 m 0 in
  Hostlib.end_get ctx t.accept_h m;
  match Tcp.conn_by_id t.stack.Stack.tcp conn_id with
  | Some conn -> { owner = t; st = Connected conn }
  | None -> raise (Socket_error "accepted connection vanished")

(* Data path: straight into the TCP send-request mailbox / out of the
   connection's receive mailbox — no control hop, no system call. *)

let send_handle t =
  match t.send_h with
  | Some h -> h
  | None ->
      let h =
        Hostlib.attach t.drv
          (Tcp.send_request_mailbox t.stack.Stack.tcp)
          ~mode:Hostlib.Shared_memory ~readers:`Cab
      in
      t.send_h <- Some h;
      h

let send ctx s data =
  let conn = conn_of s in
  let h = send_handle s.owner in
  let m = Hostlib.begin_put ctx h (4 + String.length data) in
  Message.set_u32 m 0 (Tcp.conn_id conn);
  Hostlib.write_string ctx h m ~pos:4 data;
  Hostlib.end_put ctx h m

let recv_handle t conn =
  match Hashtbl.find_opt t.recv_hs (Tcp.conn_id conn) with
  | Some h -> h
  | None ->
      let h =
        Hostlib.attach t.drv (Tcp.recv_mailbox conn)
          ~mode:Hostlib.Shared_memory ~readers:`Host
      in
      Hashtbl.replace t.recv_hs (Tcp.conn_id conn) h;
      h

let recv ctx s =
  let conn = conn_of s in
  let h = recv_handle s.owner conn in
  let m = Hostlib.begin_get ctx h in
  let data = Hostlib.read_string ctx h m in
  Hostlib.end_get ctx h m;
  data

let close ctx s =
  match s.st with
  | Connected conn ->
      ignore
        (control ctx s.owner ~op:op_close ~port:0 ~addr:(Tcp.conn_id conn));
      s.st <- Closed
  | Fresh | Listening _ | Closed -> s.st <- Closed
