open Nectar_sim
open Nectar_core
module Costs = Nectar_cab.Costs

type mode = Shared_memory | Rpc

type handle = {
  drv : Cab_driver.t;
  mbox : Mailbox.t;
  hmode : mode;
  readers : [ `Cab | `Host ];
  opcode : int;
  htrack : string; (* trace track: the host this handle belongs to *)
  pending_end_put : Message.t Queue.t; (* messages handed to the CAB side *)
  rpc_msgs : (int, Message.t) Hashtbl.t;
  mutable next_msg_id : int;
}

(* Each handle gets its own CAB-signal-queue opcode, allocated on the
   CAB's runtime: posting it makes the CAB perform the end_put (and so the
   wakeup or upcall) at interrupt level — the host cannot wake a CAB
   thread by memory writes alone. *)
let attach drv mbox ~mode ~readers =
  let pending_end_put = Queue.create () in
  (* Drain everything pending, not just one message: the handler must be
     idempotent under signal loss, so that any later signal finishes the
     [end_put]s whose own signals were dropped by the queue. *)
  let opcode =
    Runtime.register_free_opcode (Cab_driver.runtime drv) (fun cctx ~param ->
        ignore param;
        let rec drain () =
          match Queue.take_opt pending_end_put with
          | Some msg ->
              Mailbox.end_put cctx mbox msg;
              drain ()
          | None -> ()
        in
        drain ())
  in
  {
    drv;
    mbox;
    hmode = mode;
    readers;
    opcode;
    htrack = Host.name (Cab_driver.host drv);
    pending_end_put;
    rpc_msgs = Hashtbl.create 8;
    next_msg_id = 1;
  }

let mode_of h = h.hmode

let pio (ctx : Ctx.t) h bytes = Cab_driver.ctx_pio ctx h.drv ~bytes

(* Control-structure touches for one mailbox operation: a handful of
   words of the mailbox descriptor. *)
let bookkeeping_bytes = 16

(* ---------- Rpc plumbing ---------- *)

let rpc_stash h msg =
  let id = h.next_msg_id in
  h.next_msg_id <- id + 1;
  Hashtbl.replace h.rpc_msgs id msg;
  id

let rpc_take h id =
  match Hashtbl.find_opt h.rpc_msgs id with
  | Some msg ->
      Hashtbl.remove h.rpc_msgs id;
      msg
  | None -> invalid_arg "Hostlib: unknown rpc message id"

(* ---------- begin_put ---------- *)

let rec begin_put_loop ctx h n =
  match h.hmode with
  | Shared_memory ->
      pio ctx h bookkeeping_bytes;
      Mailbox.begin_put ctx h.mbox n
  | Rpc -> (
      let r =
        Cab_driver.rpc ctx h.drv (fun cctx ->
            match Mailbox.try_begin_put cctx h.mbox n with
            | Some msg -> rpc_stash h msg
            | None -> -1)
      in
      if r >= 0 then rpc_take h r
      else begin
        (* no space: retry after a short delay *)
        Engine.sleep ctx.Ctx.eng (Sim_time.us 50);
        begin_put_loop ctx h n
      end)

let begin_put ctx h n =
  let tid = Trace.span_begin ~track:h.htrack "host.begin_put" in
  let msg = begin_put_loop ctx h n in
  Trace.span_end tid;
  msg

let write_string (ctx : Ctx.t) h msg ~pos s =
  let tid = Trace.span_begin ~track:h.htrack "host.write" in
  pio ctx h (String.length s);
  (* programmed I/O across the VME boundary is a real per-byte copy by the
     host CPU — the one place the zero-copy path must copy out *)
  Nectar_util.Copy_meter.record ~owner:(Mailbox.name h.mbox)
    Nectar_util.Copy_meter.Host (String.length s);
  Message.write_string msg pos s;
  Trace.span_end tid

let end_put ctx h msg =
  let tid = Trace.span_begin ~track:h.htrack "host.end_put" in
  (match h.hmode with
  | Shared_memory -> (
      pio ctx h (bookkeeping_bytes / 2);
      match h.readers with
      | `Host -> Mailbox.end_put ctx h.mbox msg
      | `Cab ->
          Queue.add msg h.pending_end_put;
          Cab_driver.signal_cab ctx h.drv ~opcode:h.opcode ~param:0)
  | Rpc ->
      let id = rpc_stash h msg in
      ignore
        (Cab_driver.rpc ctx h.drv (fun cctx ->
             Mailbox.end_put cctx h.mbox (rpc_take h id);
             0)));
  Trace.span_end tid

(* ---------- begin_get ---------- *)

let rec begin_get_loop ~wait ctx h =
  match h.hmode with
  | Shared_memory -> (
      pio ctx h bookkeeping_bytes;
      match Mailbox.try_begin_get ctx h.mbox with
      | Some msg -> msg
      | None -> (
          match wait with
          | `Poll ->
              (* the poll loop: the sim-level wait stands in for the spin,
                 and the iterations around the wakeup are charged *)
              Cab_driver.poll_iteration ctx h.drv;
              let msg = Mailbox.begin_get ctx h.mbox in
              Cab_driver.poll_iteration ctx h.drv;
              msg
          | `Block ->
              Host.syscall ctx;
              let msg = Mailbox.begin_get ctx h.mbox in
              (* woken by the CAB's interrupt through the driver *)
              Nectar_cab.Interrupts.post
                (Host.irq (Cab_driver.host h.drv))
                ~name:"mbox-wake"
                (fun ictx ->
                  Nectar_cab.Interrupts.work ictx Costs.signal_queue_op_ns);
              Host.syscall ctx;
              msg))
  | Rpc -> (
      let r =
        Cab_driver.rpc ctx h.drv (fun cctx ->
            match Mailbox.try_begin_get cctx h.mbox with
            | Some msg -> rpc_stash h msg
            | None -> -1)
      in
      if r >= 0 then rpc_take h r
      else begin
        Engine.sleep ctx.Ctx.eng (Sim_time.us 50);
        begin_get_loop ~wait ctx h
      end)

let begin_get ?(wait = `Poll) ctx h =
  let tid = Trace.span_begin ~track:h.htrack "host.begin_get" in
  let msg = begin_get_loop ~wait ctx h in
  Trace.span_end tid;
  msg

let read_string (ctx : Ctx.t) h msg =
  let tid = Trace.span_begin ~track:h.htrack "host.read" in
  pio ctx h (Message.length msg);
  Nectar_util.Copy_meter.record ~owner:(Mailbox.name h.mbox)
    Nectar_util.Copy_meter.Host (Message.length msg);
  let s = Message.to_string msg in
  Trace.span_end tid;
  s

let end_get ctx h msg =
  let tid = Trace.span_begin ~track:h.htrack "host.end_get" in
  (match h.hmode with
  | Shared_memory ->
      pio ctx h (bookkeeping_bytes / 2);
      Mailbox.end_get ctx msg
  | Rpc ->
      let id = rpc_stash h msg in
      ignore
        (Cab_driver.rpc ctx h.drv (fun cctx ->
             Mailbox.end_get cctx (rpc_take h id);
             0)));
  Trace.span_end tid
