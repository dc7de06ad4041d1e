open Nectar_sim
open Nectar_core
module Costs = Nectar_cab.Costs
module Tbl = Nectar_util.Int_key.Tbl

let opcode_rpc_call = 240

type rpc_slot = { fn : Ctx.t -> int; mutable result : int option; done_q : Waitq.t }

type t = {
  drv_host : Host.t;
  rt : Runtime.t;
  drv_vme : Nectar_cab.Vme.t;
  rpc_slots : rpc_slot Tbl.t;
  mutable next_rpc : int;
  mutable to_host : int;
  mutable to_cab : int;
}

let attach host rt =
  let eng = Host.engine host in
  let cab = Runtime.cab rt in
  let drv_vme =
    Nectar_cab.Vme.create eng ~name:(Host.name host ^ "-" ^ Nectar_cab.Cab.name cab)
  in
  Nectar_cab.Cab.attach_vme cab drv_vme;
  let t =
    {
      drv_host = host;
      rt;
      drv_vme;
      rpc_slots = Tbl.create 16;
      next_rpc = 1;
      to_host = 0;
      to_cab = 0;
    }
  in
  (* CAB -> host notifications become host interrupts. *)
  Runtime.set_host_notifier rt
    (Some
       (fun ~opcode ~param ->
         ignore (opcode, param);
         t.to_host <- t.to_host + 1;
         (* the notification's effect (waking a process) happens sim-side;
            the interrupt still costs host CPU at interrupt priority *)
         Nectar_cab.Interrupts.post (Host.irq host) ~name:"cab-signal"
           (fun ictx -> Nectar_cab.Interrupts.work ictx Costs.signal_queue_op_ns)));
  (* host -> CAB RPC service *)
  Runtime.register_opcode rt ~opcode:opcode_rpc_call (fun cctx ~param ->
      match Tbl.find_opt t.rpc_slots param with
      | Some slot ->
          slot.result <- Some (slot.fn cctx);
          ignore (Waitq.broadcast slot.done_q)
      | None -> ());
  t

let host t = t.drv_host
let runtime t = t.rt
let vme t = t.drv_vme

(* VME PIO needs an owner; driver-level bus traffic is charged to a
   per-driver owner so it shows in CPU accounting. *)
let pio_owner =
  let table = Hashtbl.create 4 in
  fun t ->
    match Hashtbl.find_opt table (Host.name t.drv_host) with
    | Some o -> o
    | None ->
        let o =
          Cpu.owner (Host.cpu t.drv_host)
            ~name:(Host.name t.drv_host ^ ".poll")
            ~switch_in:0
        in
        Hashtbl.replace table (Host.name t.drv_host) o;
        o

(* Programmed I/O across the backplane, stalling the calling context's CPU
   when it has one (a host process), or the driver's synthetic owner
   otherwise. *)
let ctx_pio (ctx : Ctx.t) t ~bytes =
  match ctx.on_cpu with
  | Some (cpu, owner, priority) ->
      Nectar_cab.Vme.pio t.drv_vme ~cpu ~owner ~priority ~bytes
  | None ->
      Nectar_cab.Vme.pio t.drv_vme ~cpu:(Host.cpu t.drv_host)
        ~owner:(pio_owner t) ~priority:10 ~bytes

(* One spin of the host's poll loop: a VME read plus loop overhead. *)
let poll_iteration (ctx : Ctx.t) t =
  ctx.work (Costs.host_poll_iteration_ns - Costs.vme_word_ns);
  ctx_pio ctx t ~bytes:4

module Cond = struct
  type cond = {
    drv : t;
    mutable value : int;
    changed : Waitq.t;
    mutable blocked : int;
  }

  let create drv =
    {
      drv;
      value = 0;
      changed = Waitq.create (Host.engine drv.drv_host);
      blocked = 0;
    }

  let signal c =
    c.value <- c.value + 1;
    ignore (Waitq.broadcast c.changed);
    if c.blocked > 0 then
      Runtime.notify_host c.drv.rt ~opcode:0 ~param:0

  let waitq c = c.changed

  let wait_poll ctx c ~since =
    Ctx.assert_may_block ctx "Cond.wait_poll";
    poll_iteration ctx c.drv;
    while c.value <= since do
      Waitq.wait c.changed;
      poll_iteration ctx c.drv
    done

  let wait_block ctx c ~since =
    Ctx.assert_may_block ctx "Cond.wait_block";
    Host.syscall ctx;
    c.blocked <- c.blocked + 1;
    while c.value <= since do
      Waitq.wait c.changed
    done;
    c.blocked <- c.blocked - 1;
    (* return from the driver into user space *)
    Host.syscall ctx
end

let signal_cab (ctx : Ctx.t) t ~opcode ~param =
  (* write the queue element (two words) and interrupt the CAB *)
  ctx_pio ctx t ~bytes:8;
  t.to_cab <- t.to_cab + 1;
  Runtime.post_to_cab t.rt ~opcode ~param

let rpc (ctx : Ctx.t) t fn =
  Ctx.assert_may_block ctx "Cab_driver.rpc";
  let id = t.next_rpc in
  t.next_rpc <- id + 1;
  let slot =
    {
      fn;
      result = None;
      done_q = Waitq.create (Host.engine t.drv_host);
    }
  in
  Tbl.replace t.rpc_slots id slot;
  signal_cab ctx t ~opcode:opcode_rpc_call ~param:id;
  let rec await () =
    match slot.result with
    | Some r ->
        Tbl.remove t.rpc_slots id;
        poll_iteration ctx t;
        r
    | None ->
        Waitq.wait slot.done_q;
        await ()
  in
  await ()

let interrupts_to_host t = t.to_host
let interrupts_to_cab t = t.to_cab
