open Nectar_sim
module Costs = Nectar_cab.Costs

type state = Empty | Written of int | Canceled | Freed

type t = { mutable st : state; wq : Waitq.t; sname : string }

let alloc (ctx : Ctx.t) eng ~name =
  ctx.work Costs.sync_op_ns;
  { st = Empty; wq = Waitq.create eng; sname = name }

let write (ctx : Ctx.t) t v =
  (* The check-and-mark is atomic on the CAB (interrupts masked); the
     atomic work models that critical section. *)
  ctx.work Costs.sync_op_ns;
  match t.st with
  | Empty ->
      t.st <- Written v;
      ignore (Waitq.signal t.wq)
  | Canceled -> t.st <- Freed
  | Written _ -> invalid_arg ("Sync.write: already written: " ^ t.sname)
  | Freed -> invalid_arg ("Sync.write: already freed: " ^ t.sname)

let try_read (ctx : Ctx.t) t =
  ctx.work Costs.sync_op_ns;
  match t.st with
  | Written v ->
      t.st <- Freed;
      Some v
  | Empty -> None
  | Canceled | Freed -> invalid_arg ("Sync.read: sync gone: " ^ t.sname)

let read ctx t =
  Ctx.assert_may_block ctx "Sync.read";
  let rec attempt () =
    match try_read ctx t with
    | Some v -> v
    | None ->
        Vet_hook.blocking ctx ~op:("Sync.read " ^ t.sname);
        Waitq.wait t.wq;
        attempt ()
  in
  attempt ()

let cancel (ctx : Ctx.t) t =
  ctx.work Costs.sync_op_ns;
  match t.st with
  | Empty -> t.st <- Canceled
  | Written _ -> t.st <- Freed
  | Canceled | Freed -> invalid_arg ("Sync.cancel: sync gone: " ^ t.sname)

let state t = t.st
