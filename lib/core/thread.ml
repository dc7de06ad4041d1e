open Nectar_sim
open Nectar_cab

type priority = System | App

type t = {
  cab : Cab.t;
  owner : Cpu.owner;
  prio : priority;
  tname : string;
  finish_q : Waitq.t;
  mutable finished : bool;
  mutable masked : bool;
}

let prio_level = function
  | System -> Costs.prio_system
  | App -> Costs.prio_app

let ctx t : Ctx.t =
  {
    eng = Cab.engine t.cab;
    work =
      (fun span ->
        Cpu.consume (Cab.cpu t.cab) t.owner ~priority:(prio_level t.prio)
          ~atomic:t.masked span);
    may_block = true;
    ctx_name = t.tname;
    on_cpu = Some (Cab.cpu t.cab, t.owner, prio_level t.prio);
  }

let create cab ?(priority = System) ~name body =
  let eng = Cab.engine cab in
  let t =
    {
      cab;
      owner =
        Cpu.owner (Cab.cpu cab) ~name ~switch_in:Costs.ctx_switch_ns;
      prio = priority;
      tname = name;
      finish_q = Waitq.create eng;
      finished = false;
      masked = false;
    }
  in
  let start_label = "thread.start:" ^ name
  and exit_label = "thread.exit:" ^ name in
  Engine.spawn eng ~name (fun () ->
      Trace.instant ~track:(Cab.name cab) start_label;
      body (ctx t);
      t.finished <- true;
      Trace.instant ~track:(Cab.name cab) exit_label;
      ignore (Waitq.broadcast t.finish_q));
  t

let name t = t.tname
let is_finished t = t.finished

let join (caller : Ctx.t) t =
  Ctx.assert_may_block caller "Thread.join";
  while not t.finished do
    Vet_hook.blocking caller ~op:("Thread.join " ^ t.tname);
    Waitq.wait t.finish_q
  done

let with_interrupts_masked t f =
  let prev = t.masked in
  t.masked <- true;
  match f () with
  | v ->
      t.masked <- prev;
      v
  | exception e ->
      t.masked <- prev;
      raise e
