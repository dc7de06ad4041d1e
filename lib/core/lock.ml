open Nectar_sim

module Mutex = struct
  type t = {
    res : Resource.t;
    mutable held_by : string option;
    lid : int;
    lname : string;
  }

  let lid_counter = ref 0

  let create eng ~name =
    incr lid_counter;
    {
      res = Resource.create eng ();
      held_by = None;
      lid = !lid_counter;
      lname = name;
    }

  let name t = t.lname

  let lock (ctx : Ctx.t) t =
    Ctx.assert_may_block ctx "Mutex.lock";
    Vet_hook.lock_attempt ctx ~lock:t.lid ~name:t.lname
      ~contended:(Resource.in_use t.res > 0);
    ctx.work Nectar_cab.Costs.sync_op_ns;
    Resource.acquire t.res;
    t.held_by <- Some ctx.ctx_name;
    Vet_hook.lock_acquired ctx ~lock:t.lid ~name:t.lname

  let unlock (ctx : Ctx.t) t =
    ctx.work Nectar_cab.Costs.sync_op_ns;
    t.held_by <- None;
    Resource.release t.res;
    Vet_hook.lock_released ctx ~lock:t.lid ~name:t.lname

  let with_lock ctx t f =
    lock ctx t;
    match f () with
    | v ->
        unlock ctx t;
        v
    | exception e ->
        unlock ctx t;
        raise e
end

module Condvar = struct
  type t = { q : Waitq.t; cname : string }

  let create eng ~name = { q = Waitq.create eng; cname = name }

  (* Entering the wait queue and releasing the mutex must be atomic (no
     suspension point between the caller's predicate check and the queue
     entry), or a signal in that window is lost; the CPU cost of the
     release is charged after wakeup instead. *)
  let release_raw (m : Mutex.t) () =
    m.Mutex.held_by <- None;
    Resource.release m.Mutex.res

  let wait (ctx : Ctx.t) t m =
    Ctx.assert_may_block ctx "Condvar.wait";
    Vet_hook.cond_wait ctx ~cond:t.cname ~lock:m.Mutex.lid
      ~lock_name:m.Mutex.lname;
    Waitq.wait_releasing t.q ~release:(release_raw m);
    ctx.work Nectar_cab.Costs.sync_op_ns;
    Mutex.lock ctx m

  let wait_timeout (ctx : Ctx.t) t m span =
    Ctx.assert_may_block ctx "Condvar.wait_timeout";
    Vet_hook.cond_wait ctx ~cond:t.cname ~lock:m.Mutex.lid
      ~lock_name:m.Mutex.lname;
    let r = Waitq.wait_timeout_releasing t.q ~release:(release_raw m) span in
    ctx.work Nectar_cab.Costs.sync_op_ns;
    Mutex.lock ctx m;
    r

  let signal t = ignore (Waitq.signal t.q)
  let broadcast t = ignore (Waitq.broadcast t.q)
end
