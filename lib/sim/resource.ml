type t = {
  eng : Engine.t;
  capacity : int;
  mutable held : int;
  waiters : Waitq.t;
  mutable busy_since : Sim_time.t; (* -1 while no unit is held *)
  mutable busy_total : Sim_time.span;
}

let create eng ?(capacity = 1) () =
  if capacity < 1 then invalid_arg "Resource.create";
  {
    eng;
    capacity;
    held = 0;
    waiters = Waitq.create eng;
    busy_since = -1;
    busy_total = 0;
  }

let note_acquired t =
  t.held <- t.held + 1;
  if t.busy_since < 0 then t.busy_since <- Engine.now t.eng

let free_now t = t.held < t.capacity && Waitq.waiters t.waiters = 0

let acquire t =
  if free_now t then note_acquired t
  else
    (* A releaser hands its unit directly to the oldest waiter, so being
       woken means the unit is already ours; [held] is unchanged. *)
    Waitq.wait t.waiters

let try_acquire t =
  if free_now t then begin
    note_acquired t;
    true
  end
  else false

let release t =
  if t.held <= 0 then invalid_arg "Resource.release: not held";
  if not (Waitq.signal t.waiters) then begin
    t.held <- t.held - 1;
    if t.held = 0 then begin
      t.busy_total <- t.busy_total + (Engine.now t.eng - t.busy_since);
      t.busy_since <- -1
    end
  end

let use t span =
  acquire t;
  Engine.sleep t.eng span;
  release t

let with_held t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e

let in_use t = t.held
let queue_length t = Waitq.waiters t.waiters

let busy_time t =
  if t.busy_since < 0 then t.busy_total
  else t.busy_total + (Engine.now t.eng - t.busy_since)
