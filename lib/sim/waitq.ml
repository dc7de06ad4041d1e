(* A FIFO ring of waiters in two parallel arrays of immediates, indexed
   by each waiter's absolute queue position modulo the capacity: its
   waker, and the timer a signal must cancel ([Engine.inert_timer] for a
   plain waiter).  So a plain wait allocates nothing once the ring has
   grown to its working size.  A timed waiter's timer callback finds its
   cell by position (the cell still holds its waker while it is pending:
   a signal that takes it cancels the timer) and marks it dead; a dead
   cell stays queued until a signal skips it.  [live] counts the waiters
   still to be woken, so [waiters] is O(1).  The arrays start empty and
   double when full. *)
type t = {
  eng : Engine.t;
  mutable ws : Engine.waker array; (* [dead] once timed out *)
  mutable tms : Engine.timer array;
  mutable first : int; (* absolute position of the front waiter *)
  mutable len : int;
  mutable live : int;
}

let dead = Engine.no_waker

let create eng =
  let no_cells = Nectar_util.Ring.no_cells in
  { eng; ws = no_cells; tms = no_cells; first = 0; len = 0; live = 0 }

(* Re-lay the cells at the same absolute positions in arrays twice as
   large. *)
let grow t =
  let cap = Array.length t.ws in
  let ncap = if cap = 0 then 1 else 2 * cap in
  let ws = Array.make ncap dead and tms = Array.make ncap Engine.inert_timer in
  for p = t.first to t.first + t.len - 1 do
    ws.(p land (ncap - 1)) <- t.ws.(p land (cap - 1));
    tms.(p land (ncap - 1)) <- t.tms.(p land (cap - 1))
  done;
  t.ws <- ws;
  t.tms <- tms

(* Queue [w] at the back; returns its absolute position. *)
let enqueue t w tm =
  if t.len = Array.length t.ws then grow t;
  let p = t.first + t.len in
  let i = p land (Array.length t.ws - 1) in
  Array.unsafe_set t.ws i w;
  Array.unsafe_set t.tms i tm;
  t.len <- t.len + 1;
  t.live <- t.live + 1;
  p

let wait_releasing t ~release =
  ignore (enqueue t (Engine.waker t.eng) Engine.inert_timer);
  release ();
  Engine.block t.eng

let wait t =
  ignore (enqueue t (Engine.waker t.eng) Engine.inert_timer);
  Engine.block t.eng

(* A timed waiter's cell position (known once queued: the timer cannot
   fire before the process blocks) and the outcome it reads on
   resumption. *)
type timed = { mutable pos : int; mutable timed_out : bool }

let wait_timeout_releasing t ~release span =
  let w = Engine.waker t.eng in
  let r = { pos = 0; timed_out = false } in
  let tm =
    Engine.after t.eng span (fun () ->
        t.ws.(r.pos land (Array.length t.ws - 1)) <- dead;
        t.live <- t.live - 1;
        r.timed_out <- true;
        Engine.wake t.eng w)
  in
  r.pos <- enqueue t w tm;
  release ();
  Engine.block t.eng;
  if r.timed_out then `Timeout else `Signaled

let wait_timeout t span = wait_timeout_releasing t ~release:ignore span

let rec signal t =
  if t.len = 0 then false
  else begin
    let i = t.first land (Array.length t.ws - 1) in
    let w = Array.unsafe_get t.ws i in
    t.first <- t.first + 1;
    t.len <- t.len - 1;
    if w == dead then signal t
    else begin
      t.live <- t.live - 1;
      Engine.cancel t.eng (Array.unsafe_get t.tms i);
      Engine.wake t.eng w;
      true
    end
  end

let broadcast t =
  let n = ref 0 in
  while signal t do
    incr n
  done;
  !n

let waiters t = t.live
