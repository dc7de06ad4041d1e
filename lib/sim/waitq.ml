(* A plain waiter is just its waker.  A timed one also carries the timer
   that a signal cancels and the outcome its process reads on resumption;
   it stays queued, dead, after a timeout until a signal skips it.  [live]
   counts the waiters still to be woken, so [waiters] is O(1). *)
type timed = {
  tw : Engine.waker;
  mutable pending : bool; (* neither signaled nor timed out yet *)
  mutable timed_out : bool;
}

type entry = Plain of Engine.waker | Timed of timed * Engine.timer

type t = { eng : Engine.t; entries : entry Queue.t; mutable live : int }

let create eng = { eng; entries = Queue.create (); live = 0 }

let enqueue t e =
  Queue.add e t.entries;
  t.live <- t.live + 1

let wait_releasing t ~release =
  enqueue t (Plain (Engine.waker t.eng));
  release ();
  Engine.block t.eng

let wait t = wait_releasing t ~release:ignore

let wait_timeout_releasing t ~release span =
  let r = { tw = Engine.waker t.eng; pending = true; timed_out = false } in
  let tm =
    Engine.after t.eng span (fun () ->
        if r.pending then begin
          r.pending <- false;
          r.timed_out <- true;
          t.live <- t.live - 1;
          Engine.wake t.eng r.tw
        end)
  in
  enqueue t (Timed (r, tm));
  release ();
  Engine.block t.eng;
  if r.timed_out then `Timeout else `Signaled

let wait_timeout t span = wait_timeout_releasing t ~release:ignore span

let rec signal t =
  if Queue.is_empty t.entries then false
  else
    match Queue.take t.entries with
    | Plain w ->
        t.live <- t.live - 1;
        Engine.wake t.eng w;
        true
    | Timed (r, tm) ->
        if r.pending then begin
          r.pending <- false;
          t.live <- t.live - 1;
          Engine.cancel t.eng tm;
          Engine.wake t.eng r.tw;
          true
        end
        else signal t

let broadcast t =
  let n = ref 0 in
  while signal t do
    incr n
  done;
  !n

let waiters t = t.live
