(* Every [ctx.work] of a simulated thread is one [consume], so a request
   is kept out of the heap: it is a slot in per-CPU arrays (owner id,
   priority, atomic flag, remaining work, queue entry time, waker, seq
   and trace span), with free slots on a stack threaded through the seq
   array.  Every cell is an int, a bool or an immediate waker, so filling
   in a request, queueing it, dispatching it and completing it store no
   pointer.  The ready queue is a binary heap of slots keyed (priority
   desc, seq asc), and [cur] is the slot being served.  Owners are
   registered once, in an array by id, and a request names its owner by
   id.  The request arrays and the heap are allocated at the first
   request, at 8 slots, and double together. *)

type owner = {
  id : int;
  oname : string;
  switch_in : Sim_time.span;
  transparent : bool;
  mutable served : Sim_time.span;
}

(* While a request is served, it is [cur], dispatched at [started],
   completing by [timer]; an idle CPU has [cur] -1 and [timer] the inert
   timer. *)
type t = {
  eng : Engine.t;
  cname : string;
  (* requests, by slot *)
  mutable r_owner : int array;
  mutable r_priority : int array;
  mutable r_atomic : bool array;
  mutable r_remaining : Sim_time.span array; (* incl. a pending switch-in *)
  mutable r_queued_at : Sim_time.t array; (* last entry to the ready queue *)
  mutable r_waker : Engine.waker array; (* woken on completion *)
  mutable r_seq : int array; (* a free slot's links to the next free one *)
  mutable r_trace : int array; (* open Trace span while served, else 0 *)
  mutable cap : int; (* request slots allocated; 0 before the first *)
  mutable free : int; (* top of the free-slot stack; -1 = empty *)
  mutable used : int; (* high-water mark: slots below it were handed out *)
  (* the ready queue: a heap of [n_ready] slots, as long as the request
     arrays *)
  mutable ready : int array;
  mutable n_ready : int;
  mutable cur : int;
  mutable started : Sim_time.t;
  mutable timer : Engine.timer;
  on_complete : unit -> unit; (* the completion event's callback *)
  mutable owners : owner array; (* by id; this CPU's idle owner fills it *)
  mutable n_owners : int;
  mutable last_owner : int; (* id; -1 = none *)
  mutable next_seq : int;
  mutable busy : Sim_time.span;
  mutable switch_count : int;
}

let initial_slots = 8

external iget : int array -> int -> int = "%array_unsafe_get"
external iset : int array -> int -> int -> unit = "%array_unsafe_set"

let engine t = t.eng

let owner ?(transparent = false) t ~name ~switch_in =
  let id = t.n_owners in
  let o = { id; oname = name; switch_in; transparent; served = 0 } in
  if id = Array.length t.owners then begin
    let owners = Array.make (2 * id) o in
    Array.blit t.owners 0 owners 0 id;
    t.owners <- owners
  end;
  t.owners.(id) <- o;
  t.n_owners <- id + 1;
  o

let owner_name o = o.oname

(* Slot [a] is served before slot [b]: higher priority, or equal priority
   and queued first.  A preempted request keeps its original seq, so it
   re-enters ahead of same-priority requests that arrived after it.
   Slots in the ready queue are below [used]. *)
let[@inline] first t a b =
  let pa = iget t.r_priority a and pb = iget t.r_priority b in
  pa > pb || (pa = pb && iget t.r_seq a < iget t.r_seq b)

let push_ready t r =
  let i = ref t.n_ready in
  t.n_ready <- !i + 1;
  while !i > 0 && first t r (iget t.ready ((!i - 1) / 2)) do
    let parent = (!i - 1) / 2 in
    iset t.ready !i (iget t.ready parent);
    i := parent
  done;
  iset t.ready !i r

(* The best ready slot; caller guarantees [n_ready > 0]. *)
let pop_ready t =
  let top = iget t.ready 0 in
  let n = t.n_ready - 1 in
  t.n_ready <- n;
  if n > 0 then begin
    let last = iget t.ready n in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c =
          if l + 1 < n && first t (iget t.ready (l + 1)) (iget t.ready l) then
            l + 1
          else l
        in
        if first t (iget t.ready c) last then begin
          iset t.ready !i (iget t.ready c);
          i := c
        end
        else sifting := false
      end
    done;
    iset t.ready !i last
  end;
  top

(* The request arrays and the ready heap grow together, from nothing at
   the first request. *)
let grow_requests t =
  let n = t.cap in
  let cap = if n = 0 then initial_slots else 2 * n in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.r_owner <- extend t.r_owner 0;
  t.r_priority <- extend t.r_priority 0;
  t.r_atomic <- extend t.r_atomic false;
  t.r_remaining <- extend t.r_remaining 0;
  t.r_queued_at <- extend t.r_queued_at 0;
  t.r_waker <- extend t.r_waker Engine.no_waker;
  t.r_seq <- extend t.r_seq 0;
  t.r_trace <- extend t.r_trace 0;
  t.ready <- extend t.ready 0;
  t.cap <- cap

let alloc_request t =
  if t.free >= 0 then begin
    let r = t.free in
    t.free <- iget t.r_seq r;
    r
  end
  else begin
    if t.used = t.cap then grow_requests t;
    let r = t.used in
    t.used <- r + 1;
    r
  end

(* Stop serving [cur] (completed or preempted): account its service and
   close its trace span. *)
let stop t =
  let r = t.cur in
  let elapsed = Engine.now t.eng - t.started in
  t.busy <- t.busy + elapsed;
  let o = t.owners.(iget t.r_owner r) in
  o.served <- o.served + elapsed;
  Trace.span_end (iget t.r_trace r);
  iset t.r_trace r 0;
  t.cur <- -1;
  t.timer <- Engine.inert_timer;
  elapsed

let start t r =
  let now = Engine.now t.eng in
  let o = t.owners.(iget t.r_owner r) in
  Vet_probe.cpu_wait ~cpu:t.cname ~owner:o.oname
    ~priority:(iget t.r_priority r)
    ~waited:(now - iget t.r_queued_at r);
  if t.last_owner <> o.id then begin
    if not o.transparent then begin
      if t.last_owner >= 0 then t.switch_count <- t.switch_count + 1;
      iset t.r_remaining r (iget t.r_remaining r + o.switch_in);
      t.last_owner <- o.id
    end
    (* transparent owners leave [last_owner] alone: the interrupted
       context resumes without paying its switch-in again *)
  end;
  iset t.r_trace r (Trace.span_begin ~track:t.cname o.oname);
  t.cur <- r;
  t.started <- now;
  t.timer <- Engine.after t.eng (iget t.r_remaining r) t.on_complete

let complete t =
  let r = t.cur in
  if r < 0 then invalid_arg "Cpu.complete: not current";
  ignore (stop t);
  let w = Array.unsafe_get t.r_waker r in
  iset t.r_seq r t.free;
  t.free <- r;
  Engine.wake t.eng w;
  if t.n_ready > 0 then start t (pop_ready t)

let create eng ~name () =
  let idle =
    { id = -1; oname = name; switch_in = 0; transparent = true; served = 0 }
  in
  (* Placeholders until the first request: set-up builds a CPU per CAB and
     per host, and allocating nine arrays each made it measurably slower.
     Built per CPU, as every array is: a block reachable from two CABs'
     state fails the isolation audit. *)
  let none = [| 0 |] in
  let rec t =
    {
      eng;
      cname = name;
      r_owner = none;
      r_priority = none;
      r_atomic = [| false |];
      r_remaining = none;
      r_queued_at = none;
      r_waker = [| Engine.no_waker |];
      r_seq = none;
      r_trace = none;
      cap = 0;
      free = -1;
      used = 0;
      ready = none;
      n_ready = 0;
      cur = -1;
      started = 0;
      timer = Engine.inert_timer;
      on_complete = (fun () -> complete t);
      owners = [| idle; idle; idle; idle |];
      n_owners = 0;
      last_owner = -1;
      next_seq = 0;
      busy = 0;
      switch_count = 0;
    }
  in
  t

(* A request of [priority] arrives: true when the CPU is (now) idle,
   having preempted the request it was serving if that one is weaker and
   not atomic. *)
let maybe_preempt t priority =
  let cur = t.cur in
  if cur < 0 then true
  else if
    (not (Array.unsafe_get t.r_atomic cur))
    && priority > iget t.r_priority cur
  then begin
    Engine.cancel t.eng t.timer;
    let elapsed = stop t in
    (* Guard against a zero-length residue when preempted exactly at
       completion time (the completion event fires separately). *)
    iset t.r_remaining cur (Int.max 0 (iget t.r_remaining cur - elapsed));
    iset t.r_queued_at cur (Engine.now t.eng);
    push_ready t cur;
    true
  end
  else false

let consume t owner ~priority ?(atomic = false) span =
  if span < 0 then invalid_arg "Cpu.consume: negative span";
  if span > 0 then begin
    if owner.id >= t.n_owners || t.owners.(owner.id) != owner then
      invalid_arg "Cpu.consume: owner of another CPU";
    let w = Engine.waker t.eng in
    let r = alloc_request t in
    iset t.r_owner r owner.id;
    iset t.r_priority r priority;
    Array.unsafe_set t.r_atomic r atomic;
    iset t.r_remaining r span;
    iset t.r_queued_at r (Engine.now t.eng);
    Array.unsafe_set t.r_waker r w;
    iset t.r_seq r t.next_seq;
    t.next_seq <- t.next_seq + 1;
    if maybe_preempt t priority then begin
      (* CPU is (now) idle.  With nothing else ready this request is the
         pick; otherwise it may still not be the best one (a preemption
         just queued the loser), so pick properly. *)
      if t.n_ready = 0 then start t r
      else begin
        push_ready t r;
        start t (pop_ready t)
      end
    end
    else push_ready t r;
    Engine.block t.eng
  end

let busy_time t =
  if t.cur >= 0 then t.busy + (Engine.now t.eng - t.started) else t.busy

let owner_time _t o = o.served
let switches t = t.switch_count

let owners_report t =
  List.init t.n_owners (fun id ->
      let o = t.owners.(id) in
      (o.oname, o.served))
