type owner = {
  id : int;
  oname : string;
  switch_in : Sim_time.span;
  transparent : bool;
  mutable served : Sim_time.span;
}

type request = {
  req_owner : owner;
  priority : int;
  atomic : bool;
  mutable remaining : Sim_time.span; (* includes any pending switch-in cost *)
  mutable queued_at : Sim_time.t; (* last time it entered the ready queue *)
  waker : Engine.waker; (* the consuming process, woken on completion *)
  seq : int;
  mutable trace_id : int; (* open Trace span while dispatched; 0 = none *)
}

(* While [serving], the request being served is [cur], dispatched at
   [started], completing by [timer]; an idle CPU has [timer] the inert
   timer and [cur] the last request served (a sentinel before the first).
   Mutable fields rather than an option of a tuple, so a dispatch
   allocates nothing, and going idle stores no pointer. *)
type t = {
  eng : Engine.t;
  cname : string;
  ready : request Nectar_util.Binary_heap.t;
  mutable cur : request;
  mutable serving : bool;
  mutable started : Sim_time.t;
  mutable timer : Engine.timer;
  on_complete : unit -> unit; (* the completion event's callback *)
  mutable last_owner : int; (* id; -1 = none *)
  mutable next_owner_id : int;
  mutable next_seq : int;
  mutable busy : Sim_time.span;
  mutable switch_count : int;
  mutable all_owners : owner list;
}

(* Highest priority first; FIFO (by seq) within a priority class.  A
   preempted request keeps its original seq, so it re-enters ahead of
   same-priority requests that arrived after it.  [Int.compare], not the
   polymorphic [compare]: the ready queue is popped on every dispatch and a
   polymorphic comparison here costs a C call per heap level. *)
let cmp_requests a b =
  if a.priority <> b.priority then Int.compare b.priority a.priority
  else Int.compare a.seq b.seq

let engine t = t.eng

let owner ?(transparent = false) t ~name ~switch_in =
  let id = t.next_owner_id in
  t.next_owner_id <- t.next_owner_id + 1;
  let o = { id; oname = name; switch_in; transparent; served = 0 } in
  t.all_owners <- o :: t.all_owners;
  o

let owner_name o = o.oname

(* Stop serving [cur] (completed or preempted): account its service and
   close its trace span. *)
let stop t =
  let req = t.cur in
  let elapsed = Engine.now t.eng - t.started in
  t.busy <- t.busy + elapsed;
  req.req_owner.served <- req.req_owner.served + elapsed;
  Trace.span_end req.trace_id;
  req.trace_id <- 0;
  t.serving <- false;
  t.timer <- Engine.inert_timer;
  elapsed

let start t req =
  let now = Engine.now t.eng in
  Vet_probe.cpu_wait ~cpu:t.cname ~owner:req.req_owner.oname
    ~priority:req.priority ~waited:(now - req.queued_at);
  if t.last_owner <> req.req_owner.id then begin
    if not req.req_owner.transparent then begin
      if t.last_owner >= 0 then t.switch_count <- t.switch_count + 1;
      req.remaining <- req.remaining + req.req_owner.switch_in;
      t.last_owner <- req.req_owner.id
    end
    (* transparent owners leave [last_owner] alone: the interrupted
       context resumes without paying its switch-in again *)
  end;
  req.trace_id <- Trace.span_begin ~track:t.cname req.req_owner.oname;
  t.cur <- req;
  t.serving <- true;
  t.started <- now;
  t.timer <- Engine.after t.eng req.remaining t.on_complete

let start_next t =
  if not (Nectar_util.Binary_heap.is_empty t.ready) then
    start t (Nectar_util.Binary_heap.pop_exn t.ready)

let complete t =
  let req = t.cur in
  if not t.serving then invalid_arg "Cpu.complete: not current";
  ignore (stop t);
  Engine.wake t.eng req.waker;
  start_next t

let create eng ~name () =
  let idle =
    {
      req_owner =
        {
          id = -1;
          oname = name;
          switch_in = 0;
          transparent = true;
          served = 0;
        };
      priority = min_int;
      atomic = false;
      remaining = 0;
      queued_at = 0;
      waker = Engine.no_waker;
      seq = -1;
      trace_id = 0;
    }
  in
  let rec t =
    {
      eng;
      cname = name;
      ready = Nectar_util.Binary_heap.create ~cmp:cmp_requests ();
      cur = idle;
      serving = false;
      started = 0;
      timer = Engine.inert_timer;
      on_complete = (fun () -> complete t);
      last_owner = -1;
      next_owner_id = 0;
      next_seq = 0;
      busy = 0;
      switch_count = 0;
      all_owners = [];
    }
  in
  t

let maybe_preempt t incoming =
  let cur = t.cur in
  if not t.serving then true
  else if (not cur.atomic) && incoming.priority > cur.priority then begin
    Engine.cancel t.eng t.timer;
    let elapsed = stop t in
    cur.remaining <- cur.remaining - elapsed;
    (* Guard against a zero-length residue when preempted exactly at
       completion time (the completion event fires separately). *)
    if cur.remaining < 0 then cur.remaining <- 0;
    cur.queued_at <- Engine.now t.eng;
    Nectar_util.Binary_heap.push t.ready cur;
    true
  end
  else false

let consume t owner ~priority ?(atomic = false) span =
  if span < 0 then invalid_arg "Cpu.consume: negative span";
  if span = 0 then ()
  else begin
    let req =
      {
        req_owner = owner;
        priority;
        atomic;
        remaining = span;
        queued_at = Engine.now t.eng;
        waker = Engine.waker t.eng;
        seq = t.next_seq;
        trace_id = 0;
      }
    in
    t.next_seq <- t.next_seq + 1;
    if maybe_preempt t req then begin
      (* CPU is (now) idle.  With nothing else ready this request is the
         pick; otherwise it may still not be the best one (a preemption
         just queued the loser), so pick properly. *)
      if Nectar_util.Binary_heap.is_empty t.ready then start t req
      else begin
        Nectar_util.Binary_heap.push t.ready req;
        start_next t
      end
    end
    else Nectar_util.Binary_heap.push t.ready req;
    Engine.block t.eng
  end

let busy_time t =
  if t.serving then t.busy + (Engine.now t.eng - t.started) else t.busy

let owner_time _t o = o.served
let switches t = t.switch_count

let owners_report t =
  List.rev_map (fun o -> (o.oname, o.served)) t.all_owners
