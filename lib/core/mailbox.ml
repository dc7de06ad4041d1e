open Nectar_sim
module Costs = Nectar_cab.Costs

type overflow = [ `Block | `Drop ]

type t = {
  mname : string;
  eng : Engine.t;
  heap : Buffer_heap.t;
  limit : int;
  capacity : int option;
  overflow : overflow;
  acct : Message.owner; (* bytes charged here, writers waiting for room *)
  mutable overflow_drop_count : int;
  queue : Message.t Nectar_util.Ring.t;
  data_q : Waitq.t;
  mutable upcall : (Ctx.t -> t -> unit) option;
  heap_source : Message.source; (* built once: a message holds no closure *)
  cache : Message.source; (* [Cached] when the mailbox has a cache buffer *)
  mutable put_count : int;
  mutable get_count : int;
  mutable cache_hit_count : int;
}

let create eng ~heap ~name ?(byte_limit = 64 * 1024) ?capacity
    ?(overflow = `Block) ?(cached_buffer_bytes = 128) ?upcall () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Mailbox.create: capacity must be > 0"
  | _ -> ());
  if Vet_hook.installed () then
    Vet_hook.heap_attach ~heap:(Buffer_heap.uid heap) ~name:"cab-heap"
      ~mem:(Buffer_heap.region heap);
  let heap_source = Message.Heap heap in
  let cache =
    if cached_buffer_bytes <= 0 then heap_source
    else
      match Buffer_heap.alloc heap cached_buffer_bytes with
      | Some coff ->
          Vet_hook.heap_persistent ~heap:(Buffer_heap.uid heap) ~off:coff;
          Message.Cached { coff; clen = cached_buffer_bytes; busy = false }
      | None -> invalid_arg "Mailbox.create: heap exhausted"
  in
  {
    mname = name;
    eng;
    heap;
    limit = byte_limit;
    capacity;
    overflow;
    acct =
      { Message.in_use = 0; space_q = Waitq.create eng; on_space_freed = None };
    overflow_drop_count = 0;
    queue = Nectar_util.Ring.create ~dummy:Message.dummy;
    data_q = Waitq.create eng;
    upcall;
    heap_source;
    cache;
    put_count = 0;
    get_count = 0;
    cache_hit_count = 0;
  }

let name t = t.mname
let set_upcall t u = t.upcall <- u
let set_on_space_freed t f = t.acct.on_space_freed <- f

(* Drop the message from its owner's byte accounting.  Freeing the buffer
   itself is *not* here: it follows the message's [source], fixed at
   allocation, so a message enqueued to another mailbox still returns its
   buffer to where it came from. *)
let disown (msg : Message.t) =
  let o = msg.owner in
  o.in_use <- o.in_use - msg.buf_len;
  ignore (Waitq.broadcast o.space_q);
  match o.on_space_freed with Some f -> f () | None -> ()

let queue_full t =
  match t.capacity with
  | None -> false
  | Some c -> Nectar_util.Ring.length t.queue >= c

let report_put ctx t (msg : Message.t) ~cached =
  if Vet_hook.installed () then
    Vet_hook.msg_event ctx ~uid:msg.uid ~mailbox:t.mname
      (Vet_hook.Begin_put
         { heap = Buffer_heap.uid t.heap; off = msg.buf_off;
           len = msg.buf_len; cached })

(* A new message over a buffer taken for [headroom + n] bytes. *)
let adopt ctx t ~buf_off ~buf_len ~source ~cached headroom total =
  t.acct.in_use <- t.acct.in_use + buf_len;
  let msg =
    Message.alloc ~mem:(Buffer_heap.region t.heap) ~buf_off ~buf_len
      ~len:total ~source ~owner:t.acct
  in
  (* the reserved headroom sits in front of the data view; protocol
     layers reclaim it with [Message.push_head] to prepend headers into
     the same buffer *)
  Message.adjust_head msg headroom;
  report_put ctx t msg ~cached;
  msg

(* [try_begin_put] without its option: [Message.dummy] when the mailbox
   or the heap has no room. *)
let put (ctx : Ctx.t) t headroom n =
  if n < 0 then invalid_arg "Mailbox.begin_put: negative size";
  if headroom < 0 then invalid_arg "Mailbox.begin_put: negative headroom";
  let total = headroom + n in
  ctx.work Costs.mbox_begin_put_ns;
  (* With [`Block] the message-count bound backpressures writers here, at
     allocation time; with [`Drop] the put is admitted and tail-dropped at
     queue time, so the writer never stalls. *)
  if t.acct.in_use + total > t.limit || (t.overflow = `Block && queue_full t)
  then Message.dummy
  else
    match t.cache with
    | Message.Cached c when (not c.busy) && total <= c.clen ->
        c.busy <- true;
        t.cache_hit_count <- t.cache_hit_count + 1;
        adopt ctx t ~buf_off:c.coff ~buf_len:c.clen ~source:t.cache
          ~cached:true headroom total
    | _ ->
        ctx.work Costs.heap_alloc_ns;
        let off = Buffer_heap.alloc_offset t.heap (Int.max 4 total) in
        if off < 0 then Message.dummy
        else
          adopt ctx t ~buf_off:off ~buf_len:(Buffer_heap.block_size t.heap off)
            ~source:t.heap_source ~cached:false headroom total

let try_begin_put ctx t ?(headroom = 0) n =
  let msg = put ctx t headroom n in
  if msg == Message.dummy then None else Some msg

let rec put_blocking ctx t headroom n =
  let msg = put ctx t headroom n in
  if msg != Message.dummy then msg
  else begin
    if Vet_hook.installed () then
      Vet_hook.blocking ctx ~op:("Mailbox.begin_put " ^ t.mname);
    (* Timed wait, not [Waitq.wait]: a put can also fail on a transient
       heap-allocation fault (injected, or a fragmented first-fit miss)
       with space already free — then no space-freed signal will ever
       come, and an untimed wait would sleep forever. *)
    ignore (Waitq.wait_timeout t.acct.space_q (Sim_time.us 100));
    put_blocking ctx t headroom n
  end

let begin_put ctx t ?(headroom = 0) n =
  Ctx.assert_may_block ctx "Mailbox.begin_put";
  if headroom + n > t.limit then
    invalid_arg "Mailbox.begin_put: larger than mailbox byte limit";
  put_blocking ctx t headroom n

let queue_message (ctx : Ctx.t) t (msg : Message.t) =
  msg.state <- Message.Queued;
  Nectar_util.Ring.push t.queue msg;
  t.put_count <- t.put_count + 1;
  ignore (Waitq.signal t.data_q);
  match t.upcall with
  | Some u ->
      ctx.work Costs.upcall_ns;
      u ctx t
  | None -> ()

(* Shared terminal path of [dispose], [abort_put] and overflow drops; the
   caller has already reported the event and validated the state. *)
let release_held (msg : Message.t) =
  msg.state <- Message.Freed;
  disown msg;
  Message.release msg

(* Tail-drop of a completed put or an enqueued message when a [`Drop]
   mailbox is at capacity: the message is still held by the caller
   (Writing/Reading), so releasing it here is an ordinary dispose. *)
let overflow_drop (ctx : Ctx.t) t (msg : Message.t) =
  t.overflow_drop_count <- t.overflow_drop_count + 1;
  Vet_hook.msg_event ctx ~uid:msg.Message.uid ~mailbox:t.mname
    Vet_hook.Dispose;
  release_held msg

let end_put (ctx : Ctx.t) t (msg : Message.t) =
  if msg.state <> Message.Writing then
    invalid_arg "Mailbox.end_put: message not in writing state";
  ctx.work Costs.mbox_end_put_ns;
  if t.overflow = `Drop && queue_full t then overflow_drop ctx t msg
  else begin
    Vet_hook.msg_event ctx ~uid:msg.Message.uid ~mailbox:t.mname
      Vet_hook.End_put;
    queue_message ctx t msg
  end

let dispose (ctx : Ctx.t) (msg : Message.t) =
  Vet_hook.msg_event ctx ~uid:msg.Message.uid ~mailbox:"" Vet_hook.Dispose;
  (match msg.state with
  | Message.Writing | Message.Reading -> ()
  | Message.Queued | Message.Freed ->
      invalid_arg "Mailbox.dispose: message not held by the caller");
  ignore ctx;
  release_held msg

let abort_put (ctx : Ctx.t) t (msg : Message.t) =
  Vet_hook.msg_event ctx ~uid:msg.Message.uid ~mailbox:t.mname
    Vet_hook.Abort_put;
  if msg.state <> Message.Writing then
    invalid_arg "Mailbox.abort_put: message not in writing state";
  release_held msg

(* The front message, now held by the reader; the queue is not empty. *)
let take (ctx : Ctx.t) t =
  let msg = Nectar_util.Ring.pop t.queue in
  msg.Message.state <- Message.Reading;
  (* a capacity-bounded mailbox admits a blocked writer as soon as a
     slot opens, not only when the reader finishes with the bytes *)
  if t.capacity <> None then ignore (Waitq.broadcast t.acct.space_q);
  t.get_count <- t.get_count + 1;
  Vet_hook.msg_event ctx ~uid:msg.Message.uid ~mailbox:t.mname
    Vet_hook.Begin_get;
  msg

let try_begin_get (ctx : Ctx.t) t =
  ctx.work Costs.mbox_begin_get_ns;
  if Nectar_util.Ring.is_empty t.queue then None else Some (take ctx t)

let rec get_blocking (ctx : Ctx.t) t =
  ctx.work Costs.mbox_begin_get_ns;
  if not (Nectar_util.Ring.is_empty t.queue) then take ctx t
  else begin
    if Vet_hook.installed () then
      Vet_hook.blocking ctx ~op:("Mailbox.begin_get " ^ t.mname);
    Waitq.wait t.data_q;
    get_blocking ctx t
  end

let begin_get ctx t =
  Ctx.assert_may_block ctx "Mailbox.begin_get";
  get_blocking ctx t

let end_get (ctx : Ctx.t) (msg : Message.t) =
  Vet_hook.msg_event ctx ~uid:msg.Message.uid ~mailbox:"" Vet_hook.End_get;
  if msg.state <> Message.Reading then
    invalid_arg "Mailbox.end_get: message not held by a reader";
  ctx.work Costs.mbox_end_get_ns;
  msg.state <- Message.Freed;
  disown msg;
  (* drop the owner's buffer reference; the physical free waits for any
     in-flight transmit extents or slices still reading the bytes *)
  Message.release msg

let enqueue (ctx : Ctx.t) (msg : Message.t) dst =
  (match msg.state with
  | Message.Reading | Message.Writing -> ()
  | Message.Queued | Message.Freed ->
      invalid_arg "Mailbox.enqueue: message not held by the caller");
  ctx.work Costs.mbox_enqueue_ns;
  if dst.overflow = `Drop && queue_full dst then overflow_drop ctx dst msg
  else begin
    if Vet_hook.installed () then
      Vet_hook.msg_event ctx ~uid:msg.Message.uid ~mailbox:dst.mname
        (Vet_hook.Enqueue { dst = dst.mname });
    (* Transfer accounting from the current owner, then adopt; the buffer
       itself stays put — only queue pointers move (paper §3.3).  A
       [`Block] destination at capacity still accepts, like the byte
       limit: enqueue must stay non-blocking for interrupt callers. *)
    disown msg;
    dst.acct.in_use <- dst.acct.in_use + msg.buf_len;
    msg.owner <- dst.acct;
    queue_message ctx dst msg
  end

let queued_messages t = Nectar_util.Ring.length t.queue

let queued_bytes t =
  Nectar_util.Ring.fold (fun acc m -> acc + Message.length m) 0 t.queue

let bytes_in_use t = t.acct.in_use
let overflow_drops t = t.overflow_drop_count
let puts t = t.put_count
let gets t = t.get_count
let cache_hits t = t.cache_hit_count

let register_metrics t reg ~prefix =
  let base = prefix ^ "mbox." ^ name t ^ "." in
  Nectar_util.Metrics.counter reg (base ^ "puts") (fun () -> puts t);
  Nectar_util.Metrics.counter reg (base ^ "gets") (fun () -> gets t);
  Nectar_util.Metrics.counter reg (base ^ "cache_hits") (fun () -> cache_hits t);
  Nectar_util.Metrics.counter reg (base ^ "overflow_drops") (fun () ->
      overflow_drops t);
  Nectar_util.Metrics.gauge reg (base ^ "bytes_in_use") (fun () ->
      float_of_int (bytes_in_use t))
