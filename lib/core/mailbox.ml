open Nectar_sim
module Costs = Nectar_cab.Costs

type cached_buffer = { coff : int; clen : int; mutable busy : bool }

type overflow = [ `Block | `Drop ]

type t = {
  mname : string;
  eng : Engine.t;
  heap : Buffer_heap.t;
  mem : Bytes.t;
  limit : int;
  capacity : int option;
  overflow : overflow;
  mutable in_use : int;
  mutable overflow_drop_count : int;
  queue : Message.t Queue.t;
  space_q : Waitq.t;
  data_q : Waitq.t;
  mutable upcall : (Ctx.t -> t -> unit) option;
  mutable on_space_freed : (unit -> unit) option;
  cache : cached_buffer option;
  put_count : Stats.Counter.t;
  get_count : Stats.Counter.t;
  cache_hit_count : Stats.Counter.t;
}

let create eng ~heap ~mem ~name ?(byte_limit = 64 * 1024) ?capacity
    ?(overflow = `Block) ?(cached_buffer_bytes = 128) ?upcall () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Mailbox.create: capacity must be > 0"
  | _ -> ());
  if Vet_hook.installed () then
    Vet_hook.heap_attach ~heap:(Buffer_heap.uid heap) ~name:"cab-heap" ~mem
      ~base:(Buffer_heap.base heap) ~size:(Buffer_heap.size heap);
  let cache =
    if cached_buffer_bytes <= 0 then None
    else
      match Buffer_heap.alloc heap cached_buffer_bytes with
      | Some coff ->
          Vet_hook.heap_persistent ~heap:(Buffer_heap.uid heap) ~off:coff;
          Some { coff; clen = cached_buffer_bytes; busy = false }
      | None -> invalid_arg "Mailbox.create: heap exhausted"
  in
  {
    mname = name;
    eng;
    heap;
    mem;
    limit = byte_limit;
    capacity;
    overflow;
    in_use = 0;
    overflow_drop_count = 0;
    queue = Queue.create ();
    space_q = Waitq.create eng ~name:(name ^ ".space") ();
    data_q = Waitq.create eng ~name:(name ^ ".data") ();
    upcall;
    on_space_freed = None;
    cache;
    put_count = Stats.Counter.create ();
    get_count = Stats.Counter.create ();
    cache_hit_count = Stats.Counter.create ();
  }

let name t = t.mname
let set_upcall t u = t.upcall <- u
let set_on_space_freed t f = t.on_space_freed <- f

(* Ownership callbacks installed on messages this mailbox owns.  Freeing the
   buffer itself is *not* here: it is fixed at allocation time
   (Message.free_buffer), so a message enqueued to another mailbox still
   returns its buffer to where it came from. *)
let rec install t (msg : Message.t) =
  msg.on_end_get <- release t;
  msg.on_disown <- uncharge t

and release t ctx (msg : Message.t) =
  if msg.state = Message.Freed then invalid_arg "Mailbox: double free";
  ctx.Ctx.work Costs.mbox_end_get_ns;
  msg.state <- Message.Freed;
  uncharge t msg;
  (* drop the owner's buffer reference; the physical free waits for any
     in-flight transmit extents or slices still reading the bytes *)
  Message.release msg

and uncharge t (msg : Message.t) =
  t.in_use <- t.in_use - msg.buf_len;
  ignore (Waitq.broadcast t.space_q);
  match t.on_space_freed with Some f -> f () | None -> ()

let take_buffer t (ctx : Ctx.t) n =
  match t.cache with
  | Some c when (not c.busy) && n <= c.clen ->
      c.busy <- true;
      Stats.Counter.incr t.cache_hit_count;
      Some (c.coff, c.clen, (fun () -> c.busy <- false), true)
  | _ -> (
      ctx.work Costs.heap_alloc_ns;
      match Buffer_heap.alloc t.heap (max 4 n) with
      | Some off ->
          Some
            ( off,
              Buffer_heap.block_size t.heap off,
              (fun () -> Buffer_heap.free t.heap off),
              false )
      | None -> None)

let queue_full t =
  match t.capacity with None -> false | Some c -> Queue.length t.queue >= c

let try_begin_put (ctx : Ctx.t) t ?(headroom = 0) n =
  if n < 0 then invalid_arg "Mailbox.begin_put: negative size";
  if headroom < 0 then invalid_arg "Mailbox.begin_put: negative headroom";
  let total = headroom + n in
  ctx.work Costs.mbox_begin_put_ns;
  (* With [`Block] the message-count bound backpressures writers here, at
     allocation time; with [`Drop] the put is admitted and tail-dropped at
     queue time, so the writer never stalls. *)
  if t.in_use + total > t.limit || (t.overflow = `Block && queue_full t) then
    None
  else
    match take_buffer t ctx total with
    | None -> None
    | Some (buf_off, buf_len, free_buffer, cached) ->
        t.in_use <- t.in_use + buf_len;
        let msg =
          Message.make ~mem:t.mem ~buf_off ~buf_len ~len:total ~free_buffer ()
        in
        (* the reserved headroom sits in front of the data view; protocol
           layers reclaim it with [Message.push_head] to prepend headers
           into the same buffer *)
        Message.adjust_head msg headroom;
        install t msg;
        Vet_hook.msg_event ctx ~uid:msg.Message.uid ~mailbox:t.mname
          (Vet_hook.Begin_put
             { heap = Buffer_heap.uid t.heap; off = buf_off; len = buf_len;
               cached });
        Some msg

let begin_put ctx t ?(headroom = 0) n =
  Ctx.assert_may_block ctx "Mailbox.begin_put";
  if headroom + n > t.limit then
    invalid_arg "Mailbox.begin_put: larger than mailbox byte limit";
  let rec attempt () =
    match try_begin_put ctx t ~headroom n with
    | Some msg -> msg
    | None ->
        Vet_hook.blocking ctx ~op:("Mailbox.begin_put " ^ t.mname);
        (* Timed wait, not [Waitq.wait]: a put can also fail on a transient
           heap-allocation fault (injected, or a fragmented first-fit miss)
           with space already free — then no space-freed signal will ever
           come, and an untimed wait would sleep forever. *)
        ignore (Waitq.wait_timeout t.space_q (Sim_time.us 100));
        attempt ()
  in
  attempt ()

let queue_message (ctx : Ctx.t) t (msg : Message.t) =
  msg.state <- Message.Queued;
  Queue.add msg t.queue;
  Stats.Counter.incr t.put_count;
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
  msg.on_disown msg;
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

let try_begin_get (ctx : Ctx.t) t =
  ctx.work Costs.mbox_begin_get_ns;
  match Queue.take_opt t.queue with
  | None -> None
  | Some msg ->
      msg.state <- Message.Reading;
      (* a capacity-bounded mailbox admits a blocked writer as soon as a
         slot opens, not only when the reader finishes with the bytes *)
      if t.capacity <> None then ignore (Waitq.broadcast t.space_q);
      Stats.Counter.incr t.get_count;
      Vet_hook.msg_event ctx ~uid:msg.Message.uid ~mailbox:t.mname
        Vet_hook.Begin_get;
      Some msg

let begin_get ctx t =
  Ctx.assert_may_block ctx "Mailbox.begin_get";
  let rec attempt () =
    match try_begin_get ctx t with
    | Some msg -> msg
    | None ->
        Vet_hook.blocking ctx ~op:("Mailbox.begin_get " ^ t.mname);
        Waitq.wait t.data_q;
        attempt ()
  in
  attempt ()

let end_get ctx (msg : Message.t) =
  Vet_hook.msg_event ctx ~uid:msg.Message.uid ~mailbox:"" Vet_hook.End_get;
  if msg.state <> Message.Reading then
    invalid_arg "Mailbox.end_get: message not held by a reader";
  msg.on_end_get ctx msg

let enqueue (ctx : Ctx.t) (msg : Message.t) dst =
  (match msg.state with
  | Message.Reading | Message.Writing -> ()
  | Message.Queued | Message.Freed ->
      invalid_arg "Mailbox.enqueue: message not held by the caller");
  ctx.work Costs.mbox_enqueue_ns;
  if dst.overflow = `Drop && queue_full dst then overflow_drop ctx dst msg
  else begin
    Vet_hook.msg_event ctx ~uid:msg.Message.uid ~mailbox:dst.mname
      (Vet_hook.Enqueue { dst = dst.mname });
    (* Transfer accounting from the current owner, then adopt; the buffer
       itself stays put — only queue pointers move (paper §3.3).  A
       [`Block] destination at capacity still accepts, like the byte
       limit: enqueue must stay non-blocking for interrupt callers. *)
    msg.on_disown msg;
    dst.in_use <- dst.in_use + msg.buf_len;
    install dst msg;
    queue_message ctx dst msg
  end

let queued_messages t = Queue.length t.queue

let queued_bytes t =
  Queue.fold (fun acc m -> acc + Message.length m) 0 t.queue

let bytes_in_use t = t.in_use
let overflow_drops t = t.overflow_drop_count
let puts t = Stats.Counter.value t.put_count
let gets t = Stats.Counter.value t.get_count
let cache_hits t = Stats.Counter.value t.cache_hit_count

let register_metrics t reg ~prefix =
  let base = prefix ^ "mbox." ^ name t ^ "." in
  Nectar_util.Metrics.counter reg (base ^ "puts") (fun () -> puts t);
  Nectar_util.Metrics.counter reg (base ^ "gets") (fun () -> gets t);
  Nectar_util.Metrics.counter reg (base ^ "cache_hits") (fun () -> cache_hits t);
  Nectar_util.Metrics.counter reg (base ^ "overflow_drops") (fun () ->
      overflow_drops t);
  Nectar_util.Metrics.gauge reg (base ^ "bytes_in_use") (fun () ->
      float_of_int (bytes_in_use t))
