open Nectar_sim
module Frame = Nectar_hub.Frame

type ('c, 'a) client = {
  watched : Interrupts.ctx -> Frame.t -> 'c -> 'a -> unit;
  completed : Interrupts.ctx -> Frame.t -> 'c -> 'a -> unit;
}

(* A frame's receive state while its DMA runs and until its completion
   interrupt: the client, its context and the frame's value. *)
type Frame.rx +=
  | Receiving : {
      client : ('c, 'a) client;
      context : 'c;
      value : 'a;
    }
      -> Frame.rx

type t = {
  eng : Engine.t;
  irq : Interrupts.t;
  fifo : Byte_fifo.t;
  rname : string;
  dma_name : string; (* the per-frame DMA process name *)
  mutable handler : (Interrupts.ctx -> Frame.t -> unit) option;
  mutable view_off : int; (* where the last [read_view] span starts *)
  mutable drops : int;
  mutable coalesce_ns : Sim_time.span;
  (* receive-completion coalescing (inert at [coalesce_ns = 0]): completed
     frames gather here for up to [coalesce_ns], then complete in one
     interrupt — one dispatch charge for the whole batch *)
  mutable batch : Frame.t list; (* newest first *)
  mutable batch_armed : bool;
  mutable batches : int;
}

let create eng irq ~fifo ~name =
  {
    eng;
    irq;
    fifo;
    rname = name;
    dma_name = name ^ ".rx-dma";
    handler = None;
    view_off = 0;
    drops = 0;
    coalesce_ns = 0;
    batch = [];
    batch_armed = false;
    batches = 0;
  }

let set_coalesce_ns t ns =
  if ns < 0 then invalid_arg "Rx.set_coalesce_ns: negative coalesce_ns";
  t.coalesce_ns <- ns

let set_frame_handler t fn = t.handler <- Some fn

let arrived (p : Frame.t) = p.arrived
let total p = Frame.length p

(* The fabric's side: the start-of-packet interrupt gets the frame
   itself, and each chunk wakes the DMA parked on the frame, if any. *)
let sink t =
  let on_frame_start (f : Frame.t) =
    match t.handler with
    | Some fn -> Interrupts.post_with t.irq ~name:"rx-frame" fn f
    | None -> failwith (t.rname ^ ": frame arrived with no rx handler")
  in
  let on_chunk (f : Frame.t) ~arrived ~last:_ =
    f.arrived <- arrived;
    let w = f.waiter in
    if w != Engine.no_waker then begin
      f.waiter <- Engine.no_waker;
      Engine.wake t.eng w
    end
  in
  { Nectar_hub.Network.in_fifo = t.fifo; on_frame_start; on_chunk }

(* Take [n] bytes out of the input FIFO, returning their frame offset. *)
let consume t (p : Frame.t) n =
  if p.consumed + n > p.arrived then
    invalid_arg (t.rname ^ ": Rx.read_view beyond arrived data");
  if not (Byte_fifo.try_pop t.fifo n) then
    invalid_arg (t.rname ^ ": Rx.read_view FIFO underflow");
  let pos = p.consumed in
  p.consumed <- p.consumed + n;
  pos

let read_view t (p : Frame.t) n =
  let pos = consume t p n in
  if pos + n <= p.len then begin
    t.view_off <- p.off + pos;
    Frame.inline_bytes p ~pos ~len:n
  end
  else begin
    (* the span is not in the inline extent, so no borrowed view is
       kept; fall back to a (counted) copy *)
    t.view_off <- 0;
    Nectar_util.Copy_meter.(record ~owner:t.rname Rxread n);
    let out = Bytes.create n in
    Frame.blit p ~pos ~dst:out ~dst_pos:0 ~len:n;
    out
  end

let view_offset t = t.view_off

(* The interrupt handlers of a received frame: static, the frame is the
   argument. *)
let watched ictx (p : Frame.t) =
  match p.rx with
  | Receiving { client; context; value } -> client.watched ictx p context value
  | _ -> ()

let completed ictx (p : Frame.t) =
  match p.rx with
  | Receiving { client; context; value } ->
      client.completed ictx p context value
  | _ -> ()

let rec complete_all ictx = function
  | [] -> ()
  | p :: rest ->
      completed ictx p;
      complete_all ictx rest

(* Complete [p] at interrupt level, either on its own ([coalesce_ns = 0]:
   one dispatch per completion, the paper's behaviour) or folded into a
   batch flushed [coalesce_ns] after its first member arrived. *)
let post_completion t p =
  if t.coalesce_ns = 0 then Interrupts.post_with t.irq ~name:"rx-done" completed p
  else begin
    t.batch <- p :: t.batch;
    if not t.batch_armed then begin
      t.batch_armed <- true;
      ignore
        (Engine.after t.eng t.coalesce_ns (fun () ->
             t.batch_armed <- false;
             let ps = List.rev t.batch in
             t.batch <- [];
             t.batches <- t.batches + 1;
             Trace.instant ~track:t.rname "rx.batch";
             Interrupts.post_with t.irq ~name:"rx-done-batch" complete_all ps))
    end
  end

(* The DMA process of one frame, shared by [receive] and [discard]:
   consume bytes as they arrive, at memory-DMA speed, copying each span
   into [dst] at [base] plus its frame offset when receiving.  Once the
   whole frame has been drained the receiving CAB is its last holder, so
   the frame is released here — dropping the sender-side buffer
   references that backed its extents. *)
let dma t (p : Frame.t) dst base watch_at =
  let tid = Trace.span_begin ~track:t.rname "rx.dma" in
  let len = Frame.length p in
  let watch = ref watch_at in
  while p.consumed < len do
    while p.arrived <= p.consumed do
      p.waiter <- Engine.waker t.eng;
      Engine.block t.eng
    done;
    let n = p.arrived - p.consumed in
    Byte_fifo.pop t.fifo n;
    Engine.sleep t.eng (n * Costs.mem_dma_ns_per_byte);
    (match p.rx with
    | Receiving _ ->
        (* the modelled receive-DMA engine: hardware moves these bytes,
           so this is not a software copy and is not metered *)
        Frame.blit p ~pos:p.consumed ~dst:(Nectar_util.Region.bytes dst)
          ~dst_pos:(base + p.consumed) ~len:n;
        p.consumed <- p.consumed + n;
        if p.consumed >= !watch then begin
          Interrupts.post_with t.irq ~name:"rx-watch" watched p;
          watch := max_int
        end
    | _ -> p.consumed <- p.consumed + n)
  done;
  Trace.span_end tid;
  (match p.rx with
  | Receiving _ ->
      (* the verdict first: the release below may drop the last reference
         to the sender-side buffer behind the extents *)
      Frame.set_crc_verdict p (Frame.crc_ok p);
      post_completion t p
  | _ -> ());
  Frame.release p

let receive t (p : Frame.t) ~dst ~dst_pos ~watch_at client context value =
  p.rx <- Receiving { client; context; value };
  let base = dst_pos - p.consumed in
  Engine.spawn t.eng ~name:t.dma_name (fun () -> dma t p dst base watch_at)

let no_dst = Nectar_util.Region.of_bytes Bytes.empty

let discard t p =
  t.drops <- t.drops + 1;
  Trace.instant ~track:t.rname "rx.drop";
  Engine.spawn t.eng ~name:t.dma_name (fun () -> dma t p no_dst 0 max_int)

let dropped_frames t = t.drops
let completion_batches t = t.batches

let register_metrics t reg ~prefix =
  Nectar_util.Metrics.counter reg (prefix ^ "rx.dropped_frames") (fun () ->
      dropped_frames t);
  Nectar_util.Metrics.counter reg (prefix ^ "rx.completion_batches") (fun () ->
      completion_batches t)
