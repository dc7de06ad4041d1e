open Nectar_sim
module Tbl = Nectar_util.Int_key.Tbl

type pending = {
  pframe : Nectar_hub.Frame.t;
  mutable arrived : int; (* bytes pushed into the FIFO so far *)
  mutable consumed : int; (* bytes popped out of the FIFO so far *)
  arrival : Waitq.t;
}

type t = {
  eng : Engine.t;
  irq : Interrupts.t;
  fifo : Byte_fifo.t;
  rname : string;
  dma_name : string; (* the per-frame DMA process name *)
  mutable handler : (Interrupts.ctx -> pending -> unit) option;
  mutable drops : int;
  mutable coalesce_ns : Sim_time.span;
  (* receive-completion coalescing (inert at [coalesce_ns = 0]): completion
     callbacks gather here for up to [coalesce_ns], then run in one
     interrupt — one dispatch charge for the whole batch *)
  mutable batch : (Interrupts.ctx -> unit) list; (* newest first *)
  mutable batch_armed : bool;
  mutable batches : int;
}

let create eng irq ~fifo ?(coalesce_ns = 0) ~name () =
  if coalesce_ns < 0 then invalid_arg "Rx.create: negative coalesce_ns";
  {
    eng;
    irq;
    fifo;
    rname = name;
    dma_name = name ^ ".rx-dma";
    handler = None;
    drops = 0;
    coalesce_ns;
    batch = [];
    batch_armed = false;
    batches = 0;
  }

let set_coalesce_ns t ns =
  if ns < 0 then invalid_arg "Rx.set_coalesce_ns: negative coalesce_ns";
  t.coalesce_ns <- ns

let set_frame_handler t fn = t.handler <- Some fn

let frame p = p.pframe
let arrived p = p.arrived
let total p = Nectar_hub.Frame.length p.pframe

let sink t =
  let table : pending Tbl.t = Tbl.create 8 in
  let on_frame_start fr =
    let p =
      {
        pframe = fr;
        arrived = 0;
        consumed = 0;
        arrival = Waitq.create t.eng;
      }
    in
    Tbl.replace table fr.Nectar_hub.Frame.id p;
    match t.handler with
    | Some fn -> Interrupts.post t.irq ~name:"rx-frame" (fun ictx -> fn ictx p)
    | None -> failwith (t.rname ^ ": frame arrived with no rx handler")
  in
  let on_chunk fr ~arrived ~last =
    match Tbl.find_opt table fr.Nectar_hub.Frame.id with
    | None -> failwith (t.rname ^ ": chunk for unknown frame")
    | Some p ->
        p.arrived <- arrived;
        if last then Tbl.remove table fr.Nectar_hub.Frame.id;
        ignore (Waitq.broadcast p.arrival)
  in
  { Nectar_hub.Network.in_fifo = t.fifo; on_frame_start; on_chunk }

(* Take [n] bytes out of the input FIFO, returning their frame offset. *)
let consume t p n =
  if p.consumed + n > p.arrived then
    invalid_arg (t.rname ^ ": Rx.read_view beyond arrived data");
  if not (Byte_fifo.try_pop t.fifo n) then
    invalid_arg (t.rname ^ ": Rx.read_view FIFO underflow");
  let pos = p.consumed in
  p.consumed <- p.consumed + n;
  pos

let read_view t p n =
  let pos = consume t p n in
  let ((_, off) as view) = Nectar_hub.Frame.view p.pframe ~pos ~len:n in
  if off >= 0 then view
  else begin
    (* the requested range straddles a scatter/gather extent boundary, so
       no borrowed view exists; fall back to a (counted) copy *)
    Nectar_util.Copy_meter.record ~owner:t.rname Nectar_util.Copy_meter.Rxread
      n;
    let scratch = Bytes.create n in
    Nectar_hub.Frame.blit p.pframe ~pos ~dst:scratch ~dst_pos:0 ~len:n;
    (scratch, 0)
  end

let read_bytes t p n =
  let pos = consume t p n in
  Nectar_util.Copy_meter.record ~owner:t.rname Nectar_util.Copy_meter.Rxread n;
  let out = Bytes.create n in
  Nectar_hub.Frame.blit p.pframe ~pos ~dst:out ~dst_pos:0 ~len:n;
  out

(* Copy loop shared by DMA-to-memory and discard: consume bytes as they
   arrive, at memory-DMA speed, invoking [deliver] for each span.  Once the
   whole frame has been drained the receiving CAB is its last holder, so
   the frame is released here — dropping the sender-side buffer references
   that backed its extents. *)
let drain_loop t p ~deliver ~on_done =
  let len = total p in
  Engine.spawn t.eng ~name:t.dma_name (fun () ->
      let tid = Trace.span_begin ~track:t.rname "rx.dma" in
      while p.consumed < len do
        while p.arrived <= p.consumed do
          Waitq.wait p.arrival
        done;
        let n = p.arrived - p.consumed in
        Byte_fifo.pop t.fifo n;
        Engine.sleep t.eng (n * Costs.mem_dma_ns_per_byte);
        deliver ~pos:p.consumed ~len:n;
        p.consumed <- p.consumed + n
      done;
      Trace.span_end tid;
      (* [on_done] first: it captures the hardware CRC verdict from the
         frame's extents, and the release below may drop the last reference
         to the sender-side buffer backing them *)
      on_done ();
      Nectar_hub.Frame.release p.pframe)

(* Run [cb] at interrupt level, either on its own ([coalesce_ns = 0]: one
   dispatch per completion, the paper's behaviour) or folded into a batch
   flushed [coalesce_ns] after its first member arrived. *)
let post_completion t cb =
  if t.coalesce_ns = 0 then Interrupts.post t.irq ~name:"rx-done" cb
  else begin
    t.batch <- cb :: t.batch;
    if not t.batch_armed then begin
      t.batch_armed <- true;
      ignore
        (Engine.after t.eng t.coalesce_ns (fun () ->
             t.batch_armed <- false;
             let cbs = List.rev t.batch in
             t.batch <- [];
             t.batches <- t.batches + 1;
             Trace.instant ~track:t.rname "rx.batch";
             Interrupts.post t.irq ~name:"rx-done-batch" (fun ictx ->
                 List.iter (fun cb -> cb ictx) cbs)))
    end
  end

(* Watches fire in offset order; most frames carry none or one, which
   need no sort. *)
let by_offset ((a : int), _) (b, _) = Int.compare a b

let dma_to_memory t p ~dst ~dst_pos ?(watch = []) ~on_complete () =
  let base = p.consumed in
  let watch =
    match watch with [] | [ _ ] -> watch | _ -> List.sort by_offset watch
  in
  let remaining_watches = ref watch in
  let deliver ~pos ~len =
    (* the modelled receive-DMA engine: hardware moves these bytes, so this
       is not a software copy and is not metered *)
    Nectar_hub.Frame.blit p.pframe ~pos ~dst:(Nectar_util.Region.bytes dst)
      ~dst_pos:(dst_pos + pos - base) ~len;
    let copied_to = pos + len in
    let rec fire () =
      match !remaining_watches with
      | (off, fn) :: rest when off <= copied_to ->
          remaining_watches := rest;
          Interrupts.post t.irq ~name:"rx-watch" fn;
          fire ()
      | _ -> ()
    in
    fire ()
  in
  let on_done () =
    let ok = Nectar_hub.Frame.crc_ok p.pframe in
    post_completion t (fun ictx -> on_complete ictx ~crc_ok:ok)
  in
  drain_loop t p ~deliver ~on_done

let discard t p =
  t.drops <- t.drops + 1;
  Trace.instant ~track:t.rname "rx.drop";
  drain_loop t p ~deliver:(fun ~pos:_ ~len:_ -> ()) ~on_done:(fun () -> ())

let dropped_frames t = t.drops
let completion_batches t = t.batches

let register_metrics t reg ~prefix =
  Nectar_util.Metrics.counter reg (prefix ^ "rx.dropped_frames") (fun () ->
      dropped_frames t);
  Nectar_util.Metrics.counter reg (prefix ^ "rx.completion_batches") (fun () ->
      completion_batches t)
