open Nectar_sim

type tx_req = {
  route : int list;
  header_bytes : int;
  extents : (Nectar_util.Region.t * int * int) list;
  len : int;
  release : unit -> unit;
  on_done : Interrupts.ctx -> unit;
}

type fiber_item = { frame : Nectar_hub.Frame.t; froute : int list; fhdr : int }

type t = {
  cname : string;
  net : Nectar_hub.Network.t;
  eng : Engine.t;
  cab_cpu : Cpu.t;
  mem : Memory.t;
  irq_ctl : Interrupts.t;
  in_fifo : Byte_fifo.t;
  out_fifo : Byte_fifo.t;
  rx_engine : Rx.t;
  mutable nid : Nectar_hub.Network.node_id;
  tx_queue : tx_req Queue.t;
  tx_ready : Waitq.t;
  fiber_queue : fiber_item Queue.t;
  fiber_ready : Waitq.t;
  mutable vme_bus : Vme.t option;
  tx_count : Stats.Counter.t;
}

let tx_dma_process t () =
  while true do
    while Queue.is_empty t.tx_queue do
      Waitq.wait t.tx_ready
    done;
    let req = Queue.take t.tx_queue in
    let tid = Trace.span_begin ~track:t.cname "tx.dma" in
    (* Zero-copy: the frame's scatter/gather extents reference the sender's
       buffers directly (the hardware CRC is latched here, at dequeue time);
       the simulated DMA then reads them out of memory into the output FIFO
       at memory speed.  The buffer references travel with the frame and are
       dropped when the receiver drains it (or the wire swallows it) — the
       sender's [on_done] still fires right after the output-FIFO DMA, as
       the hardware's descriptor-complete interrupt always did. *)
    let frame =
      Nectar_hub.Frame.create_sg
        ~id:(Nectar_hub.Network.next_frame_id t.net)
        ~src:t.nid ~extents:req.extents ~on_release:req.release
    in
    Queue.add
      { frame; froute = req.route; fhdr = req.header_bytes }
      t.fiber_queue;
    ignore (Waitq.signal t.fiber_ready);
    let remaining = ref req.len in
    while !remaining > 0 do
      let n = min !remaining (Byte_fifo.capacity t.out_fifo) in
      let n = min n Costs.chunk_bytes in
      Byte_fifo.push t.out_fifo n;
      Engine.sleep t.eng (n * Costs.mem_dma_ns_per_byte);
      remaining := !remaining - n
    done;
    Trace.span_end tid;
    Interrupts.post t.irq_ctl ~name:"tx-done" req.on_done;
    Stats.Counter.incr t.tx_count
  done

let fiber_tx_process t () =
  while true do
    while Queue.is_empty t.fiber_queue do
      Waitq.wait t.fiber_ready
    done;
    let item = Queue.take t.fiber_queue in
    Nectar_hub.Network.transmit t.net ~header_bytes:item.fhdr ~src:t.nid
      ~route:item.froute item.frame;
    (* The wire has carried the whole frame: those bytes have left the
       output FIFO. *)
    let remaining = ref (Nectar_hub.Frame.length item.frame) in
    while !remaining > 0 do
      let n = min !remaining Costs.chunk_bytes in
      Byte_fifo.pop t.out_fifo n;
      remaining := !remaining - n
    done
  done

let create ?data_bytes net ~hub ~port ~name =
  let eng = Nectar_hub.Network.engine net in
  let cab_cpu = Cpu.create eng ~name:(name ^ ".cpu") () in
  let irq_ctl = Interrupts.create eng cab_cpu ~name () in
  let in_fifo =
    Byte_fifo.create eng ~capacity:Costs.fifo_bytes ~name:(name ^ ".in-fifo")
  in
  let out_fifo =
    Byte_fifo.create eng ~capacity:Costs.fifo_bytes
      ~name:(name ^ ".out-fifo")
  in
  let rx_engine = Rx.create eng irq_ctl ~fifo:in_fifo ~name () in
  let t =
    {
      cname = name;
      net;
      eng;
      cab_cpu;
      mem = Memory.create ?data_bytes ();
      irq_ctl;
      in_fifo;
      out_fifo;
      rx_engine;
      nid = -1;
      tx_queue = Queue.create ();
      tx_ready = Waitq.create eng ~name:(name ^ ".tx-ready") ();
      fiber_queue = Queue.create ();
      fiber_ready = Waitq.create eng ~name:(name ^ ".fiber-ready") ();
      vme_bus = None;
      tx_count = Stats.Counter.create ();
    }
  in
  t.nid <- Nectar_hub.Network.attach_node net ~hub ~port (Rx.sink rx_engine);
  Engine.spawn eng ~name:(name ^ ".tx-dma") (tx_dma_process t);
  Engine.spawn eng ~name:(name ^ ".fiber-tx") (fiber_tx_process t);
  t

let name t = t.cname
let node_id t = t.nid
let engine t = t.eng
let cpu t = t.cab_cpu
let memory t = t.mem
let irq t = t.irq_ctl
let rx t = t.rx_engine
let network t = t.net
let vme t = t.vme_bus
let attach_vme t v = t.vme_bus <- Some v

(* A crash is modelled as the board dropping off the fabric: its
   attachment link goes down, so every frame it emits or is sent is
   blackholed until restart.  Descriptors already queued still flow
   through the tx DMA (firing [on_done], so senders' buffers are released
   and nothing leaks) — the bytes just die on the dark fiber.  Runtime
   state survives, making a restart a warm one; peers observe only
   timeouts and recover through their retransmission machinery. *)
let crash t = Nectar_hub.Network.set_node_up t.net t.nid false
let restart t = Nectar_hub.Network.set_node_up t.net t.nid true
let powered t = Nectar_hub.Network.node_up t.net t.nid

let send_frame t ~route ~header_bytes ?(release = fun () -> ()) ~extents
    ~on_done () =
  let len = List.fold_left (fun acc (_, _, n) -> acc + n) 0 extents in
  if len <= 0 then invalid_arg "Cab.send_frame: empty frame";
  Queue.add { route; header_bytes; extents; len; release; on_done } t.tx_queue;
  ignore (Waitq.signal t.tx_ready)

let frames_tx t = Stats.Counter.value t.tx_count
let in_fifo_level t = Byte_fifo.level t.in_fifo
