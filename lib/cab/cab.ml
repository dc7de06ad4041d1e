open Nectar_sim

module Frame = Nectar_hub.Frame

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
  tx_queue : Frame.t Nectar_util.Ring.t; (* descriptors awaiting tx DMA *)
  tx_ready : Waitq.t;
  fiber_queue : Frame.t Nectar_util.Ring.t; (* latched, awaiting the fiber *)
  fiber_ready : Waitq.t;
  mutable vme_bus : Vme.t option;
  mutable tx_count : int;
}

(* The tx-done interrupt: the descriptor is complete. *)
let tx_done _ f = Frame.sent f

let tx_dma_process t () =
  while true do
    while Nectar_util.Ring.is_empty t.tx_queue do
      Waitq.wait t.tx_ready
    done;
    let frame = Nectar_util.Ring.pop t.tx_queue in
    let tid = Trace.span_begin ~track:t.cname "tx.dma" in
    (* Zero-copy: the frame's scatter/gather extents reference the sender's
       buffers directly (the frame id and the hardware CRC are latched
       here, at dequeue time); the simulated DMA then reads them out of
       memory into the output FIFO at memory speed.  The buffer references
       travel with the frame and are dropped when the receiver drains it
       (or the wire swallows it) — the sender's [sent] still runs right
       after the output-FIFO DMA, as the hardware's descriptor-complete
       interrupt always did. *)
    Frame.latch frame ~id:(Nectar_hub.Network.next_frame_id t.net);
    Nectar_util.Ring.push t.fiber_queue frame;
    ignore (Waitq.signal t.fiber_ready);
    let remaining = ref (Frame.length frame) in
    while !remaining > 0 do
      let n = Int.min !remaining (Byte_fifo.capacity t.out_fifo) in
      let n = Int.min n Nectar_hub.Network.chunk_bytes in
      Byte_fifo.push t.out_fifo n;
      Engine.sleep t.eng (n * Costs.mem_dma_ns_per_byte);
      remaining := !remaining - n
    done;
    Trace.span_end tid;
    Interrupts.post_with t.irq_ctl ~name:"tx-done" tx_done frame;
    t.tx_count <- t.tx_count + 1
  done

let fiber_tx_process t () =
  while true do
    while Nectar_util.Ring.is_empty t.fiber_queue do
      Waitq.wait t.fiber_ready
    done;
    let frame = Nectar_util.Ring.pop t.fiber_queue in
    Nectar_hub.Network.transmit t.net ~header_bytes:(Frame.header_bytes frame)
      ~src:t.nid ~route:frame.route frame;
    (* The wire has carried the whole frame: those bytes have left the
       output FIFO. *)
    let remaining = ref (Frame.length frame) in
    while !remaining > 0 do
      let n = Int.min !remaining Nectar_hub.Network.chunk_bytes in
      Byte_fifo.pop t.out_fifo n;
      remaining := !remaining - n
    done
  done

let create ?data_bytes net ~hub ~port ~name =
  let eng = Nectar_hub.Network.engine net in
  let cab_cpu = Cpu.create eng ~name:(name ^ ".cpu") () in
  let irq_ctl = Interrupts.create eng cab_cpu ~name () in
  let in_fifo = Byte_fifo.create eng ~capacity:Costs.fifo_bytes ~name:"in" in
  let out_fifo = Byte_fifo.create eng ~capacity:Costs.fifo_bytes ~name:"out" in
  let rx_engine = Rx.create eng irq_ctl ~fifo:in_fifo ~name in
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
      tx_queue = Nectar_util.Ring.create ~dummy:Frame.filler;
      tx_ready = Waitq.create eng;
      fiber_queue = Nectar_util.Ring.create ~dummy:Frame.filler;
      fiber_ready = Waitq.create eng;
      vme_bus = None;
      tx_count = 0;
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
   through the tx DMA (running the owner's [sent]) and the bytes die on
   the dark fiber, whose release of each frame frees the senders' buffers,
   so nothing leaks.  Runtime state survives, making a restart a warm one;
   peers observe only timeouts and recover through their retransmission
   machinery. *)
let crash t = Nectar_hub.Network.set_node_up t.net t.nid false
let restart t = Nectar_hub.Network.set_node_up t.net t.nid true
let powered t = Nectar_hub.Network.node_up t.net t.nid

let send t frame =
  if Frame.header_bytes frame < 1 then
    invalid_arg "Cab.send: header_bytes must be at least 1";
  if Frame.length frame <= 0 then invalid_arg "Cab.send: empty frame";
  Nectar_util.Ring.push t.tx_queue frame;
  ignore (Waitq.signal t.tx_ready)

let frames_tx t = t.tx_count
let in_fifo_level t = Byte_fifo.level t.in_fifo
