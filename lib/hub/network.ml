(* The Nectar fabric (paper section 2.1): HUB crossbars joined by fiber,
   CABs on HUB ports, frames sent along source routes by cut-through
   circuit switching.

   A frame's trip allocates nothing per hop or per chunk.  The source
   route (an [int list] of output ports) is validated by one walk, then
   walked again in place: [acquire_hops] takes each HUB's controller and
   output port in route order, [stream] pushes the chunks (sizes by
   arithmetic, [chunk_at]), and [release_hops] gives the ports back in
   reverse route order.  [transmit] and [inject] share all of it. *)

open Nectar_sim

type node_id = int

type sink = {
  in_fifo : Byte_fifo.t;
  on_frame_start : Frame.t -> unit;
  on_chunk : Frame.t -> arrived:int -> last:bool -> unit;
}

type fault_verdict = [ `Deliver | `Drop | `Corrupt | `Corrupt_burst of int ]

type port_peer = Free | To_node of node_id | To_hub of int * int | To_remote of int

type port = {
  out_res : Resource.t;
  mutable peer : port_peer;
  mutable up : bool;
  mutable remote_latency : int;
      (* one-way latency of a partition-boundary fiber, ns; 0 unless
         [peer = To_remote _] *)
}

type hub = { controller : Resource.t; ports : port array }

type node = { sink : sink; node_hub : int; node_port : int }

type t = {
  eng : Engine.t;
  hubs : hub array;
  mutable nodes : node array; (* doubling; the first [n_nodes] are live *)
  mutable n_nodes : int;
  mutable fault : (Frame.t -> fault_verdict) option;
  mutable link_watchers : (hub:int -> port:int -> up:bool -> unit) list;
  mutable remote_forward :
    (link:int ->
    at:Sim_time.t ->
    route:int list ->
    src:node_id ->
    frame_id:int ->
    wire_crc:int ->
    payload:string ->
    unit)
    option;
  mutable frame_ids : int;
  mutable frames : int;
  mutable bytes : int;
  mutable delivered : int;
  mutable fault_drops_count : int;
  mutable corrupted : int;
  mutable link_down_count : int;
  mutable remote_out : int;
  mutable remote_in : int;
  mutable port_waits_count : int;
  mutable port_wait_ns_total : int;
}

(* The fabric hardware (paper section 2.1). *)
let ports_per_hub = 16
let fiber_ns_per_byte = 80 (* 100 Mbit/s *)
let hub_setup_ns = 700
let hop_latency_ns = 300
let chunk_bytes = 512

let create eng ~hubs () =
  if hubs < 1 then invalid_arg "Network.create: need at least one hub";
  let make_hub _ =
    {
      controller = Resource.create eng ();
      ports =
        Array.init ports_per_hub (fun _ ->
            {
              out_res = Resource.create eng ();
              peer = Free;
              up = true;
              remote_latency = 0;
            });
    }
  in
  {
    eng;
    hubs = Array.init hubs make_hub;
    nodes = [||];
    n_nodes = 0;
    fault = None;
    link_watchers = [];
    remote_forward = None;
    frame_ids = 0;
    frames = 0;
    bytes = 0;
    delivered = 0;
    fault_drops_count = 0;
    corrupted = 0;
    link_down_count = 0;
    remote_out = 0;
    remote_in = 0;
    port_waits_count = 0;
    port_wait_ns_total = 0;
  }

let engine t = t.eng
let hub_count t = Array.length t.hubs

let port t hub p =
  if hub < 0 || hub >= Array.length t.hubs then
    invalid_arg "Network: bad hub index";
  let h = t.hubs.(hub) in
  if p < 0 || p >= Array.length h.ports then
    invalid_arg "Network: bad port index";
  h.ports.(p)

let connect_hubs t (ha, pa) (hb, pb) =
  let a = port t ha pa and b = port t hb pb in
  (match (a.peer, b.peer) with
  | Free, Free -> ()
  | _ -> invalid_arg "Network.connect_hubs: port already in use");
  a.peer <- To_hub (hb, pb);
  b.peer <- To_hub (ha, pa)

(* A partition-boundary trunk: the far end of this port lives in another
   partition's network, [latency_ns] away.  Frames routed into it are
   serialized locally (the port is a real contended resource), then
   handed whole to the [remote_forward] hook; [link] is an opaque id the
   embedding layer uses to name the far-end hub. *)
let connect_remote t (hub, p) ~link ~latency_ns =
  if latency_ns <= 0 then
    invalid_arg "Network.connect_remote: latency must be positive";
  let port = port t hub p in
  if port.peer <> Free then
    invalid_arg "Network.connect_remote: port already in use";
  port.peer <- To_remote link;
  port.remote_latency <- latency_ns

let set_remote_forward t hook = t.remote_forward <- hook

let attach_node t ~hub ~port:p sink =
  let port = port t hub p in
  if port.peer <> Free then invalid_arg "Network.attach_node: port in use";
  let id = t.n_nodes in
  let n = { sink; node_hub = hub; node_port = p } in
  if id = Array.length t.nodes then begin
    (* the new node fills the spare slots; only [n_nodes] are read *)
    let grown = Array.make (max 8 (2 * id)) n in
    Array.blit t.nodes 0 grown 0 id;
    t.nodes <- grown
  end;
  port.peer <- To_node id;
  t.nodes.(id) <- n;
  t.n_nodes <- id + 1;
  id

let node_count t = t.n_nodes

let node t id =
  if id < 0 || id >= t.n_nodes then
    invalid_arg "Network: bad node id";
  t.nodes.(id)

let peer t ~hub ~port:p = (port t hub p).peer
let port_up t ~hub ~port:p = (port t hub p).up

let node_attachment t id =
  let n = node t id in
  (n.node_hub, n.node_port)

(* Where a route ends: at a locally attached node, or at a boundary port
   whose far end (and the rest of the route) belongs to another
   partition's network. *)
type route_target =
  | Local of node_id
  | Remote of { link : int; boundary : port; rest : int list }

(* The one validating walk over a source route: bounds-checks every hop
   and returns where the route ends, how many HUBs it crosses and
   whether any of their output ports is down.  The circuit then walks
   the same list in place ([acquire_hops], [release_hops]). *)
let rec check_route t hub_idx route_ports hops down =
  match route_ports with
  | [] -> invalid_arg "Network.transmit: empty route"
  | pi :: rest -> (
      let p = port t hub_idx pi in
      let hops = hops + 1 and down = down || not p.up in
      match p.peer with
      | Free -> invalid_arg "Network.transmit: route into unconnected port"
      | To_node n ->
          if rest <> [] then
            invalid_arg "Network.transmit: route continues past a node";
          (Local n, hops, down)
      | To_remote link -> (Remote { link; boundary = p; rest }, hops, down)
      | To_hub (h2, _) -> check_route t h2 rest hops down)

let on_link_change t f = t.link_watchers <- f :: t.link_watchers

(* Transition-only: double-down and double-up are idempotent no-ops, so
   link watchers (route recomputation, traces) fire exactly once per real
   state change and never during steady state. *)
let set_link_up t ~hub ~port:p up =
  let port = port t hub p in
  if port.up <> up then begin
    port.up <- up;
    List.iter (fun f -> f ~hub ~port:p ~up) t.link_watchers
  end

(* A node's link is the fiber pair on its attachment port: taking it down
   severs the node in both directions (its HUB port neither accepts nor
   emits frames), which is also how a crashed CAB looks to the fabric. *)
let set_node_up t id up =
  let n = node t id in
  set_link_up t ~hub:n.node_hub ~port:n.node_port up

let node_up t id =
  let n = node t id in
  (port t n.node_hub n.node_port).up

(* Chunk sizes: a small first chunk so the start-of-packet event fires as
   soon as the datalink header is in, a small second chunk covering
   typical protocol headers, then full chunks.  [chunk_at] is the size of
   the chunk starting at [off]. *)
let chunk_at ~header_bytes total off =
  if off = 0 then Int.min header_bytes total
  else if off = header_bytes then Int.min 64 (total - off)
  else Int.min chunk_bytes (total - off)

(* Circuit setup, in route order: one controller command per HUB, then
   that HUB's output port, held until the frame has streamed through.
   This is the one place a circuit takes ports.  A tail loop, so a
   process parked on a port keeps a one-frame stack however long its
   route.

   Contention accounting: setup takes exactly [hub_setup_ns] per hop when
   every controller and port is idle; any time beyond that was spent
   queued behind other circuits, and is charged to the hop that waited
   (one [port_waits] tick per contended port).  The fleet bench reads
   this as HUB port contention. *)
let rec acquire_hops t hub_idx route_ports =
  match route_ports with
  | [] -> ()
  | pi :: rest -> (
      let h = t.hubs.(hub_idx) in
      let p = h.ports.(pi) in
      let hop_start = Engine.now t.eng in
      Resource.use h.controller hub_setup_ns;
      Resource.acquire p.out_res;
      let waited = Engine.now t.eng - hop_start - hub_setup_ns in
      if waited > 0 then begin
        t.port_waits_count <- t.port_waits_count + 1;
        t.port_wait_ns_total <- t.port_wait_ns_total + waited
      end;
      match p.peer with
      | To_hub (h2, _) -> acquire_hops t h2 rest
      | Free | To_node _ | To_remote _ -> ())

(* Tear the circuit down in reverse route order: the destination side's
   port first, the source HUB's last.  Never parks, so the recursion's
   depth is never kept on a parked stack. *)
let rec release_hops t hub_idx route_ports =
  match route_ports with
  | [] -> ()
  | pi :: rest ->
      let p = t.hubs.(hub_idx).ports.(pi) in
      (match p.peer with
      | To_hub (h2, _) -> release_hops t h2 rest
      | Free | To_node _ | To_remote _ -> ());
      Resource.release p.out_res

(* Stream the frame into the destination FIFO chunk by chunk, at fiber
   rate; a full FIFO blocks the push (the HUB's flow control). *)
let rec stream t sink frame ~header_bytes total off =
  if off < total then begin
    let n = chunk_at ~header_bytes total off in
    Engine.sleep t.eng (n * fiber_ns_per_byte);
    Byte_fifo.push sink.in_fifo n;
    let arrived = off + n in
    if off = 0 then sink.on_frame_start frame;
    sink.on_chunk frame ~arrived ~last:(arrived = total);
    stream t sink frame ~header_bytes total arrived
  end

(* Hold the circuit and stream: shared by [transmit] (source side) and
   [inject] (continuation of a frame that crossed a partition boundary).
   [route_ports] starts at HUB [hub] and crosses [hops] HUBs. *)
let run_circuit t ~hub ~route_ports ~hops ~target ~verdict ~header_bytes
    frame =
  acquire_hops t hub route_ports;
  Engine.sleep t.eng (hop_latency_ns * hops);
  let total = Frame.length frame in
  let header_bytes = Int.min header_bytes total in
  (match (verdict, target) with
  | `Drop, _ ->
      (* The frame crosses the wire but is never delivered (e.g. lost at the
         far side, or blackholed by a downed link); wire time still passes,
         and the sender-side buffer references die here — the receiving CAB
         will never drain this frame, so the network is its last holder. *)
      Engine.sleep t.eng (total * fiber_ns_per_byte);
      Frame.release frame
  | (`Deliver | `Corrupt | `Corrupt_burst _), Local dst ->
      t.delivered <- t.delivered + 1;
      stream t (node t dst).sink frame ~header_bytes total 0
  | (`Deliver | `Corrupt | `Corrupt_burst _), Remote { link; boundary; rest }
    ->
      (* Serialize onto the boundary fiber, then hand the whole frame to
         the far partition: a partition-boundary trunk is store-and-
         forward with a fixed latency, not a cut-through circuit — the
         far side re-acquires its own hops when the frame arrives.  The
         payload snapshot is the one sanctioned copy across domains; the
         sender's CRC travels with it, so damage done before the cut
         still fails the far receiver's check.  The local frame's life
         ends here (the network is its last local holder). *)
      Engine.sleep t.eng (total * fiber_ns_per_byte);
      let payload = Bytes.create total in
      Frame.blit frame ~pos:0 ~dst:payload ~dst_pos:0 ~len:total;
      let fid = frame.Frame.id and fsrc = frame.Frame.src in
      let wire_crc = Frame.wire_crc frame in
      Frame.release frame;
      t.remote_out <- t.remote_out + 1;
      (match t.remote_forward with
      | Some hook ->
          hook ~link
            ~at:(Engine.now t.eng + boundary.remote_latency)
            ~route:rest ~src:fsrc ~frame_id:fid ~wire_crc
            ~payload:(Bytes.unsafe_to_string payload)
      | None ->
          invalid_arg
            "Network: frame reached a remote link with no forward hook"));
  release_hops t hub route_ports

let check_header_bytes what header_bytes =
  if header_bytes < 1 then
    invalid_arg (what ^ ": header_bytes must be at least 1")

let transmit ?(header_bytes = 32) t ~src ~route:route_ports frame =
  check_header_bytes "Network.transmit" header_bytes;
  let tid = Trace.span_begin ~track:"net" "wire" in
  let verdict =
    match t.fault with None -> `Deliver | Some f -> f frame
  in
  (match verdict with
  | `Corrupt ->
      t.corrupted <- t.corrupted + 1;
      Frame.corrupt frame
  | `Corrupt_burst k ->
      t.corrupted <- t.corrupted + 1;
      Frame.corrupt ~burst:k frame
  | `Deliver | `Drop -> ());
  let src_node = node t src in
  let hub = src_node.node_hub in
  let target, hops, hop_down = check_route t hub route_ports 0 false in
  let link_down = (not (port t hub src_node.node_port).up) || hop_down in
  let verdict = if link_down then `Drop else verdict in
  if link_down then t.link_down_count <- t.link_down_count + 1
  else (
    match verdict with
    | `Drop -> t.fault_drops_count <- t.fault_drops_count + 1
    | `Deliver | `Corrupt | `Corrupt_burst _ -> ());
  let total = Frame.length frame in
  run_circuit t ~hub ~route_ports ~hops ~target ~verdict ~header_bytes frame;
  t.frames <- t.frames + 1;
  t.bytes <- t.bytes + total;
  Trace.span_end tid

(* Continue a frame that crossed a partition boundary: rebuild it from
   the payload snapshot and the sender's CRC, and deliver along the
   remainder of its source route, from the entry hub, under this
   partition's contention.  Runs as a fresh process (it blocks on
   controllers, ports and the destination FIFO exactly like a
   source-side transfer). *)
let inject ?(header_bytes = 32) t ~hub ~src ~frame_id ~wire_crc
    ~route:route_ports payload =
  if hub < 0 || hub >= Array.length t.hubs then
    invalid_arg "Network.inject: bad entry hub";
  if route_ports = [] then invalid_arg "Network.inject: empty route";
  check_header_bytes "Network.inject" header_bytes;
  t.remote_in <- t.remote_in + 1;
  Engine.spawn t.eng ~name:"net.inject" (fun () ->
      let tid = Trace.span_begin ~track:"net" "wire" in
      let frame =
        Frame.of_wire ~id:frame_id ~src ~wire_crc
          ~data:(Bytes.of_string payload)
      in
      let target, hops, link_down = check_route t hub route_ports 0 false in
      let verdict = if link_down then `Drop else `Deliver in
      if link_down then t.link_down_count <- t.link_down_count + 1;
      run_circuit t ~hub ~route_ports ~hops ~target ~verdict ~header_bytes
        frame;
      Trace.span_end tid)

let set_fault_hook t hook = t.fault <- hook

let next_frame_id t =
  let id = t.frame_ids in
  t.frame_ids <- id + 1;
  id

let frames_sent t = t.frames
let bytes_sent t = t.bytes
let frames_delivered t = t.delivered
let fault_drops t = t.fault_drops_count
let frames_corrupted t = t.corrupted
let link_down_drops t = t.link_down_count
let remote_handoffs t = t.remote_out
let remote_injections t = t.remote_in
let port_waits t = t.port_waits_count
let port_wait_ns t = t.port_wait_ns_total

let register_metrics t reg ~prefix =
  let c name read = Nectar_util.Metrics.counter reg (prefix ^ name) read in
  c "net.frames_sent" (fun () -> frames_sent t);
  c "net.bytes_sent" (fun () -> bytes_sent t);
  c "net.frames_delivered" (fun () -> frames_delivered t);
  c "net.fault_drops" (fun () -> fault_drops t);
  c "net.frames_corrupted" (fun () -> frames_corrupted t);
  c "net.link_down_drops" (fun () -> link_down_drops t);
  c "net.remote_handoffs" (fun () -> remote_handoffs t);
  c "net.remote_injections" (fun () -> remote_injections t);
  c "net.port_waits" (fun () -> port_waits t);
  c "net.port_wait_ns" (fun () -> port_wait_ns t)
