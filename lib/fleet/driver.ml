open Nectar_sim
module Net = Nectar_hub.Network
module Frame = Nectar_hub.Frame
module Summary = Nectar_util.Summary

type config = {
  topo : Topology.spec;
  workload : Workload.t;
  domains : int;
  frame_bytes : int;
}

let lookahead_ns = 20_000

(* Each sink's input FIFO.  A sink drains every frame on its last chunk,
   so this only has to exceed the largest frame. *)
let fifo_capacity = 64 * 1024

let config ?(domains = 1) ?(frame_bytes = 256) ~topo ~workload () =
  if domains < 1 then invalid_arg "Driver: need >= 1 domain";
  if frame_bytes < 16 then
    invalid_arg "Driver: frames must fit the 8-byte send stamp";
  (match topo with
  | Topology.Torus { rows; _ } when domains > 1 ->
      if rows mod domains <> 0 then
        invalid_arg "Driver: torus rows must divide into row blocks"
  | Topology.Torus _ -> ()
  | Topology.Fat_tree _ | Topology.Irregular _ ->
      if domains > 1 then
        invalid_arg
          "Driver: only the torus has contiguous cuts; run fat-tree and \
           irregular fleets single-domain");
  { topo; workload; domains; frame_bytes }

(* ---------- partitioned worlds ---------- *)

type partition = {
  p_net : Net.t;
  mutable p_delivered : int;
  p_per_sender : int array; (* delivered, indexed by global source node *)
  p_last : int array; (* latest delivery sim-time, indexed by source *)
  p_lat : Summary.t; (* send-to-delivery latencies, ns *)
}

type handoff = {
  h_hub : int; (* global hub index of the boundary trunk's far end *)
  h_route : int list;
  h_src : int;
  h_fid : int;
  h_crc : int; (* the sender's wire CRC *)
  h_payload : string;
}

(* Partition [self] of [domains] owns a contiguous block of hub ids
   (torus row blocks: hub numbering is row-major, so a row block is an
   id range).  Trunks with both ends local are wired as usual; trunks
   crossing the cut become store-and-forward remote links carrying the
   far-end global hub as the link id.  [plans] is every node's schedule
   ({!Workload.plans}), built once per run and shared by the partitions. *)
let build_partition cfg topo plans ~self ~send =
  let hubs = Topology.hub_count topo in
  let nodes = Topology.node_count topo in
  let hpd = hubs / cfg.domains in
  let owner g = g / hpd in
  let local g = g - (self * hpd) in
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:hpd () in
  List.iter
    (fun ((ha, pa), (hb, pb)) ->
      let la = owner ha = self and lb = owner hb = self in
      if la && lb then Net.connect_hubs net (local ha, pa) (local hb, pb)
      else begin
        if la then
          Net.connect_remote net (local ha, pa) ~link:hb
            ~latency_ns:lookahead_ns;
        if lb then
          Net.connect_remote net (local hb, pb) ~link:ha
            ~latency_ns:lookahead_ns
      end)
    (Topology.trunks topo);
  let part =
    {
      p_net = net;
      p_delivered = 0;
      p_per_sender = Array.make nodes 0;
      p_last = Array.make nodes 0;
      p_lat = Summary.create ();
    }
  in
  let stamp_scratch = Bytes.create 8 in
  let attach n =
    let hub, port = Topology.attachment topo n in
    let fifo = Byte_fifo.create eng ~capacity:fifo_capacity ~name:"cab" in
    let sink =
      {
        Net.in_fifo = fifo;
        on_frame_start = (fun _ -> ());
        on_chunk =
          (fun frame ~arrived:_ ~last ->
            if last then begin
              ignore (Byte_fifo.try_pop fifo (Frame.length frame));
              Frame.blit frame ~pos:0 ~dst:stamp_scratch ~dst_pos:0 ~len:8;
              let sent_at = Int64.to_int (Bytes.get_int64_be stamp_scratch 0) in
              let now = Engine.now eng in
              Summary.add part.p_lat (now - sent_at);
              part.p_per_sender.(frame.Frame.src) <-
                part.p_per_sender.(frame.Frame.src) + 1;
              if now > part.p_last.(frame.Frame.src) then
                part.p_last.(frame.Frame.src) <- now;
              part.p_delivered <- part.p_delivered + 1;
              Frame.release frame
            end);
      }
    in
    Net.attach_node net ~hub:(local hub) ~port sink
  in
  let open_loop = Workload.is_open cfg.workload in
  for n = 0 to nodes - 1 do
    let hub, _ = Topology.attachment topo n in
    if owner hub = self then begin
      let id = attach n in
      let plan = plans.(n) in
      if Array.length plan > 0 then
        Engine.spawn eng ~name:(Printf.sprintf "src%d" n) (fun () ->
            (* One payload buffer per sender, restamped for each send.
               Nothing outlives the send that used it: [Net.transmit]
               returns only after the sink released the frame on its
               last chunk; a cut copies the payload (and takes the CRC)
               before the release; and [Frame.corrupt] detaches a
               private copy first. *)
            let data = Bytes.make cfg.frame_bytes 'x' in
            Array.iteri
              (fun k (s : Workload.send) ->
                (if open_loop then begin
                   (* absolute due time; a lagging sender fires now *)
                   let now = Engine.now eng in
                   if s.at > now then Engine.sleep eng (s.at - now)
                 end
                 else if s.at > 0 then Engine.sleep eng s.at);
                Bytes.set_int64_be data 0 (Int64.of_int (Engine.now eng));
                let frame =
                  Frame.create ~id:((n * 0x100000) + k) ~src:n ~data
                in
                Net.transmit net ~src:id
                  ~route:(Topology.route topo ~src:n ~dst:s.dst)
                  frame)
              plan)
    end
  done;
  Net.set_remote_forward net
    (Some
       (fun ~link ~at ~route ~src ~frame_id ~wire_crc ~payload ->
         send ~dst:(owner link) ~time:at
           { h_hub = link; h_route = route; h_src = src; h_fid = frame_id;
             h_crc = wire_crc; h_payload = payload }));
  let ep_receive ~time ~src:_ m =
    ignore
      (Engine.at eng time (fun () ->
           Net.inject net ~hub:(local m.h_hub) ~src:m.h_src ~frame_id:m.h_fid
             ~wire_crc:m.h_crc ~route:m.h_route m.h_payload))
  in
  ({ Parallel.ep_engine = eng; ep_receive }, part)

(* ---------- results ---------- *)

type result = {
  nodes : int;
  total_msgs : int; (* offered load: sender_count * msgs_per_node *)
  d_sent : int array; (* all four: per partition *)
  d_delivered : int array;
  d_handed_off : int array;
  d_injected : int array;
  finals : Sim_time.t array;
  windows : int;
  crossed : int;
  conserved : bool;
  per_sender : int array;
  per_sender_last : int array;
  spread : float;
  lat_p50 : int;
  lat_p99 : int;
  lat_max : int;
  port_waits : int;
  port_wait_ns : int;
}

let sum = Array.fold_left ( + ) 0

(* Per-sender goodput spread: goodput_i = delivered_i / completion
   time_i, spread = (max - min) / mean over senders with deliveries.
   A finished closed loop delivers every sender's full quota, so raw
   counts are trivially equal — completion times carry the fairness
   signal (a sender starved at a contended port finishes later). *)
let sender_spread w ~nodes per_sender last =
  let mn = ref infinity and mx = ref 0.0 and total = ref 0.0 and cnt = ref 0 in
  for n = 0 to nodes - 1 do
    if Workload.is_sender w ~nodes ~node:n && per_sender.(n) > 0
       && last.(n) > 0
    then begin
      let g = float_of_int per_sender.(n) /. float_of_int last.(n) in
      if g < !mn then mn := g;
      if g > !mx then mx := g;
      total := !total +. g;
      incr cnt
    end
  done;
  if !cnt = 0 then 0.0
  else
    let mean = !total /. float_of_int !cnt in
    if mean <= 0.0 then 0.0 else (!mx -. !mn) /. mean

let run cfg =
  let topo = Topology.build cfg.topo in
  let nodes = Topology.node_count topo in
  let plans = Workload.plans cfg.workload ~nodes in
  let out =
    Parallel.run ~lookahead:lookahead_ns ~domains:cfg.domains
      ~build:(fun ~self ~send -> build_partition cfg topo plans ~self ~send)
      ()
  in
  let parts = out.Parallel.results in
  let d_sent = Array.map (fun p -> Net.frames_sent p.p_net) parts in
  let d_delivered = Array.map (fun p -> p.p_delivered) parts in
  let d_handed_off = Array.map (fun p -> Net.remote_handoffs p.p_net) parts in
  let d_injected = Array.map (fun p -> Net.remote_injections p.p_net) parts in
  let conserved =
    Array.for_all (fun b -> b)
      (Array.mapi
         (fun i _ ->
           d_sent.(i) + d_injected.(i) = d_delivered.(i) + d_handed_off.(i))
         parts)
  in
  let per_sender = Array.make nodes 0 in
  let per_sender_last = Array.make nodes 0 in
  Array.iter
    (fun p ->
      for n = 0 to nodes - 1 do
        per_sender.(n) <- per_sender.(n) + p.p_per_sender.(n);
        if p.p_last.(n) > per_sender_last.(n) then
          per_sender_last.(n) <- p.p_last.(n)
      done)
    parts;
  let lat =
    Array.concat (Array.to_list (Array.map (fun p -> Summary.samples p.p_lat) parts))
  in
  let lat_max = Array.fold_left Int.max 0 lat in
  {
    nodes;
    total_msgs = Workload.total_messages cfg.workload ~nodes;
    d_sent;
    d_delivered;
    d_handed_off;
    d_injected;
    finals = out.Parallel.final_times;
    windows = out.Parallel.stats.Parallel.windows;
    crossed = out.Parallel.stats.Parallel.crossed;
    conserved;
    per_sender;
    per_sender_last;
    spread = sender_spread cfg.workload ~nodes per_sender per_sender_last;
    lat_p50 = Summary.select_rank lat 50;
    lat_p99 = Summary.select_rank lat 99;
    lat_max;
    port_waits = sum (Array.map (fun p -> Net.port_waits p.p_net) parts);
    port_wait_ns = sum (Array.map (fun p -> Net.port_wait_ns p.p_net) parts);
  }

let sent r = sum r.d_sent
let delivered r = sum r.d_delivered
let handed_off r = sum r.d_handed_off
let injected r = sum r.d_injected

let deterministic_eq a b =
  a.d_sent = b.d_sent && a.d_delivered = b.d_delivered
  && a.d_handed_off = b.d_handed_off
  && a.d_injected = b.d_injected && a.finals = b.finals
  && a.windows = b.windows && a.crossed = b.crossed
  && a.per_sender = b.per_sender
  && a.per_sender_last = b.per_sender_last
  && a.lat_p50 = b.lat_p50 && a.lat_p99 = b.lat_p99 && a.lat_max = b.lat_max

type world = handoff Parallel.endpoint * partition

let build cfg =
  let topo = Topology.build cfg.topo in
  build_partition { cfg with domains = 1 } topo
    (Workload.plans cfg.workload ~nodes:(Topology.node_count topo))
    ~self:0
    ~send:(fun ~dst:_ ~time:_ _ -> ())
