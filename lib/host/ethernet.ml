open Nectar_sim
open Nectar_core
module Costs = Nectar_cab.Costs

let mtu = 1500

type station = {
  seg : t;
  sid : int;
  st_host : Host.t;
  ports : (int, string Queue.t * Waitq.t) Hashtbl.t;
  rx_backlog : (int * string) Queue.t; (* (port, payload) awaiting softnet *)
  rx_ready : Waitq.t;
}

and t = {
  eng : Engine.t;
  medium : Resource.t; (* the shared wire: CSMA without collisions *)
  mutable stations : station list;
  mutable frame_count : int;
}

let create eng =
  {
    eng;
    medium = Resource.create eng ();
    stations = [];
    frame_count = 0;
  }

(* Persistent receive bottom half: one process per station runs the host
   stack for every arriving frame (spawning one per frame would pay a
   process switch-in each time). *)
let softnet s (ctx : Nectar_core.Ctx.t) =
  while true do
    while Queue.is_empty s.rx_backlog do
      Waitq.wait s.rx_ready
    done;
    let port, payload = Queue.take s.rx_backlog in
    ctx.work
      (Costs.host_ip_ns + Costs.host_udp_ns + Costs.host_socket_ns
      + Costs.ether_overhead_ns
      + (String.length payload * Costs.host_stack_ns_per_byte));
    match Hashtbl.find_opt s.ports port with
    | Some (q, wq) ->
        Queue.add payload q;
        ignore (Waitq.broadcast wq)
    | None -> ()
  done

let attach seg host =
  let s =
    {
      seg;
      sid = List.length seg.stations;
      st_host = host;
      ports = Hashtbl.create 8;
      rx_backlog = Queue.create ();
      rx_ready = Waitq.create seg.eng;
    }
  in
  seg.stations <- seg.stations @ [ s ];
  Host.spawn_process host ~name:"ether-softnet" (softnet s);
  s

let station_id s = s.sid

let bind s ~port =
  if Hashtbl.mem s.ports port then invalid_arg "Ethernet.bind: port in use";
  Hashtbl.replace s.ports port
    (Queue.create (), Waitq.create (Host.engine s.st_host))

(* Receive side of one frame: interface interrupt, then hand to the
   station's softnet process. *)
let deliver dst ~port payload =
  Nectar_cab.Interrupts.post (Host.irq dst.st_host) ~name:"ether-rx"
    (fun ictx -> Nectar_cab.Interrupts.work ictx Costs.host_driver_ns);
  Queue.add (port, payload) dst.rx_backlog;
  ignore (Waitq.signal dst.rx_ready)

let send_datagram (ctx : Ctx.t) s ~dst ~port payload =
  let n = String.length payload in
  if n > mtu then invalid_arg "Ethernet.send_datagram: over MTU";
  match List.nth_opt s.seg.stations dst with
  | None -> invalid_arg "Ethernet.send_datagram: no such station"
  | Some target ->
      (* host stack (with its per-byte copies/checksum) + interface
         overhead; the on-board interface then serializes the frame by DMA
         without holding the CPU *)
      ctx.work
        (Costs.host_socket_ns + Costs.host_udp_ns + Costs.host_ip_ns
       + Costs.host_driver_ns + Costs.ether_overhead_ns
        + (n * Costs.host_stack_ns_per_byte));
      s.seg.frame_count <- s.seg.frame_count + 1;
      Engine.spawn s.seg.eng ~name:"ether-tx" (fun () ->
          Resource.with_held s.seg.medium (fun () ->
              Engine.sleep s.seg.eng ((n + 64) * Costs.ether_ns_per_byte));
          deliver target ~port payload)

let recv_datagram (ctx : Ctx.t) s ~port =
  match Hashtbl.find_opt s.ports port with
  | None -> invalid_arg "Ethernet.recv_datagram: port not bound"
  | Some (q, wq) ->
      Host.syscall ctx;
      while Queue.is_empty q do
        Waitq.wait wq
      done;
      Queue.take q

let frames_sent t = t.frame_count
