type t = {
  rt : Nectar_core.Runtime.t;
  router : Nectar_route.Router.t;
  dl : Datalink.t;
  ip : Ipv4.t;
  icmp : Icmp.t;
  udp : Udp.t;
  tcp : Tcp.t;
  dgram : Dgram.t;
  rmp : Rmp.t;
  reqresp : Reqresp.t;
  (* services layered above the stack (e.g. the collective engine in
     lib/coll, which this library cannot reference) register here so
     [register_metrics] folds their counters in with the core layers' and
     a port-owning service cannot be attached twice *)
  mutable services : (string * (Nectar_util.Metrics.t -> unit)) list;
}

let create rt ?(tcp_checksum = true) ?(udp_checksum = true) ?mtu ?tcp_mss
    ?tcp_input_mode ?rpc_rto ?rpc_retries ?rmp_window ?rmp_ack_delay ?rmp_rto
    ?rmp_retries ?router ?route_policy ?route_detection_ns ?route_recompute_ns
    () =
  let router =
    match router with
    | Some r -> r
    | None ->
        Nectar_route.Router.create ?policy:route_policy
          ?detection_ns:route_detection_ns ?recompute_ns:route_recompute_ns
          (Nectar_cab.Cab.network (Nectar_core.Runtime.cab rt))
  in
  let dl = Datalink.create ~router rt in
  let ip = Ipv4.create dl ?mtu () in
  let icmp = Icmp.create ip in
  let udp = Udp.create ip ~checksum:udp_checksum ~icmp () in
  let tcp =
    Tcp.create ip ~software_checksum:tcp_checksum ?mss:tcp_mss
      ?input_mode:tcp_input_mode ()
  in
  let dgram = Dgram.create dl in
  let rmp =
    Rmp.create dl ?window:rmp_window ?ack_delay:rmp_ack_delay ?rto:rmp_rto
      ?max_retries:rmp_retries ()
  in
  let reqresp = Reqresp.create dl ?rto:rpc_rto ?max_retries:rpc_retries () in
  { rt; router; dl; ip; icmp; udp; tcp; dgram; rmp; reqresp; services = [] }

let node_id t = Nectar_core.Runtime.node_id t.rt
let addr t = Ipv4.local_addr t.ip

let register_service t ~name metrics =
  if List.mem_assoc name t.services then
    invalid_arg
      (Printf.sprintf "Stack.register_service: %S already attached on %s" name
         (Nectar_cab.Cab.name (Nectar_core.Runtime.cab t.rt)));
  t.services <- (name, metrics) :: t.services

let has_service t ~name = List.mem_assoc name t.services

let register_metrics t reg =
  let cab = Nectar_core.Runtime.cab t.rt in
  let prefix = Nectar_cab.Cab.name cab ^ "." in
  Datalink.register_metrics t.dl reg ~prefix;
  Nectar_route.Router.register_metrics t.router reg ~prefix;
  Rmp.register_metrics t.rmp reg ~prefix;
  Reqresp.register_metrics t.reqresp reg ~prefix;
  Tcp.register_metrics t.tcp reg ~prefix;
  Nectar_cab.Rx.register_metrics (Nectar_cab.Cab.rx cab) reg ~prefix;
  let cpu = Nectar_cab.Cab.cpu cab in
  Nectar_util.Metrics.gauge reg (prefix ^ "cpu.busy_us") (fun () ->
      Nectar_sim.Sim_time.to_us (Nectar_sim.Cpu.busy_time cpu));
  Nectar_util.Metrics.counter reg (prefix ^ "cpu.switches") (fun () ->
      Nectar_sim.Cpu.switches cpu);
  List.iter
    (fun (oname, _) ->
      Nectar_util.Metrics.gauge reg
        (prefix ^ "cpu.owner." ^ oname ^ ".us")
        (fun () ->
          (* re-read the report so the gauge tracks the live served time *)
          match List.assoc_opt oname (Nectar_sim.Cpu.owners_report cpu) with
          | Some served -> Nectar_sim.Sim_time.to_us served
          | None -> 0.))
    (Nectar_sim.Cpu.owners_report cpu);
  List.iter (fun (_, f) -> f reg) (List.rev t.services)
