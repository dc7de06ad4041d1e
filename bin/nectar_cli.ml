(* nectar-cli: run Nectar simulation scenarios from the command line.

     dune exec bin/nectar_cli.exe -- ping --hubs 3
     dune exec bin/nectar_cli.exe -- latency --protocol rmp --level host
     dune exec bin/nectar_cli.exe -- throughput --protocol tcp --size 8192
     dune exec bin/nectar_cli.exe -- info
     dune exec bin/nectar_cli.exe -- run --smoke    (every gate: registry.ml)
*)

open Cmdliner
module Bench_world = Nectar_bench.Bench_world

let proto_conv =
  Arg.enum
    Bench_world.
      [
        ("dgram", Dgram);
        ("rmp", Rmp);
        ("rpc", Rpc Nectar_proto.Reqresp.Thread_server);
        ("udp", Udp);
      ]

(* a transport and whether TCP checksums in software *)
let tproto_conv =
  Arg.enum
    Bench_world.
      [
        ("tcp", (Tcp, true)); ("tcp-nocksum", (Tcp, false)); ("rmp", (Rmp, true));
      ]

let ping_cmd =
  let hubs = Arg.(value & opt int 1 & info [ "hubs" ] ~doc:"HUBs in the chain.") in
  let count = Arg.(value & opt int 4 & info [ "count"; "c" ] ~doc:"Echo requests.") in
  let payload = Arg.(value & opt int 32 & info [ "payload" ] ~doc:"Payload bytes.") in
  Cmd.v (Cmd.info "ping" ~doc:"ICMP echo across a HUB chain")
    Term.(const Demos.run_ping $ hubs $ count $ payload)

let latency_cmd =
  let proto =
    Arg.(value & opt proto_conv Bench_world.Dgram & info [ "protocol"; "p" ]
           ~doc:"Transport: $(b,dgram), $(b,rmp), $(b,rpc) or $(b,udp).")
  in
  let payload = Arg.(value & opt int 64 & info [ "payload" ] ~doc:"Payload bytes.") in
  let rounds = Arg.(value & opt int 16 & info [ "rounds" ] ~doc:"Round trips.") in
  let host =
    Arg.(value & opt (enum [ ("host", true); ("cab", false) ]) false
         & info [ "level" ] ~doc:"Endpoints: $(b,host) processes or $(b,cab) threads.")
  in
  Cmd.v (Cmd.info "latency" ~doc:"Round-trip latency (Table 1 style)")
    Term.(const Demos.run_latency $ proto $ payload $ rounds $ host)

let throughput_cmd =
  let proto =
    Arg.(value & opt tproto_conv Bench_world.(Rmp, true)
         & info [ "protocol"; "p" ]
           ~doc:"Transport: $(b,tcp), $(b,tcp-nocksum) or $(b,rmp).")
  in
  let size = Arg.(value & opt int 8192 & info [ "size" ] ~doc:"Message bytes.") in
  let kb = Arg.(value & opt int 1024 & info [ "kbytes" ] ~doc:"Total kbytes.") in
  Cmd.v (Cmd.info "throughput" ~doc:"CAB-to-CAB throughput (Figure 7 style)")
    Term.(const Demos.run_throughput $ proto $ size $ kb)

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Print the hardware cost model")
    Term.(const Demos.run_info $ const ())

let trace_cmd =
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ]
             ~doc:"Write Chrome trace-event JSON (chrome://tracing loadable) \
                   to $(docv)." ~docv:"FILE")
  in
  let iterations =
    Arg.(value & opt int 4 & info [ "iterations" ] ~doc:"Datagrams to trace.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay the Figure 6 datagram scenario under the causal tracer: \
          per-stage span rollup, unified metrics dump, and optional Chrome \
          trace-event JSON export (its checks are the trace entry of \
          $(b,run))")
    Term.(const Demos.run_trace $ out $ iterations)

let route_cmd =
  let ring =
    Arg.(value & flag
         & info [ "ring" ]
             ~doc:"Close the HUB chain into a ring (two disjoint arcs per \
                   pair).")
  in
  let hubs =
    Arg.(value & opt int 4 & info [ "hubs" ] ~doc:"HUBs in the topology.")
  in
  let flaps =
    Arg.(value & flag
         & info [ "flaps" ]
             ~doc:"Replay three cycles of the failover bench's trunk flaps \
                   against paced RMP traffic on the ring and print \
                   per-cycle blackouts and the reconverged tables.")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Inspect the routing-policy layer: dump compiled per-node \
          source-route tables or replay a link-flap schedule")
    Term.(term_result' (const Demos.run_route $ ring $ hubs $ flaps))

let run_cmd =
  let names =
    Arg.(value & pos_all string []
         & info [] ~docv:"NAME"
             ~doc:"Entries to run, by name or by prefix ($(b,check) selects \
                   every $(b,check/)* entry); all of them when none is given.")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ] ~doc:"CI sizes instead of the full sweeps.")
  in
  let seed =
    Arg.(value & opt int 1990
         & info [ "seed" ] ~doc:"Chaos fault-plan seed (same seed, same faults).")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ]
             ~doc:"Informational findings, full audit reports, default-order \
                   decisions and the collective root's metrics.")
  in
  let list =
    Arg.(value & flag
         & info [ "list" ] ~doc:"List the selected entries instead of running them.")
  in
  let run names smoke seed verbose list =
    exit (Registry.run ~opts:{ Registry.smoke; seed; verbose } ~list names)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run entries of the scenario registry, every gate of the simulator \
          (vet, chaos, schedule-explorer and isolation checks, failover, \
          parallel, fleet, collectives, perf and trace); exit 1 on any \
          failed check, 2 on an unknown name")
    Term.(const run $ names $ smoke $ seed $ verbose $ list)

let () =
  let doc = "Nectar communication processor simulation scenarios" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "nectar-cli" ~doc)
          [
            ping_cmd; latency_cmd; throughput_cmd; info_cmd; route_cmd;
            trace_cmd; run_cmd;
          ]))
