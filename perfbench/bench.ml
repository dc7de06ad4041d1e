(* The repo's benchmark: four closed-loop workloads driven through the
   library's public API, measured end to end (untraced) or per layer
   (traced).  perfbench/run.py builds this binary and adds the process's
   peak RSS; perfbench/NOTES.md says why each workload exists and where
   each bound comes from.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last stdout line is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.

   Every run is one process on one domain with the library's defaults
   (event and message pools off).  The seed drives only generated
   inputs: payload bytes and fleet destinations. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
module Net = Nectar_hub.Network
module Cab = Nectar_cab.Cab
module Copy_meter = Nectar_util.Copy_meter
module Metrics = Nectar_util.Metrics
module Router = Nectar_route.Router
module Topology = Nectar_fleet.Topology
module Workload = Nectar_fleet.Workload
module Driver = Nectar_fleet.Driver
module Coll = Nectar_coll.Coll

let now = Unix.gettimeofday

(* ---------- set-up, timed per constructor ---------- *)

type stages = {
  mutable topology : float;
  mutable cabs : float;
  mutable stacks : float;
  mutable coll : float;
}

let new_stages () = { topology = 0.; cabs = 0.; stacks = 0.; coll = 0. }

let stage st which f =
  let t0 = now () in
  let r = f () in
  let d = now () -. t0 in
  (match which with
  | `Topology -> st.topology <- st.topology +. d
  | `Cabs -> st.cabs <- st.cabs +. d
  | `Stacks -> st.stacks <- st.stacks +. d
  | `Coll -> st.coll <- st.coll +. d);
  r

(* ---------- episodes ---------- *)

(* What one episode of a workload produced, in simulated terms. *)
type outcome = {
  ops : int;  (* operations attempted *)
  failed : int;  (* operations that failed or returned wrong data *)
  samples : int;  (* simulated latency samples behind the percentiles *)
  p50 : int;  (* ns *)
  p99 : int;
  lat_hash : int;  (* digest of every sample, for the determinism check *)
  sim_ns : int;  (* simulated duration of the measured phase *)
  bytes : int;  (* application payload bytes delivered *)
  errors : string list;  (* violated whole-run invariants *)
}

type counters = (string, float) Hashtbl.t

type episode = {
  run : unit -> unit;  (* the simulation phase: the only timed part *)
  finish : unit -> outcome;  (* checks, after [run] *)
  eng : Engine.t option;  (* for tracing; None when the driver owns it *)
  counters : unit -> counters;  (* cumulative layer counters *)
  lookup : (unit -> unit) option;  (* one cached Router.lookup *)
}

type spec = {
  name : string;
  make : seed:int -> stages -> int -> episode;
      (* [make ~seed] derives the inputs; applied to a stages record it
         builds a world (timing each constructor) and returns the
         episode runner for that world, taking the episode size *)
  reusable : bool;  (* episodes may share one world *)
  size : int;  (* episode size: calls, messages, msgs/node, iterations *)
  trace_capacity : int;  (* Trace ring events, enough for one episode *)
  setup_batch : int;  (* worlds built per set-up sample *)
}

let copy_sites = Copy_meter.[ Txsnap; Rxread; Hdr; Frag; Host; App ]

(* Layer counters of a stack-level world: every stack's registered
   counters summed by layer, the fabric's, the copy meter's, CAB CPU busy
   time and the host notifications.  The registry is built on first use,
   so untraced runs never pay for it. *)
let stack_counters ~net ~stacks ?(extra = fun _ -> ()) () =
  let reg =
    lazy
      (let reg = Metrics.create () in
       Net.register_metrics net reg ~prefix:"fabric.";
       Array.iter (fun s -> Stack.register_metrics s reg) stacks;
       reg)
  in
  fun () ->
    let tbl = Layers.sum_by_layer (Lazy.force reg) in
    List.iter
      (fun site ->
        Hashtbl.replace tbl
          ("copy." ^ Copy_meter.site_name site ^ ".bytes")
          (float_of_int (Copy_meter.bytes_copied ~site ())))
      copy_sites;
    let sum f =
      float_of_int (Array.fold_left (fun acc s -> acc + f s) 0 stacks)
    in
    Hashtbl.replace tbl "cpu.busy_ns"
      (sum (fun s -> Cpu.busy_time (Cab.cpu (Runtime.cab s.Stack.rt))));
    Hashtbl.replace tbl "host.notifications"
      (sum (fun s -> Runtime.host_notifications s.Stack.rt));
    extra (Hashtbl.replace tbl);
    tbl

(* nearest-rank on the sorted samples, as Fleet.Driver reports them *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.((n - 1) * p / 100)

let latencies lat =
  let sorted = Array.copy lat in
  Array.sort Int.compare sorted;
  ( Array.length lat,
    percentile sorted 50,
    percentile sorted 99,
    Array.fold_left (fun acc x -> (acc * 31) + x) 17 lat )

let random_string rng len = String.init len (fun _ -> Char.chr (Rng.int rng 256))

let payloads ~seed ~count ~len =
  Array.init count (fun i -> random_string (Rng.stream ~seed ~index:i) len)

(* ---------- two-CAB host worlds (rpc_host_64, tcp_host_8k) ---------- *)

type host_world = {
  eng : Engine.t;
  net : Net.t;
  stacks : Stack.t array;
  drvs : Cab_driver.t array;
  hosts : Host.t array;
}

let host_world st ?tcp_mss () =
  let eng, net =
    stage st `Topology (fun () ->
        let eng = Engine.create () in
        (eng, Net.create eng ~hubs:1 ()))
  in
  let boards =
    stage st `Cabs (fun () ->
        Array.init 2 (fun i ->
            let cab =
              Cab.create net ~hub:0 ~port:i ~name:(Printf.sprintf "cab%d" i)
            in
            let rt = Runtime.create cab in
            let host = Host.create eng ~name:(Printf.sprintf "host%d" i) in
            (rt, host, Cab_driver.attach host rt)))
  in
  let stacks =
    stage st `Stacks (fun () ->
        Array.map
          (fun (rt, _, _) -> Stack.create rt ~tcp_checksum:true ?tcp_mss ())
          boards)
  in
  {
    eng;
    net;
    stacks;
    drvs = Array.map (fun (_, _, d) -> d) boards;
    hosts = Array.map (fun (_, h, _) -> h) boards;
  }

let host_lookup w =
  let r = w.stacks.(0).Stack.router in
  Some
    (fun () ->
      ignore (Sys.opaque_identity (Router.lookup r ~src:0 ~dst:1 ~proto:Wire.proto_reqresp)))

(* rpc_host_64: back-to-back 64-byte Nectarine calls from a host process
   to a host-served echo on the second CAB (Table 1's RPC row). *)
let rpc_port = 902
let rpc_bytes = 64

let rpc_make ~seed =
  let reqs = payloads ~seed ~count:64 ~len:rpc_bytes in
  fun st ->
    let w = host_world st () in
    let client =
      stage st `Stacks (fun () ->
          let server = Nectarine.host_node w.drvs.(1) w.stacks.(1) in
          Nectarine.serve server ~port:rpc_port (fun _ req -> req);
          Nectarine.host_node w.drvs.(0) w.stacks.(0))
    in
    fun calls ->
      let lat = Array.make calls 0 in
      let failed = ref 0 and first = ref 0 and last = ref (-1) in
      Nectarine.spawn client ~name:"rpc-client" (fun ctx ->
          first := Engine.now w.eng;
          for i = 0 to calls - 1 do
            let req = reqs.(i land 63) in
            let t0 = Engine.now w.eng in
            (match
               Nectarine.call_result ctx client
                 ~dst:{ Nectarine.cab = 1; port = rpc_port } req
             with
            | Ok resp when String.equal resp req -> ()
            | Ok _ | Error _ -> incr failed);
            lat.(i) <- Engine.now w.eng - t0
          done;
          last := Engine.now w.eng);
      {
        run = (fun () -> Engine.run w.eng);
        finish =
          (fun () ->
            let samples, p50, p99, lat_hash = latencies lat in
            {
              ops = calls;
              failed = !failed;
              samples;
              p50;
              p99;
              lat_hash;
              sim_ns = !last - !first;
              bytes = 2 * rpc_bytes * (calls - !failed);
              errors = (if !last < 0 then [ "rpc client did not finish" ] else []);
            });
        eng = Some w.eng;
        counters = stack_counters ~net:w.net ~stacks:w.stacks ();
        lookup = host_lookup w;
      }

(* tcp_host_8k: one host-to-host TCP stream, checksums on, mss = 8 KB,
   every 8 KB message stamped with its send time (fig8's tcp_throughput
   with latency). *)
let tcp_bytes = 8192
let tcp_port = 80

let tcp_make ~seed =
  let bodies = payloads ~seed ~count:16 ~len:tcp_bytes in
  fun st ->
    let w = host_world st ~tcp_mss:tcp_bytes () in
    let accepted = ref None in
    stage st `Stacks (fun () ->
        Tcp.listen w.stacks.(1).Stack.tcp ~port:tcp_port ~on_accept:(fun c ->
            accepted := Some c));
    fun msgs ->
      (* connection set-up runs events, so it is neither set-up (which
         ends before the first event) nor part of the measured phase *)
      let conn = ref None in
      ignore
        (Thread.create (Runtime.cab w.stacks.(0).Stack.rt) ~name:"connector"
           (fun ctx ->
             conn :=
               Some
                 (Tcp.connect ctx w.stacks.(0).Stack.tcp
                    ~dst:(Stack.addr w.stacks.(1)) ~dst_port:tcp_port ())));
      Engine.run w.eng;
      let conn = Option.get !conn and peer = Option.get !accepted in
      let send_h =
        Hostlib.attach w.drvs.(0)
          (Tcp.send_request_mailbox w.stacks.(0).Stack.tcp)
          ~mode:Hostlib.Shared_memory ~readers:`Cab
      in
      let recv_h =
        Hostlib.attach w.drvs.(1) (Tcp.recv_mailbox peer)
          ~mode:Hostlib.Shared_memory ~readers:`Host
      in
      let total = msgs * tcp_bytes in
      let lat = Array.make msgs 0 in
      let got = ref 0 and bad = ref 0 and received = ref 0 in
      let first = ref 0 and last = ref (-1) in
      (* a message body matches its template everywhere but the stamp *)
      let intact k s =
        let tmpl = bodies.(k land 15) in
        let rec go i =
          i >= tcp_bytes
          || (String.unsafe_get s i = String.unsafe_get tmpl i && go (i + 1))
        in
        go 8
      in
      let take s =
        let k = !got in
        let sent = Int64.to_int (String.get_int64_be s 0) in
        let t = Engine.now w.eng in
        if k < msgs then lat.(k) <- t - sent;
        if not (intact k s && sent >= !first && sent <= t) then incr bad;
        incr got
      in
      let pending = Buffer.create (2 * tcp_bytes) in
      Host.spawn_process w.hosts.(1) ~name:"tcp-sink" (fun ctx ->
          while !received < total do
            let m = Hostlib.begin_get ctx recv_h in
            let s = Hostlib.read_string ctx recv_h m in
            Hostlib.end_get ctx recv_h m;
            received := !received + String.length s;
            if Buffer.length pending = 0 && String.length s = tcp_bytes then
              take s
            else begin
              Buffer.add_string pending s;
              while Buffer.length pending >= tcp_bytes do
                let all = Buffer.contents pending in
                take (String.sub all 0 tcp_bytes);
                Buffer.clear pending;
                Buffer.add_substring pending all tcp_bytes
                  (String.length all - tcp_bytes)
              done
            end
          done;
          last := Engine.now w.eng);
      Host.spawn_process w.hosts.(0) ~name:"tcp-source" (fun ctx ->
          first := Engine.now w.eng;
          let id = Tcp.conn_id conn in
          for k = 0 to msgs - 1 do
            let b = Bytes.of_string bodies.(k land 15) in
            Bytes.set_int64_be b 0 (Int64.of_int (Engine.now w.eng));
            let m = Hostlib.begin_put ctx send_h (4 + tcp_bytes) in
            Message.set_u32 m 0 id;
            Hostlib.write_string ctx send_h m ~pos:4 (Bytes.unsafe_to_string b);
            Hostlib.end_put ctx send_h m
          done);
      {
        run = (fun () -> Engine.run w.eng);
        finish =
          (fun () ->
            let missing = max 0 (msgs - !got) in
            let samples, p50, p99, lat_hash = latencies lat in
            {
              ops = msgs;
              failed = !bad + missing;
              samples;
              p50;
              p99;
              lat_hash;
              sim_ns = !last - !first;
              bytes = !received;
              errors =
                (if !received <> total then
                   [ Printf.sprintf "tcp received %d of %d bytes" !received total ]
                 else []);
            });
        eng = Some w.eng;
        counters = stack_counters ~net:w.net ~stacks:w.stacks ();
        lookup = host_lookup w;
      }

(* ---------- fleet_hotspot_256 ---------- *)

(* A wire-level 8x8x4 torus run by Fleet.Driver on one domain, Zipf(1.1)
   hotspot destinations, 20 us think time, no protocol stacks. *)
let fleet_spec = Topology.Torus { rows = 8; cols = 8; seats = 4 }
let fleet_frame_bytes = 256

let fleet_make ~seed =
  fun st ->
    (* The driver builds its partition inside [Driver.run]; set-up here
       is the same fabric through the public constructors: topology,
       network and trunks, then one receive sink per CAB seat. *)
    let topo, net =
      stage st `Topology (fun () ->
          let topo = Topology.build fleet_spec in
          let eng = Engine.create () in
          let net = Net.create eng ~hubs:(Topology.hub_count topo) () in
          Topology.wire net topo;
          (topo, net))
    in
    stage st `Cabs (fun () ->
        let eng = Net.engine net in
        Topology.attach_all topo net (fun n ->
            {
              Net.in_fifo =
                Byte_fifo.create eng ~capacity:(64 * 1024)
                  ~name:(Printf.sprintf "cab%d" n);
              on_frame_start = (fun _ -> ());
              on_chunk = (fun _ ~arrived:_ ~last:_ -> ());
            }));
    fun msgs_per_node ->
      let cfg =
        Driver.config ~frame_bytes:fleet_frame_bytes ~topo:fleet_spec
          ~workload:
            (Workload.make ~pattern:(Workload.Hotspot { alpha = 1.1 })
               ~arrivals:(Workload.Closed { think_ns = 20_000 })
               ~msgs_per_node ~seed)
          ()
      in
      let result = ref None in
      {
        run = (fun () -> result := Some (Driver.run cfg));
        finish =
          (fun () ->
            let r = Option.get !result in
            let delivered = Driver.delivered r in
            {
              ops = r.Driver.total_msgs;
              failed = r.Driver.total_msgs - delivered;
              samples = delivered;
              p50 = r.Driver.lat_p50;
              p99 = r.Driver.lat_p99;
              lat_hash = r.Driver.lat_max;
              sim_ns = Array.fold_left max 0 r.Driver.finals;
              bytes = delivered * fleet_frame_bytes;
              errors =
                (if r.Driver.conserved then [] else [ "fleet wire conservation" ]);
            });
        eng = None;
        counters =
          (fun () ->
            let tbl = Hashtbl.create 8 in
            (match !result with
            | Some r ->
                let set k v = Hashtbl.replace tbl k (float_of_int v) in
                set "net.frames_sent" (Driver.sent r);
                set "net.bytes_sent" (Driver.sent r * fleet_frame_bytes);
                set "net.port_waits" r.Driver.port_waits;
                set "net.port_wait_ns" r.Driver.port_wait_ns;
                Hashtbl.replace tbl "fleet.goodput_spread" r.Driver.spread
            | None -> ());
            tbl);
        lookup = None;
      }

(* ---------- coll_1024 ---------- *)

(* A stack-level 16x16x4 torus with a collective endpoint on every CAB,
   built constructor by constructor the way Coll.World.build does, so
   each constructor's share of set-up is timed. *)
let coll_spec = Topology.Torus { rows = 16; cols = 16; seats = 4 }

let coll_make ~seed =
  let bodies = payloads ~seed ~count:16 ~len:64 in
  fun st ->
    let topo, tree, eng, net, router =
      stage st `Topology (fun () ->
          let topo = Topology.build coll_spec in
          let tree = Coll.Tree.of_topology topo ~root:0 in
          let eng = Engine.create () in
          let net = Net.create eng ~hubs:(Topology.hub_count topo) () in
          Topology.wire net topo;
          (topo, tree, eng, net, Router.create ~policy:(Topology.policy topo) net))
    in
    let n = Topology.node_count topo in
    let rts =
      stage st `Cabs (fun () ->
          Array.init n (fun i ->
              let hub, seat = Topology.attachment topo i in
              Runtime.create
                (Cab.create ~data_bytes:(1 lsl 17) net ~hub ~port:seat
                   ~name:(Printf.sprintf "cl%d" i))))
    in
    let stacks =
      stage st `Stacks (fun () ->
          let rmp_rto = Sim_time.us (max 5_000 (250 * n)) in
          Array.map (fun rt -> Stack.create rt ~router ~rmp_rto ()) rts)
    in
    let colls =
      stage st `Coll (fun () -> Array.map (fun s -> Coll.attach s ~tree) stacks)
    in
    let root = Coll.Tree.root tree in
    let expect_sum = n * (n + 1) / 2 in
    let counters =
      stack_counters ~net ~stacks
        ~extra:(fun set ->
          (* one router serves every stack: count it once *)
          set "route.compiles" (float_of_int (Router.compiles router));
          set "coll.host_wakeups"
            (float_of_int (Runtime.host_notifications stacks.(root).Stack.rt)))
        ()
    in
    let episodes = ref 0 in
    fun iters ->
      incr episodes;
      let per = 3 * iters in
      let lat = Array.make (n * per) 0 in
      (* an operation of the communicator fails if any endpoint saw it fail *)
      let failed = Array.make per false and finished = ref 0 in
      let start = Engine.now eng and last = ref (Engine.now eng) in
      Array.iteri
        (fun i c ->
          ignore
            (Thread.create (Runtime.cab stacks.(i).Stack.rt)
               (* unique per episode: the layer registry names CPU
                  owners after their threads *)
               ~name:(Printf.sprintf "coll-app%d.%d" i !episodes)
               (fun ctx ->
                 let op j f =
                   let t0 = Engine.now eng in
                   if not (f ()) then failed.(j) <- true;
                   lat.((i * per) + j) <- Engine.now eng - t0
                 in
                 for k = 0 to iters - 1 do
                   op (3 * k) (fun () ->
                       Coll.barrier ctx c;
                       true);
                   op ((3 * k) + 1) (fun () -> Coll.reduce ctx c (i + 1) = expect_sum);
                   let body = bodies.(k land 15) in
                   op ((3 * k) + 2) (fun () ->
                       String.equal body
                         (Coll.bcast ctx c (if i = root then Some body else None)))
                 done;
                 incr finished;
                 if Engine.now eng > !last then last := Engine.now eng)))
        colls;
      {
        run = (fun () -> Engine.run eng);
        finish =
          (fun () ->
            let samples, p50, p99, lat_hash = latencies lat in
            {
              ops = per;
              failed = Array.fold_left (fun a f -> if f then a + 1 else a) 0 failed;
              samples;
              p50;
              p99;
              lat_hash;
              sim_ns = !last - start;
              bytes = iters * 64 * (n - 1);
              errors =
                (if !finished <> n then
                   [ Printf.sprintf "coll: %d of %d endpoints finished" !finished n ]
                 else []);
            });
        eng = Some eng;
        counters;
        lookup =
          Some
            (fun () ->
              ignore
                (Sys.opaque_identity
                   (Router.lookup router ~src:0 ~dst:(n - 1) ~proto:Wire.proto_rmp)));
      }

let specs =
  [
    { name = "rpc_host_64"; make = rpc_make; reusable = false; size = 2000;
      trace_capacity = 1 lsl 20; setup_batch = 20 };
    { name = "tcp_host_8k"; make = tcp_make; reusable = false; size = 1000;
      trace_capacity = 1 lsl 20; setup_batch = 20 };
    { name = "fleet_hotspot_256"; make = fleet_make; reusable = true; size = 100;
      trace_capacity = 1 lsl 20; setup_batch = 20 };
    { name = "coll_1024"; make = coll_make; reusable = true; size = 1;
      trace_capacity = 1 lsl 21; setup_batch = 1 };
  ]

(* ---------- measurement ---------- *)

type sample = {
  wall : float;
  cpu : float;
  minor : float;
  promoted : float;
  major : float;
  minor_gcs : int;
  major_gcs : int;
}

let timed f =
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let c0 = Sys.time () in
  let t0 = now () in
  f ();
  let t1 = now () in
  let c1 = Sys.time () in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  {
    wall = t1 -. t0;
    cpu = c1 -. c0;
    (* quick_stat's minor count lags the young pointer; this one does not *)
    minor = w1 -. w0;
    promoted = g1.promoted_words -. g0.promoted_words;
    major = g1.major_words -. g0.major_words;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
  }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One set-up sample: seconds per world over a batch of [setup_batch]
   builds from a collected heap, so a sub-millisecond two-CAB build is
   timed over a batch.  Stage times accumulate into [st]. *)
let setup_sample spec builder st =
  Gc.full_major ();
  let t0 = now () in
  for _ = 1 to spec.setup_batch do
    ignore (Sys.opaque_identity (builder st))
  done;
  (now () -. t0) /. float_of_int spec.setup_batch

(* Per-stage set-up seconds per world, over [samples] samples. *)
let setup_stages spec builder ~samples =
  let st = new_stages () in
  for _ = 1 to samples do
    ignore (setup_sample spec builder st)
  done;
  let b = float_of_int (samples * spec.setup_batch) in
  { topology = st.topology /. b; cabs = st.cabs /. b; stacks = st.stacks /. b;
    coll = st.coll /. b }

let episode_source spec builder =
  if spec.reusable then begin
    let runner = builder (new_stages ()) in
    fun () -> runner
  end
  else fun () -> builder (new_stages ())

(* A fingerprint of everything a re-run of the same seed must reproduce. *)
let fingerprint (o : outcome) =
  Printf.sprintf "ops=%d failed=%d sim_ns=%d bytes=%d lat=%d/%d/%d/%x" o.ops
    o.failed o.sim_ns o.bytes o.samples o.p50 o.p99 (o.lat_hash land 0xffffffff)

let sim_metrics (o : outcome) =
  let sim_s = float_of_int o.sim_ns /. 1e9 in
  [
    ("sim_lat_p50_us", float_of_int o.p50 /. 1e3, "sim_us");
    ("sim_lat_p99_us", float_of_int o.p99 /. 1e3, "sim_us");
    ("sim_ops_per_s", float_of_int o.ops /. sim_s, "1/sim_s");
    ("sim_goodput_mbit_s", float_of_int o.bytes *. 8. /. sim_s /. 1e6, "Mbit/sim_s");
  ]

(* ---------- output ---------- *)

(* shortest decimal that reads back as exactly [x] *)
let json_number x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

(* [failed_frac] is printed for people only: it is 0 on a good run, and
   the result line carries [attempted] and [failed] instead *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-34s %16.6f %s\n" name v unit)
    ((("failed_frac", float_of_int failed /. float_of_int (max 1 attempted), "ratio")
      :: metrics));
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let loud fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "perfbench: %s\n%!" s;
      Printf.printf "  !! %s\n%!" s)
    fmt

(* ---------- untraced run: the end-to-end metrics ---------- *)

let min_episodes = 5

(* The host-time statistic: the 10th-percentile sample of a run.  On the
   shared machine this was tuned on, speed switches between a fast and a
   ~1.4x slower state that lasts seconds; how much of a 20 s run falls in
   the slow state varies from run to run, so means and medians wander
   with it, while the fast state's level repeats (NOTES.md). *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(int_of_float (float_of_int (Array.length a - 1) *. p))

let low xs = quantile xs 0.1

let run_plain spec ~seed ~seconds =
  let builder = spec.make ~seed in
  let next = episode_source spec builder in
  (* warm-up: lazy set-up and first heap growth stay out of the samples *)
  let warm = (next ()) spec.size in
  warm.run ();
  ignore (warm.finish ());
  let t_end = now () +. seconds in
  let setups = ref [] in
  let rec loop acc k =
    if k >= min_episodes && now () >= t_end then List.rev acc
    else begin
      (* set-up samples interleave with the episodes, so both see the
         same stretch of machine time *)
      setups := setup_sample spec builder (new_stages ()) :: !setups;
      let ep = (next ()) spec.size in
      (* every episode starts from a finished major cycle, so the GC work
         inside it is the same each time instead of depending on where
         the previous episode left the cycle *)
      Gc.full_major ();
      let s = timed ep.run in
      let o = ep.finish () in
      loop ((s, o) :: acc) (k + 1)
    end
  in
  let runs = loop [] 0 in
  let ok = ref true in
  let _, o0 = List.hd runs and s0, _ = List.hd runs in
  let fp0 = fingerprint o0 in
  List.iteri
    (fun i (s, o) ->
      List.iter (fun e -> ok := false; loud "episode %d: %s" i e) o.errors;
      if fingerprint o <> fp0 then begin
        ok := false;
        loud "DETERMINISM: episode %d differs from episode 0: %s vs %s" i
          (fingerprint o) fp0
      end;
      if s.minor <> s0.minor then begin
        ok := false;
        loud "DETERMINISM: episode %d allocated %.0f minor words, episode 0 %.0f"
          i s.minor s0.minor
      end)
    runs;
  let attempted = List.fold_left (fun a (_, o) -> a + o.ops) 0 runs in
  let failed = List.fold_left (fun a (_, o) -> a + o.failed) 0 runs in
  let walls = List.map (fun (s, _) -> s.wall) runs in
  Printf.printf
    "%s seed %d: %d episodes of %d, %d latency samples each; %d set-up \
     samples of %d\n\
    \  episode wall s: min %.6f p10 %.6f p25 %.6f p50 %.6f p75 %.6f max \
     %.6f mean %.6f\n%!"
    spec.name seed (List.length runs) spec.size o0.samples
    (List.length !setups) spec.setup_batch (quantile walls 0.)
    (quantile walls 0.1) (quantile walls 0.25) (quantile walls 0.5)
    (quantile walls 0.75) (quantile walls 1.)
    (List.fold_left ( +. ) 0. walls /. float_of_int (List.length walls));
  let metrics =
    [
      ("wall_s", low walls, "s");
      ("cpu_s", low (List.map (fun (s, _) -> s.cpu) runs), "s");
      ("setup_s", low !setups, "s");
      ("alloc_words_per_op", s0.minor /. float_of_int o0.ops, "words");
    ]
    @ sim_metrics o0
  in
  print_result ~correct:(!ok && failed = 0) ~attempted ~failed metrics

(* ---------- traced run: the per-layer metrics ---------- *)

let engine_1k_events () =
  let eng = Engine.create () in
  for i = 1 to 1000 do
    ignore (Engine.at eng i (fun () -> ()))
  done;
  Engine.run eng

(* median over [samples] of the mean time of [inner] calls, seconds *)
let micro ?(samples = 9) ~inner f =
  f ();
  median
    (List.init samples (fun _ ->
         let t0 = now () in
         for _ = 1 to inner do
           f ()
         done;
         (now () -. t0) /. float_of_int inner))

let delta ~before ~after =
  let d = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k v ->
      let b = Option.value (Hashtbl.find_opt before k) ~default:0. in
      Hashtbl.replace d k (v -. b))
    after;
  d

let same_table a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v ok -> ok && Hashtbl.find_opt b k = Some v)
       a true

type traced = {
  t_sample : sample;
  t_outcome : outcome;
  t_counters : counters;
  t_self : (string, int) Hashtbl.t;
  t_serve : int;
  t_dropped : int;
  t_recorded : int;
}

(* the span labels behind the span.* metrics (CPU-owner spans are named
   after threads, so they differ between episodes and are not compared) *)
let span_labels =
  [ "wire"; "vme.pio"; "vme.dma"; "tx.dma"; "rx.dma"; "rpc.call"; "dl.tx";
    "rx-frame"; "host.begin_put"; "host.end_put"; "host.begin_get";
    "host.end_get"; "host.read"; "host.write"; "coll.op" ]

let run_traced spec ~seed ~seconds:_ =
  let engine_s = micro ~inner:100 engine_1k_events in
  let builder = spec.make ~seed in
  let stages = setup_stages spec builder ~samples:5 in
  let next = episode_source spec builder in
  let warm = (next ()) spec.size in
  warm.run ();
  ignore (warm.finish ());
  let window ~trace =
    let ep = (next ()) spec.size in
    let before = ep.counters () in
    let tracer =
      match (trace, ep.eng) with
      | true, Some eng ->
          let t = Trace.create ~capacity:spec.trace_capacity eng in
          Trace.install t;
          Some t
      | _ -> None
    in
    Gc.full_major ();
    let s = timed ep.run in
    if tracer <> None then Trace.uninstall ();
    let o = ep.finish () in
    let c = delta ~before ~after:(ep.counters ()) in
    let self, serve, dropped, recorded =
      match tracer with
      | Some t ->
          (Layers.self_ns (Trace.spans t), Layers.serve_ns (Trace.events t),
           Trace.dropped t, Trace.recorded t)
      | None -> (Hashtbl.create 1, 0, 0, 0)
    in
    ( trace,
      { t_sample = s; t_outcome = o; t_counters = c; t_self = self;
        t_serve = serve; t_dropped = dropped; t_recorded = recorded },
      ep )
  in
  (* alternate, so a drift in machine speed loads both sides alike *)
  let windows = List.map (fun trace -> window ~trace) [ false; true; false; true; false ] in
  let plain = List.filter_map (fun (t, w, _) -> if t then None else Some w) windows in
  let traced = List.filter_map (fun (t, w, _) -> if t then Some w else None) windows in
  let route_s =
    let _, _, last = List.nth windows (List.length windows - 1) in
    match last.lookup with Some f -> micro ~inner:100_000 f | None -> 0.
  in
  let p = List.hd plain and t = List.hd traced in
  let ok = ref true in
  let check what cond =
    if not cond then begin
      ok := false;
      loud "DETERMINISM: %s" what
    end
  in
  (* tracing consumes no simulated time: every window of the seed, traced
     or not, must reproduce the same outcome and counters, and the two
     traced windows the same spans *)
  List.iteri
    (fun i w ->
      check (Printf.sprintf "window %d outcome" i)
        (fingerprint w.t_outcome = fingerprint p.t_outcome);
      check (Printf.sprintf "window %d counters" i)
        (same_table w.t_counters p.t_counters))
    (plain @ traced);
  let reported tbl =
    List.map (fun l -> Hashtbl.find_opt tbl l) span_labels
  in
  List.iter
    (fun w ->
      check "traced windows' spans" (reported w.t_self = reported t.t_self);
      check "traced windows' rpc serve time" (w.t_serve = t.t_serve))
    traced;
  List.iter
    (fun w ->
      List.iter (fun e -> ok := false; loud "%s" e) w.t_outcome.errors;
      if w.t_dropped > 0 then begin
        ok := false;
        loud "trace ring dropped %d events" w.t_dropped
      end)
    (plain @ traced);
  let ops = float_of_int p.t_outcome.ops in
  let c k = Option.value (Hashtbl.find_opt p.t_counters k) ~default:0. in
  let per_op k = c k /. ops in
  let span label =
    float_of_int (Option.value (Hashtbl.find_opt t.t_self label) ~default:0)
    /. 1e3 /. ops
  in
  let ratio num den = if den > 0. then num /. den else 0. in
  let med f l = median (List.map f l) in
  let plain_wall = med (fun w -> w.t_sample.wall) plain in
  let traced_wall = med (fun w -> w.t_sample.wall) traced in
  let gc f = med (fun w -> f w.t_sample) plain in
  let traceable = t.t_recorded > 0 in
  let metrics =
    [
      ("engine.run_s", engine_s, "s");
      ("engine.ns_per_event", engine_s *. 1e9 /. 1000., "ns");
      ("gc.minor_collections_per_kop",
       gc (fun s -> float_of_int s.minor_gcs) *. 1000. /. ops, "count");
      ("gc.promoted_words_per_op", gc (fun s -> s.promoted) /. ops, "words");
      (* OCaml's count: direct major allocations plus promoted words *)
      ("gc.major_words_per_op", gc (fun s -> s.major) /. ops, "words");
      ("gc.major_collections", gc (fun s -> float_of_int s.major_gcs), "count");
      ("setup.topology_s", stages.topology, "s");
      ("setup.cabs_s", stages.cabs, "s");
      ("setup.stacks_s", stages.stacks, "s");
      ("setup.coll_s", stages.coll, "s");
      ("net.frames_per_op", per_op "net.frames_sent", "count");
      ("net.wire_bytes_per_op", per_op "net.bytes_sent", "bytes");
      ("net.port_waits_per_op", per_op "net.port_waits", "count");
      ("net.port_wait_us_per_op", per_op "net.port_wait_ns" /. 1e3, "sim_us");
      ("span.wire_us_per_op", span "wire", "sim_us");
      ("cab.cpu_busy_us_per_op", per_op "cpu.busy_ns" /. 1e3, "sim_us");
      ("cab.cpu_switches_per_op", per_op "cpu.switches", "count");
      ("rx.completion_batches", c "rx.completion_batches", "count");
      ("span.vme_pio_us_per_op", span "vme.pio", "sim_us");
      ("span.vme_dma_us_per_op", span "vme.dma", "sim_us");
      ("span.tx_dma_us_per_op", span "tx.dma", "sim_us");
      ("span.rx_dma_us_per_op", span "rx.dma", "sim_us");
    ]
    @ List.map
        (fun site ->
          let s = Copy_meter.site_name site in
          ("copy." ^ s ^ "_bytes_per_op", per_op ("copy." ^ s ^ ".bytes"), "bytes"))
        copy_sites
    @ [
        ("msgpool.hit_ratio",
         ratio (c "msgpool.hits") (c "msgpool.hits" +. c "msgpool.misses"),
         "ratio");
        ("dl.frames_out_per_op", per_op "dl.frames_out", "count");
        ("dl.drops",
         List.fold_left
           (fun a k -> a +. c ("dl.drops_" ^ k))
           0.
           [ "bad_len"; "bad_proto"; "no_buffer"; "crc"; "route_down"; "no_route" ],
         "count");
        ("rpc.duplicate_requests", c "rpc.duplicate_requests", "count");
        ("span.rpc_call_us_per_op", span "rpc.call", "sim_us");
        ("span.rpc_serve_us_per_op", float_of_int t.t_serve /. 1e3 /. ops, "sim_us");
        ("span.dl_tx_us_per_op", span "dl.tx", "sim_us");
        ("span.dl_rx_us_per_op", span "rx-frame", "sim_us");
        ("tcp.segments_out_per_op", per_op "tcp.segments_out", "count");
        ("tcp.retransmissions", c "tcp.retransmissions", "count");
        ("tcp.useful_ratio",
         ratio (c "tcp.segments_out" -. c "tcp.retransmissions") (c "tcp.segments_out"),
         "ratio");
        ("rmp.retransmits_per_op", per_op "rmp.retransmits", "count");
        ("rmp.duplicates", c "rmp.duplicates", "count");
        ("rmp.useful_ratio",
         ratio (c "rmp.delivered") (c "rmp.delivered" +. c "rmp.retransmits"),
         "ratio");
      ]
    @ List.map
        (fun l ->
          ("span.host_" ^ l ^ "_us_per_op", span ("host." ^ l), "sim_us"))
        [ "begin_put"; "end_put"; "begin_get"; "end_get"; "read"; "write" ]
    @ [
        ("host.notifications_per_op", per_op "host.notifications", "count");
        ("route.compiles", c "route.compiles", "count");
        ("route.lookup_ns", route_s *. 1e9, "ns");
        ("coll.up_msgs_per_op", per_op "coll.up_msgs", "count");
        ("coll.down_msgs_per_op", per_op "coll.down_msgs", "count");
        ("coll.host_wakeups_per_op", per_op "coll.host_wakeups", "count");
        ("span.coll_op_us_per_op", span "coll.op", "sim_us");
        ("fleet.goodput_spread", c "fleet.goodput_spread", "ratio");
        ("trace.dropped",
         float_of_int (List.fold_left (fun a w -> a + w.t_dropped) 0 traced),
         "count");
        ("trace.overhead_frac",
         (if traceable then (traced_wall /. plain_wall) -. 1. else 0.),
         "ratio");
      ]
  in
  Printf.printf
    "%s seed %d traced: window of %d, untraced %.4f s, traced %.4f s, %d \
     events recorded%s\n"
    spec.name seed spec.size plain_wall traced_wall t.t_recorded
    (if traceable then "" else " (driver-owned engine: no spans)");
  let attempted = List.fold_left (fun a w -> a + w.t_outcome.ops) 0 (plain @ traced) in
  let failed = List.fold_left (fun a w -> a + w.t_outcome.failed) 0 (plain @ traced) in
  print_result ~correct:(!ok && failed = 0) ~attempted ~failed metrics

(* ---------- main ---------- *)

(* Hostlib numbers signal opcodes from one process-wide counter starting
   at 100, while Cab_driver claims opcode 240 on every runtime, so the
   141st Hostlib.attach of a process fails.  A benchmark process attaches
   hundreds of handles: step the counter past 240 once, on a scratch
   board, before any measured world exists. *)
let skip_reserved_opcode () =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let rt = Runtime.create (Cab.create net ~hub:0 ~port:0 ~name:"scratch") in
  let drv = Cab_driver.attach (Host.create eng ~name:"scratch") rt in
  let mb = Runtime.create_mailbox rt ~name:"scratch" () in
  let rec go k =
    if k > 0 then
      match Hostlib.attach drv mb ~mode:Hostlib.Shared_memory ~readers:`Host with
      | _ -> go (k - 1)
      | exception Invalid_argument _ -> ()
  in
  go 200

let () =
  let workload = ref "" and seed = ref 1990 and seconds = ref 10.
  and trace = ref 0 in
  let usage =
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map (fun s -> s.name) specs)
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed (default 1990)");
      ("--seconds", Arg.Set_float seconds, " measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, " 1: traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun s -> s.name = !workload) specs with
  | None ->
      prerr_endline usage;
      exit 2
  | Some spec ->
      skip_reserved_opcode ();
      if !trace = 1 then run_traced spec ~seed:!seed ~seconds:!seconds
      else run_plain spec ~seed:!seed ~seconds:!seconds
