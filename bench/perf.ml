(* Perf-regression harness (beyond the paper — see EXPERIMENTS.md,
   "Beyond the paper (fastpath)").

   Two kinds of numbers, kept deliberately separate:

   - wall-clock: how fast the *simulator itself* runs (the event engine
     micro plus a full fig7 RMP point).  Machine-dependent; measured with
     a median-of-samples loop rather than Bechamel's OLS so run-to-run
     noise stays small.  Compared against the recorded pre-fastpath
     baseline (~290k ns for the 1k-timer micro).

   - simulated: protocol throughput of the sliding-window RMP and a
     multi-CAB fleet with receive-interrupt coalescing.  Deterministic —
     pure functions of the cost model — so they double as regression
     counters.

   [run ~smoke:true] (the perf registry entry under [--smoke], run by
   ci.sh) runs shrunken simulated scenarios and asserts only
   deterministic counts — never wall-clock thresholds, which would make
   CI flaky.  The failover, scaling, fleet and collectives sections are
   registry entries of their own, which carry their BENCH_perf.json
   gates; the full run measures them again to write BENCH_perf.json to
   the current directory.  The checked-in copy at the repo root is the
   recorded regression point. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Bench_world
module Net = Nectar_hub.Network
module Cab = Nectar_cab.Cab
module Rx = Nectar_cab.Rx

(* Recorded wall clock of the engine micro before the fastpath work
   (lazy-cancel polymorphic-compare heap), on the reference machine. *)
let baseline_engine_1k_ns = 290_000.

(* ---------- wall-clock measurement ---------- *)

let median xs =
  let a = List.sort compare xs in
  List.nth a (List.length a / 2)

(* Median of [samples] timings, each averaging [inner] calls: steadier
   than a single Bechamel OLS estimate for these ~100us workloads. *)
let time_ns ?(samples = 9) ?(inner = 100) f =
  Gc.compact ();
  ignore (f ());
  ignore (f ());
  let one () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to inner do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int inner
  in
  median (List.init samples (fun _ -> one ()))

let engine_1k_events () =
  let eng = Engine.create () in
  for i = 1 to 1000 do
    ignore (Engine.at eng i (fun () -> ()))
  done;
  Engine.run eng

(* The RTO pattern: most timers are cancelled before they fire (every ack
   cancels a retransmit timer).  Exercises eager removal from the heap. *)
let engine_schedule_cancel () =
  let eng = Engine.create () in
  for i = 1 to 1000 do
    let tm = Engine.at eng (i + 1000) (fun () -> ()) in
    if i mod 8 <> 0 then Engine.cancel eng tm
  done;
  Engine.run eng

(* ---------- deterministic micro: minor words per call ---------- *)

(* Recorded in BENCH_perf.json ("micro"); the smoke run fails if any count
   rises above its recorded value.  Counts, not timings: they repeat
   exactly on any machine with the same compiler.  The two per-byte
   kernels are pinned at zero: a kernel that starts boxing its int32 or
   int64 loads fails here instead of silently losing its speed. *)
let recorded_sleep_words = 2.
let recorded_yield_words = 2.
let recorded_consume_words = 2.
let recorded_timed_wait_words = 17.
let recorded_crc32_8k_words = 0.
let recorded_inet_checksum_8k_words = 0.

(* Minor words per [body] call in a one-process loop, measured inside the
   process after one warm-up call, run loop included. *)
let words_per_iteration ~n body =
  let eng = Engine.create () in
  let words = ref 0. in
  Engine.spawn eng ~name:"loop" (fun () ->
      let body = body eng in
      body ();
      let before = Gc.minor_words () in
      for _ = 1 to n do
        body ()
      done;
      words := Gc.minor_words () -. before);
  Engine.run eng;
  !words /. float_of_int n

let engine_sleep_words () =
  words_per_iteration ~n:10_000 (fun eng () -> Engine.sleep eng 1)

let engine_yield_words () =
  words_per_iteration ~n:10_000 (fun eng () -> Engine.yield eng)

let cpu_consume_words () =
  words_per_iteration ~n:10_000 (fun eng ->
      let cpu = Cpu.create eng ~name:"cpu" () in
      let thread = Cpu.owner cpu ~name:"thread" ~switch_in:0 in
      fun () -> Cpu.consume cpu thread ~priority:1 10)

(* park, time out, resume; the signal drains the dead entry *)
let waitq_timed_wait_words () =
  words_per_iteration ~n:10_000 (fun eng ->
      let q = Waitq.create eng in
      fun () ->
        ignore (Waitq.wait_timeout q 1);
        ignore (Waitq.signal q))

let crc32_8k_words () =
  words_per_iteration ~n:1_000 (fun _ ->
      let buf = Bytes.make 8192 '\x5a' in
      fun () -> ignore (Nectar_util.Crc32.digest buf ~pos:0 ~len:8192))

let inet_checksum_8k_words () =
  words_per_iteration ~n:1_000 (fun _ ->
      let buf = Bytes.make 8192 '\x5a' in
      fun () ->
        ignore (Nectar_util.Inet_checksum.checksum buf ~pos:0 ~len:8192))

(* (name, JSON key, measure, recorded) for each micro count *)
let micro_counts =
  [
    ("Engine.sleep", "engine_sleep_words", engine_sleep_words,
     recorded_sleep_words);
    ("Engine.yield", "engine_yield_words", engine_yield_words,
     recorded_yield_words);
    ("Cpu.consume", "cpu_consume_words", cpu_consume_words,
     recorded_consume_words);
    ("Waitq.wait_timeout", "waitq_timed_wait_words", waitq_timed_wait_words,
     recorded_timed_wait_words);
    ("Crc32 8 KB", "crc32_8k_words", crc32_8k_words, recorded_crc32_8k_words);
    ("Inet_checksum 8 KB", "inet_checksum_8k_words", inet_checksum_8k_words,
     recorded_inet_checksum_8k_words);
  ]

(* ---------- simulated: windowed RMP CAB-to-CAB throughput ---------- *)

(* Fig7's RMP loop at a given window; flushed, so windowed senders wait
   for their tail acks.  Returns (Mbit/s, delivered, retransmits,
   failed_sends). *)
let windowed_run ~window ~size ~count =
  let w =
    World.build ~stack:(fun rt -> Stack.create rt ~rmp_window:window ()) ()
  in
  let r = bulk w Rmp ~host:false ~size ~count in
  let rmp = w.stacks.(0).Stack.rmp in
  ( goodput r,
    r.delivered / size,
    Rmp.retransmits rmp,
    Rmp.failed_sends rmp )

(* ---------- simulated: multi-CAB fleet with rx coalescing ---------- *)

(* [senders] CABs blast one sink (stack 1) over windowed RMP; the sink's
   receive engine optionally coalesces completion interrupts
   ([coalesce_ns]).  Returns (aggregate Mbit/s, delivered, completion
   batches). *)
let fleet_run ~senders ~window ~size ~count ~coalesce_ns =
  let w =
    World.build
      ~seats:(World.ports (senders + 1))
      ~stack:(fun rt -> Stack.create rt ~rmp_window:window ())
      ()
  in
  let rx = Cab.rx (Runtime.cab w.stacks.(1).Stack.rt) in
  Rx.set_coalesce_ns rx coalesce_ns;
  let r = bulk w Rmp ~host:false ~size ~count in
  (goodput r, r.delivered / size, Rx.completion_batches rx)

(* ---------- simulated: copy accounting (zero-copy data path) ---------- *)

module Copy_meter = Nectar_util.Copy_meter

(* Per-message copy cost of the 8 KB CAB-to-CAB RMP path.  Counters are
   deterministic, so the exact values are asserted (also from ci.sh via
   the smoke run).  Before the zero-copy data path, every transmitted frame
   was snapshotted with [Bytes.sub] at the tx DMA — the "before" figure is
   therefore the measured copies plus one copy of every wire byte.
   TCP runs with mss = message size: one segment per application write,
   as in fig7. *)
let copies transport ~size ~count =
  Copy_meter.reset ();
  let w =
    World.build ~stack:(fun rt -> Stack.create rt ~tcp_mss:size ()) ()
  in
  ignore (bulk w transport ~host:false ~size ~count);
  (Copy_meter.report (), Copy_meter.bytes_copied (), Net.bytes_sent w.net)

let site_bytes report name =
  match List.find_opt (fun (s, _, _) -> s = name) report with
  | Some (_, _, bytes) -> bytes
  | None -> 0

let check_copies ~check ~size ~count =
  (* RMP: the only remaining copy is the application string entering the
     mailbox buffer; the frame, both headers, and delivery are in place *)
  let rmp_report, rmp_after, rmp_wire = copies Rmp ~size ~count in
  let app = site_bytes rmp_report "app" in
  check
    (Printf.sprintf "rmp copies: app only (%d B app of %d B total)" app
       rmp_after)
    (app = count * size && rmp_after = app);
  List.iter
    (fun site ->
      check
        (Printf.sprintf "rmp copies: site '%s' stays eliminated" site)
        (site_bytes rmp_report site = 0))
    [ "txsnap"; "rxread"; "hdr"; "frag"; "host" ];
  (* one DATA frame (12 B dl + 12 B rmp + payload) and one 24 B ACK per
     message on a clean stop-and-wait wire *)
  check
    (Printf.sprintf "rmp wire bytes account (%d B)" rmp_wire)
    (rmp_wire = count * (size + 48));
  let rmp_before = rmp_after + rmp_wire in
  let reduction =
    1. -. (float_of_int rmp_after /. float_of_int rmp_before)
  in
  check
    (Printf.sprintf "rmp zero-copy saves >= 50%% (%.1f%%)"
       (100. *. reduction))
    (reduction >= 0.5);
  (* TCP: the sndbuf ring keeps two payload copies (in and out — the ring
     must survive for retransmission) plus the receiver's string API *)
  let tcp_report, tcp_after, tcp_wire = copies Tcp ~size ~count in
  check
    (Printf.sprintf "tcp copies: frag %d B, app %d B"
       (site_bytes tcp_report "frag")
       (site_bytes tcp_report "app"))
    (site_bytes tcp_report "frag" = count * size
    && site_bytes tcp_report "app" = 2 * count * size
    && tcp_after = 3 * count * size);
  List.iter
    (fun site ->
      check
        (Printf.sprintf "tcp copies: site '%s' stays eliminated" site)
        (site_bytes tcp_report site = 0))
    [ "txsnap"; "rxread"; "hdr"; "host" ];
  Copy_meter.reset ();
  ( (rmp_after / count, rmp_before / count, reduction),
    (tcp_after / count, (tcp_after + tcp_wire) / count) )

(* Eager cancellation: after a schedule-mostly-cancel storm the queue
   holds exactly the live timers, and only they fire. *)
let check_cancel_storm ~check =
  let eng = Engine.create () in
  let live = ref 0 and fired = ref 0 in
  for i = 1 to 10_000 do
    let tm = Engine.at eng (i + 10_000) (fun () -> incr fired) in
    if i mod 10 <> 0 then Engine.cancel eng tm else incr live
  done;
  let p = Engine.pending_events eng in
  Engine.run eng;
  check
    (Printf.sprintf "cancel storm (pending %d, fired %d, live %d)" p !fired
       !live)
    (p = !live && !fired = !live)

let check_sweep ~check ~size ~count rows =
  List.iter
    (fun (win, (tput, got, retx, failed)) ->
      check
        (Printf.sprintf "window %d: delivered %d/%d, retx %d, failed %d" win
           got count retx failed)
        (got = count && retx = 0 && failed = 0);
      ignore tput)
    rows;
  (match (List.assoc_opt 1 rows, List.assoc_opt 16 rows) with
  | Some (t1, _, _, _), Some (t16, _, _, _) ->
      check
        (Printf.sprintf "window 16 (%.1f) >= window 1 (%.1f) at %d B" t16 t1
           size)
        (t16 >= t1)
  | _ -> ());
  rows

(* ---------- JSON ---------- *)

let json_of ~engine_ns ~cancel_ns ~fig7_wall_ms ~micro
    ~sweep ~size
    ~(fleet_off : float * int * int) ~(fleet_on : float * int * int)
    ~fleet_cfg ~copy_size
    ~(rmp_copies : int * int * float) ~(tcp_copies : int * int)
    ~(fo : Failover.result) ~scaling ~fleet_scale ~collectives =
  let b = Buffer.create 1024 in
  let senders, fcount, fsize, coal_us = fleet_cfg in
  let off_t, off_got, off_b = fleet_off in
  let on_t, on_got, on_b = fleet_on in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"experiment\": \"fastpath-perf\",\n";
  Printf.bprintf b
    "  \"wall_clock\": {\n\
    \    \"note\": \"machine-dependent; median-of-samples, not asserted in \
     CI\",\n\
    \    \"engine_1k_events_baseline_ns\": %.0f,\n\
    \    \"engine_1k_events_ns\": %.0f,\n\
    \    \"engine_1k_events_speedup\": %.2f,\n\
    \    \"engine_1k_schedule_cancel_ns\": %.0f,\n\
    \    \"fig7_rmp_8k_wall_ms\": %.1f\n\
    \  },\n"
    baseline_engine_1k_ns engine_ns
    (baseline_engine_1k_ns /. engine_ns)
    cancel_ns fig7_wall_ms;
  Printf.bprintf b
    "  \"micro\": {\n\
    \    \"note\": \"minor words per call in a one-process loop (blocking \
     calls; 8 KB CRC-32 and checksum kernels); deterministic, perf-smoke \
     fails above these\",\n\
    \    %s\n\
    \  },\n"
    (String.concat ", "
       (List.map
          (fun (_, key, words, _) -> Printf.sprintf "\"%s\": %.0f" key words)
          micro));
  Printf.bprintf b "  \"windowed_rmp\": { \"msg_bytes\": %d, \"points\": [\n"
    size;
  List.iteri
    (fun i (win, (tput, got, retx, failed)) ->
      Printf.bprintf b
        "    { \"window\": %d, \"mbit_s\": %.1f, \"delivered\": %d, \
         \"retransmits\": %d, \"failed_sends\": %d }%s\n"
        win tput got retx failed
        (if i = List.length sweep - 1 then "" else ","))
    sweep;
  Buffer.add_string b "  ] },\n";
  Printf.bprintf b
    "  \"fleet\": {\n\
    \    \"senders\": %d, \"msgs_per_sender\": %d, \"msg_bytes\": %d,\n\
    \    \"coalesce_off\": { \"mbit_s\": %.1f, \"delivered\": %d, \
     \"batches\": %d },\n\
    \    \"coalesce_on\": { \"coalesce_us\": %d, \"mbit_s\": %.1f, \
     \"delivered\": %d, \"batches\": %d }\n\
    \  }\n"
    senders fcount fsize off_t off_got off_b coal_us on_t on_got on_b;
  Buffer.add_string b ",\n";
  let rmp_after, rmp_before, reduction = rmp_copies in
  let tcp_after, tcp_before = tcp_copies in
  Printf.bprintf b
    "  \"copies\": {\n\
    \    \"note\": \"software payload copies per message (Copy_meter); \
     deterministic, asserted exactly\",\n\
    \    \"msg_bytes\": %d,\n\
    \    \"rmp\": { \"bytes_copied_per_msg\": %d, \
     \"pre_zerocopy_per_msg\": %d, \"reduction\": %.3f },\n\
    \    \"tcp\": { \"bytes_copied_per_segment\": %d, \
     \"pre_zerocopy_per_segment\": %d }\n\
    \  }\n"
    copy_size rmp_after rmp_before reduction tcp_after tcp_before;
  Buffer.add_string b ",\n";
  Buffer.add_string b scaling;
  Buffer.add_string b ",\n";
  Buffer.add_string b fleet_scale;
  Buffer.add_string b ",\n";
  Buffer.add_string b collectives;
  Buffer.add_string b ",\n";
  Printf.bprintf b
    "  \"failover\": {\n\
    \    \"note\": \"ring reconvergence under a flapping trunk (simulated, \
     deterministic)\",\n\
    \    \"flap_cycles\": %d, \"msg_bytes\": %d,\n\
    \    \"goodput_steady_mbit_s\": %.1f, \
     \"goodput_reconvergence_mbit_s\": %.1f,\n\
    \    \"blackout_p50_us\": %.0f, \"blackout_p99_us\": %.0f, \
     \"blackout_max_us\": %.0f, \"bound_us\": %.0f,\n\
    \    \"route_recomputes\": %d, \"route_refusals\": %d, \
     \"retransmits\": %d\n\
    \  }\n"
    fo.Failover.cycles fo.Failover.msg_bytes fo.Failover.goodput_steady
    fo.Failover.goodput_flap fo.Failover.blackout_p50_us
    fo.Failover.blackout_p99_us fo.Failover.blackout_max_us
    fo.Failover.bound_us fo.Failover.recomputes fo.Failover.refusals
    fo.Failover.retransmits;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ---------- driver ---------- *)

(* The perf registry entry. *)
let run ~smoke () =
  let check, checks = collector () in
  section
    (if smoke then "Perf harness (smoke: deterministic counts only)"
     else "Perf harness (fastpath): wall clock + windowed RMP");
  check_cancel_storm ~check;
  let micro =
    List.map
      (fun (name, key, measure, recorded) -> (name, key, measure (), recorded))
      micro_counts
  in
  Printf.printf "  minor words per call (deterministic):\n";
  List.iter
    (fun (name, _, words, recorded) ->
      Printf.printf "    %-18s %5.1f  (recorded %.0f)\n" name words recorded;
      if smoke then
        check
          (Printf.sprintf "BENCH_perf.json micro: %s %.1f words <= %.0f" name
             words recorded)
          (words <= recorded))
    micro;
  let size = if smoke then 1024 else 8192 in
  let count = if smoke then 40 else 183 in
  let sweep =
    check_sweep ~check ~size ~count
      (List.map
         (fun win ->
           (win, windowed_run ~window:win ~size ~count))
         [ 1; 4; 16 ])
  in
  Printf.printf "  windowed RMP, %d B x %d msgs (simulated):\n" size count;
  List.iter
    (fun (win, (tput, _, _, _)) ->
      Printf.printf "    window %-3d %8s Mbit/s\n" win (fmt_mbps tput))
    sweep;
  check "tracer disabled (zero-cost hooks compiled in)"
    (not (Trace.installed ()));
  if smoke then
    (* BENCH_perf.json regression gate: the recorded full-size windowed-RMP
       numbers must reproduce exactly with tracing compiled in but disabled *)
    List.iter
      (fun (win, want) ->
        let tput, got, retx, failed =
          windowed_run ~window:win ~size:8192 ~count:183
        in
        let r = Float.round (tput *. 10.) /. 10. in
        check
          (Printf.sprintf
             "BENCH_perf.json window %d: %.1f Mbit/s (recorded %.1f)" win r
             want)
          (r = want && got = 183 && retx = 0 && failed = 0))
      [ (1, 84.9); (4, 94.1); (16, 94.1) ];
  (* Small frames so several receive completions land inside one coalesce
     window (a 512 B frame occupies the sink's link for ~44 us). *)
  let senders = if smoke then 3 else 4 in
  let fcount = if smoke then 30 else 200 in
  let fsize = 512 in
  let coal_us = 100 in
  let fleet ~coalesce_ns =
    fleet_run ~senders ~window:8 ~size:fsize ~count:fcount ~coalesce_ns
  in
  let copy_count = if smoke then 20 else 100 in
  let ((rmp_after, rmp_before, reduction) as rmp_copies), tcp_copies =
    check_copies ~check ~size ~count:copy_count
  in
  let tcp_after, tcp_before = tcp_copies in
  Printf.printf
    "  copies per message, %d B payload (simulated, exact):\n\
    \    rmp  %6d B copied  (pre-zerocopy %6d B, -%.1f%%)\n\
    \    tcp  %6d B copied  (pre-zerocopy %6d B)\n"
    size rmp_after rmp_before (100. *. reduction) tcp_after tcp_before;
  let ((off_t, off_got, off_b) as fleet_off) = fleet ~coalesce_ns:0 in
  let ((on_t, on_got, on_b) as fleet_on) =
    fleet ~coalesce_ns:(Sim_time.us coal_us)
  in
  let total = senders * fcount in
  check
    (Printf.sprintf "fleet coalesce off: delivered %d/%d, batches %d" off_got
       total off_b)
    (off_got = total && off_b = 0);
  check
    (Printf.sprintf "fleet coalesce on: delivered %d/%d, batches %d" on_got
       total on_b)
    (on_got = total && on_b > 0 && on_b < total);
  Printf.printf
    "  fleet (%d senders x %d x %d B, window 8, simulated):\n\
    \    coalesce off    %8s Mbit/s  (one interrupt per frame)\n\
    \    coalesce %3dus  %8s Mbit/s  (%d frames in %d batches)\n"
    senders fcount fsize (fmt_mbps off_t) coal_us (fmt_mbps on_t) on_got on_b;
  if not smoke then begin
    (* The sections with registry entries of their own, measured again at
       full size for the JSON. *)
    let fo = Failover.measure () in
    Failover.print fo;
    Failover.gate ~check fo;
    let scaling = Fleet_bench.measure_scaling ~check ~smoke () in
    Fleet_bench.print_scaling scaling;
    let fleet_scale = Fleet_bench.measure ~check ~smoke () in
    Fleet_bench.print fleet_scale;
    let collectives = Coll_bench.measure ~check ~smoke () in
    Coll_bench.print collectives;
    let engine_ns = time_ns engine_1k_events in
    let cancel_ns = time_ns engine_schedule_cancel in
    let fig7_wall =
      time_ns ~samples:3 ~inner:1 (fun () ->
          ignore (windowed_run ~window:1 ~size:8192 ~count:183))
      /. 1e6
    in
    Printf.printf
      "  wall clock (this machine):\n\
      \    engine 1k timer events   %8.0f ns/run  (baseline %.0f, speedup \
       %.2fx)\n\
      \    engine schedule+cancel   %8.0f ns/run\n\
      \    fig7 RMP 8KB point       %8.1f ms\n"
      engine_ns baseline_engine_1k_ns
      (baseline_engine_1k_ns /. engine_ns)
      cancel_ns fig7_wall;
    let js =
      json_of ~engine_ns ~cancel_ns ~fig7_wall_ms:fig7_wall ~micro ~sweep
        ~size
        ~fleet_off ~fleet_on
        ~fleet_cfg:(senders, fcount, fsize, coal_us)
        ~copy_size:size ~rmp_copies ~tcp_copies ~fo
        ~scaling:(Fleet_bench.scaling_json_fragment scaling)
        ~fleet_scale:(Fleet_bench.json_fragment fleet_scale)
        ~collectives:(Coll_bench.json_fragment collectives)
    in
    let oc = open_out "BENCH_perf.json" in
    output_string oc js;
    close_out oc;
    Printf.printf "  wrote BENCH_perf.json\n"
  end;
  checks ()
