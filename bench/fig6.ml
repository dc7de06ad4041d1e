(* Figure 6: one-way host-to-host datagram latency breakdown.

   Paper: ~163 us one way, of which ~40% is the host-CAB interface at the
   two ends, ~40% CAB-to-CAB, and ~20% host processing (creating and
   reading the message).

   The bench replays the figure's exact path, recording an instant trace
   event at each stage boundary (rounds are strictly sequential, so the
   i-th occurrence of every label belongs to round i — exactly the
   per-iteration lookup Trace.occurrences provides):

     t0  host starts creating the message
     t1  host finishes begin_put/fill/end_put (the CAB is now interrupted)
     t2  the CAB send thread picks the request up and starts the send
     t3  the datagram has been delivered into the receiving mailbox
         (interrupt level on the receiving CAB; observed by an upcall)
     t4  the polling host process's begin_get returns
     t5  the host has read the payload out of CAB memory *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
open Bench_world

let payload_bytes = 64
let iterations = 12
let warmup = 4

let mark label = Trace.instant ~track:"fig6" label

let run () =
  let w = World.build () in
  let drv_a = World.add_host w 0 in
  let drv_b = World.add_host w 1 in
  let eng = w.eng in
  let port = 900 in
  let tracer = Trace.create eng in
  Trace.install tracer;
  let inbox =
    Runtime.create_mailbox w.stacks.(1).Stack.rt ~name:"f6-inbox" ~port
      ~upcall:(fun _ctx _mb -> mark "t3")
      ()
  in
  let send_mb =
    Runtime.create_mailbox w.stacks.(0).Stack.rt ~name:"f6-send" ()
  in
  spawn_cab_thread w.stacks.(0) ~name:"send-server" (fun ctx ->
      while true do
        let m = Mailbox.begin_get ctx send_mb in
        mark "t2";
        let payload = Message.read_string m ~pos:0 ~len:(Message.length m) in
        Mailbox.end_get ctx m;
        Dgram.send_string ctx w.stacks.(0).Stack.dgram ~dst_cab:1 ~dst_port:port
          payload
      done);
  let h_send =
    Hostlib.attach drv_a send_mb ~mode:Hostlib.Shared_memory ~readers:`Cab
  in
  let h_in =
    Hostlib.attach drv_b inbox ~mode:Hostlib.Shared_memory ~readers:`Host
  in
  (* round-trip control channel so rounds do not overlap: receiver tells the
     sender (out of band, zero sim cost) when it is done *)
  let round_done = Waitq.create eng ~name:"f6-round" () in
  Host.spawn_process (Cab_driver.host drv_b) ~name:"reader" (fun ctx ->
      for _ = 1 to iterations do
        let m = Hostlib.begin_get ctx h_in in
        mark "t4";
        let s = Hostlib.read_string ctx h_in m in
        Table1.touch ctx (String.length s);
        mark "td";
        Hostlib.end_get ctx h_in m;
        mark "t5";
        ignore (Waitq.signal round_done)
      done);
  Host.spawn_process (Cab_driver.host drv_a) ~name:"writer" (fun ctx ->
      for _ = 1 to iterations do
        mark "t0";
        Table1.touch ctx payload_bytes;
        mark "ta";
        let m = Hostlib.begin_put ctx h_send payload_bytes in
        mark "tb";
        Hostlib.write_string ctx h_send m ~pos:0
          (String.make payload_bytes 'x');
        mark "tc";
        Hostlib.end_put ctx h_send m;
        mark "t1";
        Waitq.wait round_done
      done);
  Engine.run eng;
  Trace.uninstall ();
  let occ label =
    let times = Array.of_list (Trace.occurrences tracer label) in
    if Array.length times <> iterations then
      failwith (Printf.sprintf "fig6: expected %d %s marks, got %d" iterations
                  label (Array.length times));
    times
  in
  let t0 = occ "t0" and ta = occ "ta" and tb = occ "tb" and tc = occ "tc"
  and t1 = occ "t1" and t2 = occ "t2" and t3 = occ "t3" and t4 = occ "t4"
  and td = occ "td" and t5 = occ "t5" in
  let acc = Array.make 5 0 in
  for i = warmup to iterations - 1 do
    (* host application work: produce + in-place payload writes *)
    acc.(0) <- acc.(0) + (ta.(i) - t0.(i)) + (tc.(i) - tb.(i));
    (* host-CAB interface, sender: mailbox bookkeeping, signal queue,
       CAB thread schedule *)
    acc.(1) <- acc.(1) + (tb.(i) - ta.(i)) + (t1.(i) - tc.(i))
               + (t2.(i) - t1.(i));
    (* CAB to CAB *)
    acc.(2) <- acc.(2) + (t3.(i) - t2.(i));
    (* host-CAB interface, receiver: poll wakeup + bookkeeping *)
    acc.(3) <- acc.(3) + (t4.(i) - t3.(i)) + (t5.(i) - td.(i));
    (* host application work: payload reads + consume *)
    acc.(4) <- acc.(4) + (td.(i) - t4.(i))
  done;
  let n = iterations - warmup in
  let avg i = acc.(i) / n in
  let create = avg 0
  and to_cab = avg 1
  and cab_cab = avg 2
  and to_host = avg 3
  and read = avg 4 in
  let total = create + to_cab + cab_cab + to_host + read in
  section "Figure 6: one-way host-to-host datagram latency breakdown";
  let pct x = 100. *. float_of_int x /. float_of_int total in
  let line name ns =
    Printf.printf "  %-34s %10s  (%4.1f%%)\n" name (fmt_us ns) (pct ns)
  in
  line "host: create message (in place)" create;
  line "host-CAB: put + signal + schedule" to_cab;
  line "CAB-to-CAB: send, wire, deliver" cab_cab;
  line "CAB-host: poll wake + bookkeeping" to_host;
  line "host: read message (in place)" read;
  Printf.printf "  %-34s %10s   paper: 163 us\n" "TOTAL one-way" (fmt_us total);
  let interface = to_cab + to_host
  and host = create + read in
  Printf.printf
    "  split: host-CAB interface %.0f%% / CAB-to-CAB %.0f%% / host %.0f%%\n"
    (pct interface) (pct cab_cab) (pct host);
  Printf.printf "  paper split:               40%% / 40%% / 20%%\n"
