(* Table 1: round-trip latency (us) for the Nectar transports, between two
   host processes and between two CAB threads.

   Paper anchor points: datagram 325 us host-to-host / 179 us CAB-to-CAB;
   abstract: RPC < 500 us between host application tasks.  The OCR of the
   paper preserves only the datagram row, so the other rows are reproduced
   against those constraints (see EXPERIMENTS.md). *)

open Bench_world

let payload_bytes = 64
let iterations = 24
let warmup = 4

(* The mean round trip after the first [warmup] rounds. *)
let mean_rtt samples =
  let s = List.filteri (fun i _ -> i >= warmup) samples in
  List.fold_left ( + ) 0 s / max 1 (List.length s)

let rtt transport ~host =
  mean_rtt
    (echo_rtt (World.build ()) transport ~host ~payload:payload_bytes
       ~rounds:iterations)

let run () =
  section
    (Printf.sprintf "Table 1: round-trip latency, %d-byte messages (us)"
       payload_bytes);
  row4 "protocol" "host-host" "cab-cab" "paper (h/c)";
  row4 "--------" "---------" "-------" "-----------";
  List.iter
    (fun (name, transport, paper) ->
      row4 name
        (fmt_us (rtt transport ~host:true))
        (fmt_us (rtt transport ~host:false))
        paper)
    [
      ("datagram", Dgram, "325 / 179");
      ("reliable message (RMP)", Rmp, "- / -");
      ("request-response (RPC)", Rpc Nectar_proto.Reqresp.Thread_server,
       "< 500 / -");
      ("UDP/IP", Udp, "- / -");
    ]
