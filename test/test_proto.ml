open Nectar_sim
open Nectar_core
open Nectar_proto
module Net = Nectar_hub.Network
module World = Nectar_fleet.World

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let us = Sim_time.us

let spawn_on (s : Stack.t) ~name body =
  ignore (Thread.create (Runtime.cab s.Stack.rt) ~name body)

(* ---------- Tcp_seq properties ---------- *)

let seq_gen = QCheck2.Gen.(map (fun x -> x land 0xffffffff) (int_bound max_int))

let prop_seq_add_diff =
  QCheck2.Test.make ~name:"seq diff (add a d) a = d for |d| < 2^31"
    QCheck2.Gen.(pair seq_gen (int_range (-1000000) 1000000))
    (fun (a, d) ->
      Tcp_seq.diff (Tcp_seq.add a d) a = d)

let prop_seq_lt_total =
  QCheck2.Test.make ~name:"seq lt/gt antisymmetric away from the pole"
    QCheck2.Gen.(pair seq_gen seq_gen)
    (fun (a, b) ->
      QCheck2.assume (Tcp_seq.mask (a - b) <> 0x80000000);
      if a = b then (not (Tcp_seq.lt a b)) && not (Tcp_seq.gt a b)
      else Tcp_seq.lt a b <> Tcp_seq.lt b a)

let test_seq_wraparound () =
  let near_top = 0xffffff00 in
  let wrapped = Tcp_seq.add near_top 0x200 in
  check_int "wraps" 0x100 wrapped;
  check_bool "wrapped is greater" true (Tcp_seq.gt wrapped near_top);
  check_bool "window membership across wrap" true
    (Tcp_seq.in_window 0x40 ~lo:near_top ~len:0x400)

(* ---------- Datagram ---------- *)

let test_dgram_roundtrip () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"inbox" ~port:Wire.port_first_user
      ()
  in
  let got = ref None and got_at = ref 0 and sent_at = ref 0 in
  spawn_on b ~name:"receiver" (fun ctx ->
      let m = Mailbox.begin_get ctx inbox in
      got := Some (Message.to_string m);
      got_at := Engine.now eng;
      Mailbox.end_get ctx m);
  spawn_on a ~name:"sender" (fun ctx ->
      (* let the stacks' server threads finish their cold start first *)
      Engine.sleep eng (Sim_time.ms 1);
      sent_at := Engine.now eng;
      Dgram.send_string ctx a.Stack.dgram ~dst_cab:(Stack.node_id b)
        ~dst_port:Wire.port_first_user "hello nectar");
  Engine.run eng;
  Alcotest.(check (option string)) "payload" (Some "hello nectar") !got;
  check_bool "one-way latency within datagram budget" true
    (!got_at - !sent_at < us 150);
  check_int "delivered counter" 1 (Dgram.delivered b.Stack.dgram)

let test_dgram_unknown_port_dropped () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  spawn_on a ~name:"sender" (fun ctx ->
      Dgram.send_string ctx a.Stack.dgram ~dst_cab:(Stack.node_id b)
        ~dst_port:4242 "nobody home");
  Engine.run eng;
  check_int "dropped" 1 (Dgram.dropped_no_port b.Stack.dgram);
  check_int "not delivered" 0 (Dgram.delivered b.Stack.dgram)

(* ---------- RMP ---------- *)

let test_rmp_reliable_roundtrip () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"inbox" ~port:Wire.port_first_user
      ()
  in
  let got = ref [] in
  spawn_on b ~name:"receiver" (fun ctx ->
      for _ = 1 to 3 do
        let m = Mailbox.begin_get ctx inbox in
        got := Message.to_string m :: !got;
        Mailbox.end_get ctx m
      done);
  spawn_on a ~name:"sender" (fun ctx ->
      List.iter
        (fun s ->
          Rmp.send_string ctx a.Stack.rmp ~dst_cab:(Stack.node_id b)
            ~dst_port:Wire.port_first_user s)
        [ "first"; "second"; "third" ]);
  Engine.run eng;
  Alcotest.(check (list string))
    "in order" [ "first"; "second"; "third" ] (List.rev !got);
  check_int "no retransmits on a clean wire" 0 (Rmp.retransmits a.Stack.rmp)

let test_rmp_recovers_from_loss () =
  let w = World.build () in
  let eng = w.eng and net = w.net and a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"inbox" ~port:Wire.port_first_user
      ()
  in
  (* drop the first two frames on the wire (DATA, then its retransmission
     would be frame 3... drop the first DATA and the first ACK) *)
  let count = ref 0 in
  Net.set_fault_hook net
    (Some
       (fun _ ->
         incr count;
         if !count <= 2 then `Drop else `Deliver));
  let got = ref None in
  spawn_on b ~name:"receiver" (fun ctx ->
      let m = Mailbox.begin_get ctx inbox in
      got := Some (Message.to_string m);
      Mailbox.end_get ctx m);
  spawn_on a ~name:"sender" (fun ctx ->
      Rmp.send_string ctx a.Stack.rmp ~dst_cab:(Stack.node_id b)
        ~dst_port:Wire.port_first_user "persistent");
  Engine.run eng;
  Alcotest.(check (option string)) "delivered despite loss"
    (Some "persistent") !got;
  check_bool "retransmitted" true (Rmp.retransmits a.Stack.rmp >= 1)

let test_rmp_corruption_detected_by_crc () =
  let w = World.build () in
  let eng = w.eng and net = w.net and a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"inbox" ~port:Wire.port_first_user
      ()
  in
  let count = ref 0 in
  Net.set_fault_hook net
    (Some
       (fun _ ->
         incr count;
         if !count = 1 then `Corrupt else `Deliver));
  let got = ref None in
  spawn_on b ~name:"receiver" (fun ctx ->
      let m = Mailbox.begin_get ctx inbox in
      got := Some (Message.to_string m);
      Mailbox.end_get ctx m);
  spawn_on a ~name:"sender" (fun ctx ->
      Rmp.send_string ctx a.Stack.rmp ~dst_cab:(Stack.node_id b)
        ~dst_port:Wire.port_first_user "checked by hardware");
  Engine.run eng;
  Alcotest.(check (option string)) "delivered after CRC drop"
    (Some "checked by hardware") !got;
  check_int "datalink counted the CRC drop" 1 (Datalink.drops_crc b.Stack.dl)

let test_rmp_duplicate_suppression () =
  let w = World.build () in
  let eng = w.eng and net = w.net and a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"inbox" ~port:Wire.port_first_user
      ()
  in
  (* Drop the first ACK: the data arrives, the sender retransmits, and the
     receiver must suppress the duplicate. *)
  let count = ref 0 in
  Net.set_fault_hook net
    (Some
       (fun frame ->
         incr count;
         (* frame 1 = DATA (a->b), frame 2 = ACK (b->a): drop the ACK *)
         if !count = 2 && frame.Nectar_hub.Frame.src = Stack.node_id b then
           `Drop
         else `Deliver));
  let got = ref [] in
  spawn_on b ~name:"receiver" (fun ctx ->
      let m = Mailbox.begin_get ctx inbox in
      got := Message.to_string m :: !got;
      Mailbox.end_get ctx m);
  spawn_on a ~name:"sender" (fun ctx ->
      Rmp.send_string ctx a.Stack.rmp ~dst_cab:(Stack.node_id b)
        ~dst_port:Wire.port_first_user "once only");
  Engine.run eng;
  Alcotest.(check (list string)) "delivered exactly once" [ "once only" ]
    !got;
  check_int "duplicate detected" 1 (Rmp.duplicates b.Stack.rmp)

(* ---------- Request-response ---------- *)

let test_reqresp_thread_server () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  Reqresp.register_server b.Stack.reqresp ~port:7 ~mode:Reqresp.Thread_server
    (fun _ctx req -> String.uppercase_ascii req);
  let answer = ref "" in
  spawn_on a ~name:"client" (fun ctx ->
      answer :=
        Reqresp.call ctx a.Stack.reqresp ~dst_cab:(Stack.node_id b)
          ~dst_port:7 "hello rpc");
  Engine.run eng;
  check_string "rpc response" "HELLO RPC" !answer;
  check_int "served" 1 (Reqresp.requests_served b.Stack.reqresp);
  check_int "completed" 1 (Reqresp.calls_completed a.Stack.reqresp)

let test_reqresp_upcall_server () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  Reqresp.register_server b.Stack.reqresp ~port:8 ~mode:Reqresp.Upcall_server
    (fun _ctx req -> req ^ "!");
  let answer = ref "" in
  spawn_on a ~name:"client" (fun ctx ->
      answer :=
        Reqresp.call ctx a.Stack.reqresp ~dst_cab:(Stack.node_id b)
          ~dst_port:8 "fast path");
  Engine.run eng;
  check_string "upcall response" "fast path!" !answer

let test_reqresp_duplicate_replay () =
  let w = World.build () in
  let eng = w.eng and net = w.net and a = w.stacks.(0) and b = w.stacks.(1) in
  Reqresp.register_server b.Stack.reqresp ~port:9 ~mode:Reqresp.Upcall_server
    (fun _ctx req -> req);
  (* Drop the first response: the client retries; the server must replay
     from its duplicate cache, not run the handler twice. *)
  let count = ref 0 in
  Net.set_fault_hook net
    (Some
       (fun frame ->
         if frame.Nectar_hub.Frame.src = Stack.node_id b then begin
           incr count;
           if !count = 1 then `Drop else `Deliver
         end
         else `Deliver));
  let answer = ref "" in
  spawn_on a ~name:"client" (fun ctx ->
      answer :=
        Reqresp.call ctx a.Stack.reqresp ~dst_cab:(Stack.node_id b)
          ~dst_port:9 "exactly once");
  Engine.run eng;
  check_string "response survived" "exactly once" !answer;
  check_int "handler ran once" 1 (Reqresp.requests_served b.Stack.reqresp);
  check_int "duplicate replayed" 1
    (Reqresp.duplicate_requests b.Stack.reqresp)

let test_reqresp_timeout () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  (* no server registered on b *)
  let raised = ref false in
  spawn_on a ~name:"client" (fun ctx ->
      try
        ignore
          (Reqresp.call ctx a.Stack.reqresp ~dst_cab:(Stack.node_id b)
             ~dst_port:99 "anyone?")
      with Reqresp.Call_timeout _ -> raised := true);
  Engine.run eng;
  check_bool "timed out" true !raised

(* ---------- ICMP / IP ---------- *)

let test_icmp_ping () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let rtt = ref None in
  spawn_on a ~name:"pinger" (fun ctx ->
      rtt := Icmp.ping ctx a.Stack.icmp ~dst:(Stack.addr b) ());
  Engine.run eng;
  (match !rtt with
  | Some span ->
      check_bool "ping rtt sane" true (span > 0 && span < Sim_time.ms 1)
  | None -> Alcotest.fail "ping timed out");
  check_int "echo answered" 1 (Icmp.echoes_answered b.Stack.icmp)

let test_ip_fragmentation_roundtrip () =
  (* MTU 256 forces an 1100-byte UDP datagram into many fragments. *)
  let w = World.build ~stack:(fun rt -> Stack.create rt ~mtu:256 ()) () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox = Runtime.create_mailbox b.Stack.rt ~name:"udp-app" () in
  Udp.bind b.Stack.udp ~port:53 inbox;
  let payload = String.init 1100 (fun i -> Char.chr (i mod 251)) in
  let got = ref None in
  spawn_on b ~name:"receiver" (fun ctx ->
      let m = Mailbox.begin_get ctx inbox in
      got := Some (Message.to_string m);
      Mailbox.end_get ctx m);
  spawn_on a ~name:"sender" (fun ctx ->
      Udp.send_string ctx a.Stack.udp ~src_port:1000 ~dst:(Stack.addr b)
        ~dst_port:53 payload);
  Engine.run eng;
  check_bool "reassembled content intact" true (!got = Some payload);
  check_bool "was fragmented" true (Ipv4.fragments_out a.Stack.ip >= 5);
  check_int "one reassembly" 1 (Ipv4.reassembled b.Stack.ip)

let test_ip_fragment_loss_times_out () =
  let w = World.build ~stack:(fun rt -> Stack.create rt ~mtu:256 ()) () in
  let eng = w.eng and net = w.net in
  let a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox = Runtime.create_mailbox b.Stack.rt ~name:"udp-app" () in
  Udp.bind b.Stack.udp ~port:53 inbox;
  (* Drop one middle fragment; no transport retry for UDP. *)
  let count = ref 0 in
  Net.set_fault_hook net
    (Some
       (fun _ ->
         incr count;
         if !count = 3 then `Drop else `Deliver));
  spawn_on a ~name:"sender" (fun ctx ->
      Udp.send_string ctx a.Stack.udp ~src_port:1000 ~dst:(Stack.addr b)
        ~dst_port:53 (String.make 1100 'x'));
  Engine.run eng;
  check_int "nothing delivered" 0 (Udp.datagrams_delivered b.Stack.udp);
  check_int "datagram never completed" 0 (Ipv4.reassembled b.Stack.ip)

let test_ip_header_checksum_rejects_corruption () =
  (* direct unit check on the parser *)
  let eng = Engine.create () in
  let heap = Buffer_heap.create (Nectar_util.Region.create 1024) in
  let mb = Mailbox.create eng ~heap ~name:"t" () in
  let ctx : Ctx.t =
    { eng; work = (fun _ -> ()); may_block = true; ctx_name = "t"; on_cpu = None }
  in
  Engine.spawn eng (fun () ->
      let msg = Mailbox.begin_put ctx mb 40 in
      (* hand-build a valid header *)
      Message.set_u8 msg 0 0x45;
      Message.set_u16 msg 2 40;
      Message.set_u16 msg 4 7;
      Message.set_u8 msg 8 32;
      Message.set_u8 msg 9 17;
      Message.set_u32 msg 12 (Ipv4.addr_of_cab 0);
      Message.set_u32 msg 16 (Ipv4.addr_of_cab 1);
      Message.set_u16 msg 10 0;
      let ck =
        Nectar_util.Inet_checksum.checksum (Message.bytes msg)
          ~pos:msg.Message.off ~len:20
      in
      Message.set_u16 msg 10 ck;
      check_bool "valid header parses" true (Ipv4.read_header msg <> None);
      Message.set_u8 msg 8 31 (* corrupt TTL *);
      check_bool "corrupted header rejected" true
        (Ipv4.read_header msg = None);
      Mailbox.abort_put ctx mb msg);
  Engine.run eng

(* ---------- UDP ---------- *)

let test_udp_roundtrip_and_demux () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox1 = Runtime.create_mailbox b.Stack.rt ~name:"app1" () in
  let inbox2 = Runtime.create_mailbox b.Stack.rt ~name:"app2" () in
  Udp.bind b.Stack.udp ~port:100 inbox1;
  Udp.bind b.Stack.udp ~port:200 inbox2;
  let got1 = ref None and got2 = ref None in
  spawn_on b ~name:"r1" (fun ctx ->
      let m = Mailbox.begin_get ctx inbox1 in
      got1 := Some (Message.to_string m);
      Mailbox.end_get ctx m);
  spawn_on b ~name:"r2" (fun ctx ->
      let m = Mailbox.begin_get ctx inbox2 in
      got2 := Some (Message.to_string m);
      Mailbox.end_get ctx m);
  spawn_on a ~name:"sender" (fun ctx ->
      Udp.send_string ctx a.Stack.udp ~src_port:1 ~dst:(Stack.addr b)
        ~dst_port:100 "to one-hundred";
      Udp.send_string ctx a.Stack.udp ~src_port:1 ~dst:(Stack.addr b)
        ~dst_port:200 "to two-hundred";
      Udp.send_string ctx a.Stack.udp ~src_port:1 ~dst:(Stack.addr b)
        ~dst_port:300 "to nobody");
  Engine.run eng;
  Alcotest.(check (option string)) "port 100" (Some "to one-hundred") !got1;
  Alcotest.(check (option string)) "port 200" (Some "to two-hundred") !got2;
  check_int "unbound port counted" 1 (Udp.drops_no_port b.Stack.udp);
  check_int "sender told via ICMP port-unreachable" 1
    (Icmp.unreachables_received a.Stack.icmp)

(* ---------- TCP ---------- *)

let test_tcp_connect_and_exchange () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let server_got = ref "" and client_got = ref "" in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      spawn_on b ~name:"server" (fun ctx ->
          server_got := Tcp.recv_string ctx conn;
          Tcp.send ctx conn ("echo:" ^ !server_got)));
  spawn_on a ~name:"client" (fun ctx ->
      let conn = Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 () in
      check_string "client established" "ESTABLISHED" (Tcp.state_name conn);
      Tcp.send ctx conn "GET /index";
      client_got := Tcp.recv_string ctx conn);
  Engine.run eng;
  check_string "server received" "GET /index" !server_got;
  check_string "client received" "echo:GET /index" !client_got

let test_tcp_bulk_transfer () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  (* 300 KB: larger than the 64 KB send buffer and window; exercises
     windowing, buffering, and flow control end to end. *)
  let total = 300 * 1024 in
  let sent_digest = ref 0 and recv_digest = ref 0 and received = ref 0 in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      spawn_on b ~name:"sink" (fun ctx ->
          while !received < total do
            let s = Tcp.recv_string ctx conn in
            received := !received + String.length s;
            String.iter
              (fun ch -> recv_digest := ((!recv_digest * 31) + Char.code ch) land 0xffffff)
              s
          done));
  spawn_on a ~name:"source" (fun ctx ->
      let conn = Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 () in
      let chunk = 16 * 1024 in
      let sent = ref 0 in
      while !sent < total do
        let n = min chunk (total - !sent) in
        let s = String.init n (fun i -> Char.chr ((!sent + i) mod 256)) in
        String.iter
          (fun ch -> sent_digest := ((!sent_digest * 31) + Char.code ch) land 0xffffff)
          s;
        Tcp.send ctx conn s;
        sent := !sent + n
      done);
  Engine.run eng;
  check_int "all bytes received" total !received;
  check_int "content digest matches" !sent_digest !recv_digest

let test_tcp_retransmission_on_loss () =
  let w = World.build () in
  let eng = w.eng and net = w.net and a = w.stacks.(0) and b = w.stacks.(1) in
  (* Deterministically drop every 7th frame during the transfer. *)
  let count = ref 0 in
  Net.set_fault_hook net
    (Some
       (fun _ ->
         incr count;
         if !count mod 7 = 0 then `Drop else `Deliver));
  let total = 64 * 1024 in
  let received = ref 0 in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      spawn_on b ~name:"sink" (fun ctx ->
          while !received < total do
            received := !received + String.length (Tcp.recv_string ctx conn)
          done));
  spawn_on a ~name:"source" (fun ctx ->
      let conn = Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 () in
      for i = 0 to 7 do
        Tcp.send ctx conn (String.make 8192 (Char.chr (Char.code 'a' + i)))
      done);
  Engine.run eng;
  check_int "transfer completed despite loss" total !received;
  check_bool "retransmissions occurred" true
    (Tcp.retransmissions a.Stack.tcp > 0)

let test_tcp_close_handshake () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let server_saw_eof = ref false in
  let server_conn = ref None in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      server_conn := Some conn;
      spawn_on b ~name:"server" (fun ctx ->
          let s = Tcp.recv_string ctx conn in
          if s = "" then begin
            server_saw_eof := true;
            Tcp.close ctx conn
          end));
  spawn_on a ~name:"client" (fun ctx ->
      let conn = Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 () in
      Tcp.close ctx conn;
      check_bool "client reached an orderly final state" true
        (match Tcp.state_name conn with
        | "FIN_WAIT_2" | "TIME_WAIT" | "CLOSED" -> true
        | _ -> false));
  Engine.run eng;
  check_bool "server saw EOF" true !server_saw_eof

let test_tcp_connection_refused () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let refused = ref false in
  spawn_on a ~name:"client" (fun ctx ->
      try
        ignore (Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:81 ())
      with Tcp.Connection_refused -> refused := true);
  Engine.run eng;
  check_bool "RST refused the connection" true !refused

let test_tcp_send_request_mailbox () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let got = ref "" in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      spawn_on b ~name:"server" (fun ctx -> got := Tcp.recv_string ctx conn));
  spawn_on a ~name:"client" (fun ctx ->
      let conn = Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 () in
      (* hand the data to TCP the way a host does: via the send-request
         mailbox, serviced by the TCP send thread *)
      let payload = "via send-request mailbox" in
      let mb = Tcp.send_request_mailbox a.Stack.tcp in
      let m = Mailbox.begin_put ctx mb (4 + String.length payload) in
      Message.set_u32 m 0 (Tcp.conn_id conn);
      Message.write_string m 4 payload;
      Mailbox.end_put ctx mb m);
  Engine.run eng;
  check_string "delivered through the send thread" "via send-request mailbox"
    !got

let test_tcp_interrupt_input_mode () =
  let w =
    World.build
      ~stack:(fun rt -> Stack.create rt ~tcp_input_mode:`Interrupt ())
      ()
  in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let got = ref "" in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      spawn_on b ~name:"server" (fun ctx -> got := Tcp.recv_string ctx conn));
  spawn_on a ~name:"client" (fun ctx ->
      let conn = Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 () in
      Tcp.send ctx conn "processed at interrupt level");
  Engine.run eng;
  check_string "interrupt-mode roundtrip" "processed at interrupt level" !got

let test_tcp_no_checksum_mode () =
  let w =
    World.build ~stack:(fun rt -> Stack.create rt ~tcp_checksum:false ()) ()
  in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let got = ref "" in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      spawn_on b ~name:"server" (fun ctx -> got := Tcp.recv_string ctx conn));
  spawn_on a ~name:"client" (fun ctx ->
      let conn = Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 () in
      Tcp.send ctx conn "no checksum");
  Engine.run eng;
  check_string "works without software checksums" "no checksum" !got

let test_tcp_two_connections () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let got = Array.make 2 "" in
  Tcp.listen b.Stack.tcp ~port:80 ~on_accept:(fun conn ->
      spawn_on b ~name:"server" (fun ctx ->
          let s = Tcp.recv_string ctx conn in
          let i = if String.length s > 0 && s.[0] = '1' then 1 else 0 in
          got.(i) <- s));
  List.iter
    (fun i ->
      spawn_on a ~name:(Printf.sprintf "client%d" i) (fun ctx ->
          let conn =
            Tcp.connect ctx a.Stack.tcp ~dst:(Stack.addr b) ~dst_port:80 ()
          in
          Tcp.send ctx conn (Printf.sprintf "%d: hello from connection" i)))
    [ 0; 1 ];
  Engine.run eng;
  check_string "conn 0" "0: hello from connection" got.(0);
  check_string "conn 1" "1: hello from connection" got.(1)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "nectar_proto"
    [
      ( "tcp_seq",
        [
          qtest prop_seq_add_diff;
          qtest prop_seq_lt_total;
          Alcotest.test_case "wraparound" `Quick test_seq_wraparound;
        ] );
      ( "dgram",
        [
          Alcotest.test_case "roundtrip" `Quick test_dgram_roundtrip;
          Alcotest.test_case "unknown port" `Quick
            test_dgram_unknown_port_dropped;
        ] );
      ( "rmp",
        [
          Alcotest.test_case "reliable in-order" `Quick
            test_rmp_reliable_roundtrip;
          Alcotest.test_case "recovers from loss" `Quick
            test_rmp_recovers_from_loss;
          Alcotest.test_case "crc drop and recovery" `Quick
            test_rmp_corruption_detected_by_crc;
          Alcotest.test_case "duplicate suppression" `Quick
            test_rmp_duplicate_suppression;
        ] );
      ( "reqresp",
        [
          Alcotest.test_case "thread server" `Quick test_reqresp_thread_server;
          Alcotest.test_case "upcall server" `Quick test_reqresp_upcall_server;
          Alcotest.test_case "duplicate replay" `Quick
            test_reqresp_duplicate_replay;
          Alcotest.test_case "timeout" `Quick test_reqresp_timeout;
        ] );
      ( "ip",
        [
          Alcotest.test_case "icmp ping" `Quick test_icmp_ping;
          Alcotest.test_case "fragmentation roundtrip" `Quick
            test_ip_fragmentation_roundtrip;
          Alcotest.test_case "fragment loss" `Quick
            test_ip_fragment_loss_times_out;
          Alcotest.test_case "header checksum" `Quick
            test_ip_header_checksum_rejects_corruption;
        ] );
      ( "udp",
        [
          Alcotest.test_case "roundtrip and demux" `Quick
            test_udp_roundtrip_and_demux;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "connect and exchange" `Quick
            test_tcp_connect_and_exchange;
          Alcotest.test_case "bulk transfer" `Quick test_tcp_bulk_transfer;
          Alcotest.test_case "retransmission on loss" `Quick
            test_tcp_retransmission_on_loss;
          Alcotest.test_case "close handshake" `Quick test_tcp_close_handshake;
          Alcotest.test_case "connection refused" `Quick
            test_tcp_connection_refused;
          Alcotest.test_case "send-request mailbox" `Quick
            test_tcp_send_request_mailbox;
          Alcotest.test_case "interrupt input mode" `Quick
            test_tcp_interrupt_input_mode;
          Alcotest.test_case "no-checksum mode" `Quick
            test_tcp_no_checksum_mode;
          Alcotest.test_case "two connections" `Quick
            test_tcp_two_connections;
        ] );
    ]
