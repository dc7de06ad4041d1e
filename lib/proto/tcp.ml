open Nectar_core
open Nectar_sim
module Costs = Nectar_cab.Costs
module Seq = Tcp_seq
module Tbl = Nectar_util.Int_key.Tbl

let header_bytes = 20

let fl_fin = 0x01
let fl_syn = 0x02
let fl_rst = 0x04
let fl_ack = 0x10

exception Connection_refused
exception Connection_timed_out
exception Connection_reset

type state =
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

let state_to_string = function
  | Syn_sent -> "SYN_SENT"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"
  | Closed -> "CLOSED"

type conn = {
  tcp : t;
  id : int;
  lport : int;
  raddr : Ipv4.addr;
  rport : int;
  lock : Lock.Mutex.t;
  changed : Lock.Condvar.t; (* connect/close progress *)
  space : Lock.Condvar.t; (* send-buffer space *)
  mutable st : state;
  (* send sequence space *)
  iss : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int;
  (* send buffer: a ring holding [snd_una, snd_una + sb_len) *)
  sndbuf : Bytes.t;
  mutable sb_start : int;
  mutable sb_len : int;
  mutable fin_pending : bool;
  mutable fin_sent : bool;
  (* receive sequence space *)
  mutable rcv_nxt : int;
  recv_mb : Mailbox.t;
  (* retransmission *)
  mutable rto : int;
  mutable srtt : float; (* ns; 0 = no sample yet *)
  mutable rttvar : float;
  mutable rtx_deadline : Sim_time.t option;
  mutable syn_tries : int;
  mutable data_tries : int; (* consecutive rtx timeouts with no progress *)
  mutable timed_out : bool; (* closed by our own retry budget, not a peer *)
  mutable rtt_sample : (int * Sim_time.t) option; (* (seq to ack, sent at) *)
  mutable on_establish : (conn -> unit) option;
  mutable was_reset : bool;
  mutable adv_wnd : int; (* window last advertised to the peer *)
  mutable wnd_update_pending : bool;
}

and t = {
  ip : Ipv4.t;
  rt : Runtime.t;
  owner : string;  (* CAB name, labels this node's copy-meter records *)
  input : Mailbox.t;
  send_req : Mailbox.t;
  sw_checksum : bool;
  mss : int;
  window_limit : int;
  conns : conn Tbl.t; (* Int_key.tcp_conn (lport, raddr, rport) *)
  by_id : conn Tbl.t;
  listeners : (conn -> unit) Tbl.t;
  timer_lock : Lock.Mutex.t;
  timer_cv : Lock.Condvar.t;
  mutable timer_gen : int; (* bumped by arm_rtx; guards lost wakeups *)
  mutable next_conn_id : int;
  mutable next_port : int;
  mutable iss_counter : int;
  mutable seg_in : int;
  mutable seg_out : int;
  mutable retx : int;
  mutable bad_cksum : int;
}

let sndbuf_cap = 64 * 1024
let min_rto = Sim_time.ms 2
let max_rto = Sim_time.s 2
let initial_rto = Sim_time.ms 10
let syn_retry_limit = 6

(* Retransmission budget for established connections: after this many
   consecutive timer firings with no ACK progress (backoff capped at
   [max_rto]) the connection is aborted locally and the user sees
   [Connection_timed_out] instead of an infinite retry loop. *)
let data_retry_limit = 10
let time_wait_span = Sim_time.ms 40

(* With [`Interrupt] input mode, exclusion comes from running at interrupt
   level (masked), not from the mutex — see the .mli. *)
let with_conn (ctx : Ctx.t) c f =
  if ctx.may_block then Lock.Mutex.with_lock ctx c.lock f else f ()

(* ---------- segment output ---------- *)

let rcv_window c =
  Int.max 0
    (Int.min c.tcp.window_limit 0xffff - Mailbox.bytes_in_use c.recv_mb)

(* Copy [n] bytes of the ring starting at send-sequence [seq] into [dst]. *)
let sndbuf_read c ~seq ~dst ~dst_pos ~n =
  let cap = Bytes.length c.sndbuf in
  let first = (c.sb_start + Seq.mask (seq - c.snd_una)) mod cap in
  let run = Int.min n (cap - first) in
  Bytes.blit c.sndbuf first dst dst_pos run;
  if run < n then Bytes.blit c.sndbuf 0 dst (dst_pos + run) (n - run)

let emit (ctx : Ctx.t) c ~flags ~seq ~payload_n =
  let t = c.tcp in
  ctx.work Costs.tcp_output_ns;
  let seg_len = header_bytes + payload_n in
  match Ipv4.alloc ctx t.ip seg_len with
  | exception Datalink.No_buffer ->
      (* transmit pool momentarily full at interrupt level: drop the
         segment; the retransmission machinery recovers *)
      ()
  | msg ->
  if payload_n > 0 then begin
    Message.adjust_head msg header_bytes;
    let dst = Message.bytes msg in
    (* the segment cannot alias the ring: retransmission needs the ring
       contents stable while the segment's frame is in flight *)
    Nectar_util.Copy_meter.record ~owner:t.owner Nectar_util.Copy_meter.Frag
      payload_n;
    sndbuf_read c ~seq ~dst ~dst_pos:msg.Message.off ~n:payload_n;
    Message.push_head msg header_bytes
  end;
  Message.set_u16 msg 0 c.lport;
  Message.set_u16 msg 2 c.rport;
  Message.set_u32 msg 4 seq;
  Message.set_u32 msg 8 c.rcv_nxt;
  Message.set_u8 msg 12 0x50;
  Message.set_u8 msg 13 flags;
  let advertised = rcv_window c in
  c.adv_wnd <- advertised;
  Message.set_u16 msg 14 advertised;
  Message.set_u16 msg 16 0;
  Message.set_u16 msg 18 0;
  if t.sw_checksum then begin
    ctx.work (seg_len * Costs.tcp_cksum_ns_per_byte);
    let ck =
      Ipv4.pseudo_checksum (Message.bytes msg) ~pos:msg.Message.off ~len:seg_len
        ~src:(Ipv4.local_addr t.ip) ~dst:c.raddr ~proto:Ipv4.proto_tcp
    in
    Message.set_u16 msg 16 (if ck = 0 then 0xffff else ck)
  end;
  t.seg_out <- t.seg_out + 1;
  Nectar_sim.Trace.instant ~track:t.owner "tcp.seg-out";
  Ipv4.output ctx t.ip ~dst:c.raddr ~proto:Ipv4.proto_tcp msg

let now c = Engine.now (Runtime.engine c.tcp.rt)

let arm_rtx c =
  let deadline = now c + c.rto in
  (match c.rtx_deadline with
  | Some d when d <= deadline -> ()
  | _ ->
      c.rtx_deadline <- Some deadline;
      (* the generation counter catches a signal sent before the timer
         thread has reached its wait (a condition-variable signal is not
         sticky) *)
      c.tcp.timer_gen <- c.tcp.timer_gen + 1;
      Lock.Condvar.signal c.tcp.timer_cv);
  ()

let disarm_rtx c = c.rtx_deadline <- None

let outstanding c =
  Seq.gt c.snd_nxt c.snd_una
  || (match c.st with Syn_sent | Syn_rcvd -> true | _ -> false)

(* Push out as much as the peer's window and our buffer allow. *)
let rec tcp_output ctx c =
  let in_flight = Seq.mask (c.snd_nxt - c.snd_una) in
  let fin_adj = if c.fin_sent then 1 else 0 in
  let unsent = c.sb_len - (in_flight - fin_adj) in
  let window_room = c.snd_wnd - in_flight in
  (* Sender-side silly-window avoidance: emit only full-MSS segments or the
     final remainder — a window fractionally short of a segment otherwise
     splinters the stream into mss-1/1-byte pairs, each costing a wire
     round trip. *)
  if unsent > 0 && window_room >= Int.min unsent c.tcp.mss && not c.fin_sent
  then begin
    let n = Int.min (Int.min unsent window_room) c.tcp.mss in
    let seq = c.snd_nxt in
    c.snd_nxt <- Seq.add c.snd_nxt n;
    if c.rtt_sample = None then c.rtt_sample <- Some (c.snd_nxt, now c);
    arm_rtx c;
    emit ctx c ~flags:fl_ack ~seq ~payload_n:n;
    tcp_output ctx c
  end
  else if
    c.fin_pending && (not c.fin_sent) && unsent = 0
    && (c.st = Established || c.st = Close_wait)
  then begin
    c.fin_sent <- true;
    let seq = c.snd_nxt in
    c.snd_nxt <- Seq.add c.snd_nxt 1;
    c.st <- (if c.st = Established then Fin_wait_1 else Last_ack);
    arm_rtx c;
    emit ctx c ~flags:(fl_fin lor fl_ack) ~seq ~payload_n:0
  end
  else if unsent > 0 && in_flight = 0 && window_room < Int.min unsent c.tcp.mss
  then
    (* window too small to send, nothing in flight: arm the probe timer so
       the transfer cannot stall forever *)
    arm_rtx c

(* ---------- connection setup helpers ---------- *)

let fresh_iss t =
  t.iss_counter <- Seq.add t.iss_counter 64000;
  t.iss_counter

let make_conn t ~lport ~raddr ~rport ~st ~iss ~rcv_nxt =
  let eng = Runtime.engine t.rt in
  let id = t.next_conn_id in
  t.next_conn_id <- id + 1;
  let name = Printf.sprintf "tcp-conn-%d" id in
  let c =
    {
      tcp = t;
      id;
      lport;
      raddr;
      rport;
      lock = Lock.Mutex.create eng ~name:(name ^ ".lock");
      changed = Lock.Condvar.create eng ~name:(name ^ ".changed");
      space = Lock.Condvar.create eng ~name:(name ^ ".space");
      st;
      iss;
      snd_una = iss;
      snd_nxt = Seq.add iss 1; (* SYN occupies one sequence number *)
      snd_wnd = t.mss;
      sndbuf = Bytes.create sndbuf_cap;
      sb_start = 0;
      sb_len = 0;
      fin_pending = false;
      fin_sent = false;
      rcv_nxt;
      recv_mb =
        Runtime.create_mailbox t.rt ~name:(name ^ ".recv")
          ~byte_limit:(128 * 1024) ~cached_buffer_bytes:0 ();
      rto = initial_rto;
      srtt = 0.;
      rttvar = 0.;
      rtx_deadline = None;
      syn_tries = 0;
      data_tries = 0;
      timed_out = false;
      rtt_sample = None;
      on_establish = None;
      was_reset = false;
      adv_wnd = 0;
      wnd_update_pending = false;
    }
  in
  (* Receiver-side window updates: when the application drains the receive
     mailbox and the window has reopened by at least half an MSS beyond
     what the peer last heard, send a pure ACK.  Without this a fast sender
     parks on a closed window until its probe timer fires. *)
  Mailbox.set_on_space_freed c.recv_mb
    (Some
       (fun () ->
         let live =
           match c.st with
           | Established | Fin_wait_1 | Fin_wait_2 -> true
           | _ -> false
         in
         if
           live && (not c.wnd_update_pending)
           && rcv_window c - c.adv_wnd >= t.mss / 2
         then begin
           c.wnd_update_pending <- true;
           Nectar_cab.Interrupts.post
             (Nectar_cab.Cab.irq (Runtime.cab t.rt))
             ~name:"tcp-wnd-update"
             (fun _ ->
               c.wnd_update_pending <- false;
               let ctx = Runtime.interrupt_ctx t.rt in
               match c.st with
               | Established | Fin_wait_1 | Fin_wait_2 ->
                   emit ctx c ~flags:fl_ack ~seq:c.snd_nxt ~payload_n:0
               | _ -> ())
         end));
  Tbl.replace t.conns (Nectar_util.Int_key.tcp_conn ~lport ~raddr ~rport) c;
  Tbl.replace t.by_id id c;
  c

let remove_conn c =
  let t = c.tcp in
  Tbl.remove t.conns
    (Nectar_util.Int_key.tcp_conn ~lport:c.lport ~raddr:c.raddr ~rport:c.rport);
  Tbl.remove t.by_id c.id;
  disarm_rtx c

let enter_time_wait c =
  c.st <- Time_wait;
  disarm_rtx c;
  Lock.Condvar.broadcast c.changed;
  ignore
    (Engine.after (Runtime.engine c.tcp.rt) time_wait_span (fun () ->
         c.st <- Closed;
         remove_conn c))

let deliver_eof ctx c =
  match Mailbox.try_begin_put ctx c.recv_mb 0 with
  | Some eof -> Mailbox.end_put ctx c.recv_mb eof
  | None -> ()

let reset_conn ?(by_peer = true) ctx c =
  if by_peer then c.was_reset <- true;
  c.st <- Closed;
  disarm_rtx c;
  remove_conn c;
  deliver_eof ctx c;
  Lock.Condvar.broadcast c.changed;
  Lock.Condvar.broadcast c.space

(* ---------- RTT estimation (Jacobson/Karn) ---------- *)

let rtt_update c sample_ns =
  let s = float_of_int sample_ns in
  if c.srtt = 0. then begin
    c.srtt <- s;
    c.rttvar <- s /. 2.
  end
  else begin
    c.rttvar <- (0.75 *. c.rttvar) +. (0.25 *. Float.abs (c.srtt -. s));
    c.srtt <- (0.875 *. c.srtt) +. (0.125 *. s)
  end;
  c.rto <-
    Int.max min_rto
      (Int.min max_rto (int_of_float (c.srtt +. (4. *. c.rttvar))))

(* ---------- input processing ---------- *)

let parse_segment msg =
  match Ipv4.read_header msg with
  | None -> None
  | Some h ->
      let ip_hdr = Ipv4.header_bytes in
      let seg_len = Message.length msg - ip_hdr in
      if seg_len < header_bytes then None
      else
        let sport = Message.get_u16 msg ip_hdr in
        let dport = Message.get_u16 msg (ip_hdr + 2) in
        let seq = Message.get_u32 msg (ip_hdr + 4) in
        let ack = Message.get_u32 msg (ip_hdr + 8) in
        let data_off = Message.get_u8 msg (ip_hdr + 12) lsr 4 * 4 in
        let flags = Message.get_u8 msg (ip_hdr + 13) in
        let wnd = Message.get_u16 msg (ip_hdr + 14) in
        if data_off < header_bytes || data_off > seg_len then None
        else
          Some (h, seg_len, sport, dport, seq, ack, data_off, flags, wnd)

let send_rst ctx t ~dst ~sport ~dport ~seq ~ack_theirs =
  ctx.Ctx.work Costs.tcp_output_ns;
  match Ipv4.alloc ctx t.ip header_bytes with
  | exception Datalink.No_buffer -> ()
  | msg ->
  Message.set_u16 msg 0 sport;
  Message.set_u16 msg 2 dport;
  Message.set_u32 msg 4 seq;
  Message.set_u32 msg 8 ack_theirs;
  Message.set_u8 msg 12 0x50;
  Message.set_u8 msg 13 (fl_rst lor fl_ack);
  Message.set_u16 msg 14 0;
  Message.set_u16 msg 16 0;
  Message.set_u16 msg 18 0;
  if t.sw_checksum then begin
    let ck =
      Ipv4.pseudo_checksum (Message.bytes msg) ~pos:msg.Message.off
        ~len:header_bytes ~src:(Ipv4.local_addr t.ip) ~dst
        ~proto:Ipv4.proto_tcp
    in
    Message.set_u16 msg 16 (if ck = 0 then 0xffff else ck)
  end;
  t.seg_out <- t.seg_out + 1;
  Nectar_sim.Trace.instant ~track:t.owner "tcp.seg-out";
  Ipv4.output ctx t.ip ~dst ~proto:Ipv4.proto_tcp msg

let process_ack c ~ack ~wnd =
  if Seq.ge ack c.snd_una then c.snd_wnd <- wnd;
  if Seq.gt ack c.snd_una && Seq.le ack c.snd_nxt then begin
    c.data_tries <- 0;
    (* RTT sample (Karn: the sample is cleared on retransmission) *)
    (match c.rtt_sample with
    | Some (sample_seq, t0) when Seq.ge ack sample_seq ->
        c.rtt_sample <- None;
        rtt_update c (now c - t0)
    | _ -> ());
    let was_syn = Seq.mask (c.snd_una - c.iss) = 0 in
    let acked = Seq.mask (ack - c.snd_una) in
    (* sequence-space units that are not buffer bytes: SYN, FIN *)
    let ctl = (if was_syn then 1 else 0) in
    let fin_acked = c.fin_sent && Seq.ge ack c.snd_nxt in
    let ctl = ctl + if fin_acked then 1 else 0 in
    let data_acked = Int.min c.sb_len (acked - ctl) in
    if data_acked > 0 then begin
      c.sb_start <- (c.sb_start + data_acked) mod Bytes.length c.sndbuf;
      c.sb_len <- c.sb_len - data_acked;
      Lock.Condvar.broadcast c.space
    end;
    c.snd_una <- ack;
    if Seq.ge c.snd_una c.snd_nxt then disarm_rtx c
    else begin
      c.rtx_deadline <- None;
      arm_rtx c
    end;
    (* state transitions driven by our FIN being acknowledged *)
    if fin_acked then begin
      match c.st with
      | Fin_wait_1 -> c.st <- Fin_wait_2
      | Closing -> enter_time_wait c
      | Last_ack ->
          c.st <- Closed;
          remove_conn c;
          Lock.Condvar.broadcast c.changed
      | _ -> ()
    end
  end

let process_segment_locked ctx c ~msg ~seg_len ~seq ~ack ~data_off ~flags
    ~wnd =
  let t = c.tcp in
  let payload_n = seg_len - data_off in
  let consumed = ref false in
  let ack_needed = ref false in
  if flags land fl_rst <> 0 then begin
    reset_conn ctx c
  end
  else begin
    (match c.st with
    | Syn_sent ->
        if flags land fl_syn <> 0 && flags land fl_ack <> 0
           && ack = Seq.add c.iss 1 then begin
          c.rcv_nxt <- Seq.add seq 1;
          c.snd_una <- ack;
          c.snd_wnd <- wnd;
          c.st <- Established;
          disarm_rtx c;
          ack_needed := true;
          Lock.Condvar.broadcast c.changed
        end
    | Syn_rcvd ->
        if flags land fl_ack <> 0 && ack = Seq.add c.iss 1 then begin
          c.snd_una <- ack;
          c.snd_wnd <- wnd;
          c.st <- Established;
          disarm_rtx c;
          Lock.Condvar.broadcast c.changed;
          match c.on_establish with
          | Some f ->
              c.on_establish <- None;
              f c
          | None -> ()
        end
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
    | Last_ack | Time_wait ->
        if flags land fl_ack <> 0 then process_ack c ~ack ~wnd
    | Closed -> ());
    (* in-order data *)
    (match c.st with
    | Established | Fin_wait_1 | Fin_wait_2 ->
        if payload_n > 0 then begin
          if seq = c.rcv_nxt then begin
            c.rcv_nxt <- Seq.add c.rcv_nxt payload_n;
            Message.adjust_head msg (Ipv4.header_bytes + data_off);
            Mailbox.enqueue ctx msg c.recv_mb;
            consumed := true
          end;
          (* duplicates and out-of-order segments are dropped but acked *)
          ack_needed := true
        end
    | Syn_sent | Syn_rcvd | Close_wait | Closing | Last_ack | Time_wait
    | Closed ->
        ());
    (* FIN *)
    let fin_seq = Seq.add seq payload_n in
    if flags land fl_fin <> 0 && fin_seq = c.rcv_nxt then begin
      c.rcv_nxt <- Seq.add c.rcv_nxt 1;
      ack_needed := true;
      deliver_eof ctx c;
      match c.st with
      | Established -> c.st <- Close_wait
      | Fin_wait_1 ->
          (* our FIN not yet acked: simultaneous close *)
          c.st <- Closing
      | Fin_wait_2 -> enter_time_wait c
      | Syn_sent | Syn_rcvd | Close_wait | Closing | Last_ack | Time_wait
      | Closed ->
          ()
    end
    else if flags land fl_fin <> 0 then ack_needed := true;
    if !ack_needed then emit ctx c ~flags:fl_ack ~seq:c.snd_nxt ~payload_n:0;
    (* an opened window may unblock queued data *)
    (match c.st with
    | Established | Close_wait | Fin_wait_1 | Fin_wait_2 ->
        tcp_output ctx c
    | _ -> ());
    ignore t
  end;
  !consumed

let process_segment (ctx : Ctx.t) t msg =
  ctx.work Costs.tcp_input_ns;
  t.seg_in <- t.seg_in + 1;
  Nectar_sim.Trace.instant ~track:t.owner "tcp.seg-in";
  match parse_segment msg with
  | None -> Mailbox.dispose ctx msg
  | Some (h, seg_len, sport, dport, seq, ack, data_off, flags, wnd) ->
      let checksum_ok =
        if not t.sw_checksum then true
        else begin
          ctx.work (seg_len * Costs.tcp_cksum_ns_per_byte);
          Ipv4.pseudo_checksum (Message.bytes msg)
            ~pos:(msg.Message.off + Ipv4.header_bytes) ~len:seg_len
            ~src:h.Ipv4.src ~dst:h.Ipv4.dst ~proto:Ipv4.proto_tcp
          = 0
        end
      in
      if not checksum_ok then begin
        t.bad_cksum <- t.bad_cksum + 1;
        Mailbox.dispose ctx msg
      end
      else begin
        match
          Tbl.find_opt t.conns
            (Nectar_util.Int_key.tcp_conn ~lport:dport ~raddr:h.Ipv4.src
               ~rport:sport)
        with
        | Some c ->
            let consumed =
              with_conn ctx c (fun () ->
                  process_segment_locked ctx c ~msg ~seg_len ~seq ~ack
                    ~data_off ~flags ~wnd)
            in
            if not consumed then Mailbox.dispose ctx msg
        | None ->
            (if flags land fl_rst <> 0 then ()
             else if flags land fl_syn <> 0 && Tbl.mem t.listeners dport
             then begin
               (* passive open *)
               let on_accept = Tbl.find t.listeners dport in
               let c =
                 make_conn t ~lport:dport ~raddr:h.Ipv4.src ~rport:sport
                   ~st:Syn_rcvd ~iss:(fresh_iss t) ~rcv_nxt:(Seq.add seq 1)
               in
               c.snd_wnd <- wnd;
               c.on_establish <- Some on_accept;
               arm_rtx c;
               emit ctx c ~flags:(fl_syn lor fl_ack) ~seq:c.iss ~payload_n:0
             end
             else
               send_rst ctx t ~dst:h.Ipv4.src ~sport:dport ~dport:sport
                 ~seq:(if flags land fl_ack <> 0 then ack else 0)
                 ~ack_theirs:(Seq.add seq (seg_len - data_off)));
            Mailbox.dispose ctx msg
      end

(* ---------- threads ---------- *)

let input_thread t (ctx : Ctx.t) =
  while true do
    let msg = Mailbox.begin_get ctx t.input in
    (* The message stays in Reading state through processing; enqueue to a
       user mailbox or dispose both accept it. *)
    process_segment ctx t msg
  done

(* Retransmission timer thread: wakes at the earliest connection deadline,
   retransmits from snd_una with exponential backoff. *)
let timer_thread t (ctx : Ctx.t) =
  Lock.Mutex.lock ctx t.timer_lock;
  while true do
    let gen = t.timer_gen in
    let now_ns = Engine.now (Runtime.engine t.rt) in
    let next =
      Tbl.fold
        (fun _ c acc ->
          match c.rtx_deadline with
          | Some d -> ( match acc with Some a -> Some (min a d) | None -> Some d)
          | None -> acc)
        t.by_id None
    in
    (match next with
    | None ->
        (* no armed deadline: sleep until a connection arms one (this must
           not poll, or the simulation would never quiesce) — unless an arm
           raced ahead of this scan *)
        if t.timer_gen = gen then Lock.Condvar.wait ctx t.timer_cv t.timer_lock
    | Some d when d > now_ns ->
        ignore (Lock.Condvar.wait_timeout ctx t.timer_cv t.timer_lock (d - now_ns))
    | Some _ ->
        (* fire expired deadlines *)
        let expired =
          Tbl.fold
            (fun _ c acc ->
              match c.rtx_deadline with
              | Some d when d <= now_ns -> c :: acc
              | _ -> acc)
            t.by_id []
        in
        List.iter
          (fun c ->
            Lock.Mutex.with_lock ctx c.lock (fun () ->
                if outstanding c || c.sb_len > 0 then begin
                  t.retx <- t.retx + 1;
                  Nectar_sim.Trace.instant ~track:t.owner "tcp.retx";
                  c.rto <- Int.min max_rto (c.rto * 2);
                  c.rtt_sample <- None;
                  c.rtx_deadline <- Some (Engine.now (Runtime.engine t.rt) + c.rto);
                  match c.st with
                  | Syn_sent ->
                      c.syn_tries <- c.syn_tries + 1;
                      if c.syn_tries > syn_retry_limit then
                        reset_conn ~by_peer:false ctx c
                      else emit ctx c ~flags:fl_syn ~seq:c.iss ~payload_n:0
                  | Syn_rcvd ->
                      emit ctx c ~flags:(fl_syn lor fl_ack) ~seq:c.iss
                        ~payload_n:0
                  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait
                  | Closing | Last_ack
                    when c.data_tries >= data_retry_limit ->
                      (* retry budget exhausted with no ACK progress: abort
                         locally and surface a clean failure to the user *)
                      c.timed_out <- true;
                      reset_conn ~by_peer:false ctx c
                  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait
                  | Closing | Last_ack ->
                      c.data_tries <- c.data_tries + 1;
                      let in_flight_data =
                        Int.min c.sb_len (Seq.mask (c.snd_nxt - c.snd_una))
                      in
                      if in_flight_data > 0 then begin
                        (* go-back-N: everything past the lost segment was
                           discarded by the receiver (no out-of-order
                           queueing), so roll snd_nxt back; the data re-flows
                           at full rate once this segment is acked *)
                        let n = Int.min in_flight_data t.mss in
                        c.snd_nxt <- Seq.add c.snd_una n;
                        if c.fin_sent then c.fin_sent <- false;
                        emit ctx c ~flags:fl_ack ~seq:c.snd_una ~payload_n:n
                      end
                      else if c.fin_sent then
                        emit ctx c ~flags:(fl_fin lor fl_ack)
                          ~seq:(Seq.add c.snd_nxt (-1))
                          ~payload_n:0
                      else if c.sb_len > 0 then begin
                        (* zero-window probe: push one segment anyway; the
                           peer's ACK will reopen the window *)
                        let n = Int.min c.sb_len t.mss in
                        let seqp = c.snd_nxt in
                        c.snd_nxt <- Seq.add c.snd_nxt n;
                        emit ctx c ~flags:fl_ack ~seq:seqp ~payload_n:n
                      end
                  | Time_wait | Closed -> disarm_rtx c
                end
                else disarm_rtx c))
          expired)
  done

(* The send-request mailbox: [conn_id u32 | payload bytes]. *)
let rec send_thread t (ctx : Ctx.t) =
  while true do
    let m = Mailbox.begin_get ctx t.send_req in
    let cid = Message.get_u32 m 0 in
    Nectar_util.Copy_meter.record ~owner:t.owner Nectar_util.Copy_meter.App
      (Message.length m - 4);
    let data = Message.read_string m ~pos:4 ~len:(Message.length m - 4) in
    Mailbox.end_get ctx m;
    match Tbl.find_opt t.by_id cid with
    | Some c -> send_locked ctx c data
    | None -> ()
  done

and conn_failure c =
  if c.timed_out then Connection_timed_out else Connection_reset

and send_locked (ctx : Ctx.t) c data =
  Lock.Mutex.with_lock ctx c.lock (fun () ->
      let pos = ref 0 in
      let len = String.length data in
      while !pos < len do
        (match c.st with
        | Established | Close_wait -> ()
        | Syn_sent | Syn_rcvd ->
            (* wait for establishment *)
            while c.st = Syn_sent || c.st = Syn_rcvd do
              Lock.Condvar.wait ctx c.changed c.lock
            done
        | _ -> raise (conn_failure c));
        (match c.st with
        | Established | Close_wait -> ()
        | _ -> raise (conn_failure c));
        let free = sndbuf_cap - c.sb_len in
        if free = 0 then Lock.Condvar.wait ctx c.space c.lock
        else begin
          let n = Int.min free (len - !pos) in
          let cap = Bytes.length c.sndbuf in
          let widx = (c.sb_start + c.sb_len) mod cap in
          let run = Int.min n (cap - widx) in
          Nectar_util.Copy_meter.record ~owner:c.tcp.owner
            Nectar_util.Copy_meter.App n;
          Bytes.blit_string data !pos c.sndbuf widx run;
          if run < n then Bytes.blit_string data (!pos + run) c.sndbuf 0 (n - run);
          c.sb_len <- c.sb_len + n;
          pos := !pos + n;
          tcp_output ctx c
        end
      done)

(* ---------- public API ---------- *)

let create ip ?(software_checksum = true) ?(mss = 8192) ?(window = 0xffff)
    ?(input_mode = `Thread) () =
  let rt = Datalink.runtime (Ipv4.datalink ip) in
  let input =
    Runtime.create_mailbox rt ~name:"tcp-input" ~port:Wire.port_tcp_input
      ~byte_limit:(256 * 1024) ~cached_buffer_bytes:0 ()
  in
  let send_req =
    Runtime.create_mailbox rt ~name:"tcp-send-request"
      ~port:Wire.port_tcp_send_request ~byte_limit:(128 * 1024)
      ~cached_buffer_bytes:128 ()
  in
  let eng = Runtime.engine rt in
  let t =
    {
      ip;
      rt;
      owner = Nectar_cab.Cab.name (Runtime.cab rt);
      input;
      send_req;
      sw_checksum = software_checksum;
      mss;
      window_limit = window;
      conns = Tbl.create 32;
      by_id = Tbl.create 32;
      listeners = Tbl.create 8;
      timer_lock = Lock.Mutex.create eng ~name:"tcp-timer-lock";
      timer_cv = Lock.Condvar.create eng ~name:"tcp-timer-cv";
      timer_gen = 0;
      next_conn_id = 1;
      next_port = 10000;
      iss_counter = 1000;
      seg_in = 0;
      seg_out = 0;
      retx = 0;
      bad_cksum = 0;
    }
  in
  Ipv4.register ip ~proto:Ipv4.proto_tcp input;
  (match input_mode with
  | `Thread ->
      ignore
        (Thread.create (Runtime.cab rt) ~priority:Thread.System
           ~name:"tcp-input" (input_thread t))
  | `Interrupt ->
      Mailbox.set_upcall input
        (Some
           (fun ctx mb ->
             match Mailbox.try_begin_get ctx mb with
             | Some msg -> process_segment ctx t msg
             | None -> ())));
  ignore
    (Thread.create (Runtime.cab rt) ~priority:Thread.System ~name:"tcp-send"
       (send_thread t));
  ignore
    (Thread.create (Runtime.cab rt) ~priority:Thread.System ~name:"tcp-timer"
       (timer_thread t));
  t

let listen t ~port ~on_accept =
  if Tbl.mem t.listeners port then invalid_arg "Tcp.listen: port in use";
  Tbl.replace t.listeners port on_accept

let connect (ctx : Ctx.t) t ~dst ~dst_port ?src_port () =
  Ctx.assert_may_block ctx "Tcp.connect";
  let lport =
    match src_port with
    | Some p -> p
    | None ->
        t.next_port <- t.next_port + 1;
        t.next_port
  in
  let c =
    make_conn t ~lport ~raddr:dst ~rport:dst_port ~st:Syn_sent
      ~iss:(fresh_iss t) ~rcv_nxt:0
  in
  Lock.Mutex.with_lock ctx c.lock (fun () ->
      arm_rtx c;
      emit ctx c ~flags:fl_syn ~seq:c.iss ~payload_n:0;
      while c.st = Syn_sent do
        Lock.Condvar.wait ctx c.changed c.lock
      done;
      match c.st with
      | Established -> ()
      | Closed ->
          if c.was_reset then raise Connection_refused
          else raise Connection_timed_out
      | _ -> raise Connection_refused);
  c

let send ctx c data = send_locked ctx c data

let recv_mailbox c = c.recv_mb

let recv_string (ctx : Ctx.t) c =
  let m = Mailbox.begin_get ctx c.recv_mb in
  Nectar_util.Copy_meter.record ~owner:c.tcp.owner Nectar_util.Copy_meter.App
    (Message.length m);
  let s = Message.to_string m in
  Mailbox.end_get ctx m;
  s

let close (ctx : Ctx.t) c =
  Ctx.assert_may_block ctx "Tcp.close";
  Lock.Mutex.with_lock ctx c.lock (fun () ->
      match c.st with
      | Closed | Time_wait | Last_ack | Closing | Fin_wait_1 | Fin_wait_2 ->
          ()
      | Syn_sent ->
          c.st <- Closed;
          remove_conn c
      | Syn_rcvd | Established | Close_wait ->
          c.fin_pending <- true;
          tcp_output ctx c;
          while
            match c.st with
            | Fin_wait_2 | Time_wait | Closed -> false
            | _ -> true
          do
            Lock.Condvar.wait ctx c.changed c.lock
          done)

let failure c =
  if c.timed_out then `Timed_out
  else if c.was_reset then `Reset
  else `None

let state_name c = state_to_string c.st
let remote c = (c.raddr, c.rport)
let segments_in t = t.seg_in
let segments_out t = t.seg_out
let retransmissions t = t.retx

let register_metrics t reg ~prefix =
  let c name read = Nectar_util.Metrics.counter reg (prefix ^ name) read in
  c "tcp.segments_in" (fun () -> segments_in t);
  c "tcp.segments_out" (fun () -> segments_out t);
  c "tcp.retransmissions" (fun () -> retransmissions t)
let bad_checksums t = t.bad_cksum
let send_request_mailbox t = t.send_req
let conn_by_id t id = Tbl.find_opt t.by_id id
let conn_id c = c.id
