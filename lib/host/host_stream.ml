open Nectar_core

type io = {
  send : Ctx.t -> port:int -> string -> unit;
  recv : Ctx.t -> port:int -> string;
  stream_mtu : int;
}

let header = 8 (* emulated transport header inside each datagram *)

let netdev_io nd ~peer =
  {
    send = (fun ctx ~port s -> Netdev.send_datagram ctx nd ~dst_cab:peer ~port s);
    recv = (fun ctx ~port -> Netdev.recv_datagram ctx nd ~port);
    stream_mtu = Netdev.mtu - header;
  }

let ethernet_io station ~peer =
  {
    send =
      (fun ctx ~port s -> Ethernet.send_datagram ctx station ~dst:peer ~port s);
    recv = (fun ctx ~port -> Ethernet.recv_datagram ctx station ~port);
    stream_mtu = Ethernet.mtu - header;
  }

let ack_every = 2

let run_sender ctx io ~data_port ~ack_port ~total ?(window = 8) () =
  let sent = ref 0 in
  let unacked = ref 0 in
  while !sent < total do
    while !unacked > window - 1 do
      (* cumulative acks: one ack covers up to [ack_every] packets *)
      let credits = int_of_string (io.recv ctx ~port:ack_port) in
      unacked := Int.max 0 (!unacked - credits)
    done;
    let n = Int.min io.stream_mtu (total - !sent) in
    io.send ctx ~port:data_port (String.make n 'd');
    sent := !sent + n;
    incr unacked
  done;
  while !unacked > 0 do
    let credits = int_of_string (io.recv ctx ~port:ack_port) in
    unacked := Int.max 0 (!unacked - credits)
  done

let run_receiver ctx io ~data_port ~ack_port ~total =
  let received = ref 0 in
  let pending = ref 0 in
  while !received < total do
    let s = io.recv ctx ~port:data_port in
    received := !received + String.length s;
    incr pending;
    if !pending >= ack_every || !received >= total then begin
      io.send ctx ~port:ack_port (string_of_int !pending);
      pending := 0
    end
  done
