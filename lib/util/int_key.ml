let[@inline never] bad name =
  invalid_arg ("Int_key." ^ name ^ ": component out of range")

let[@inline] cab_port ~cab ~port =
  if cab lor port < 0 || cab > 0x3fff_ffff || port > 0xffff then bad "cab_port";
  (cab lsl 16) lor port

let[@inline] cab_txn ~cab ~txn =
  if cab lor txn < 0 || cab > 0x3fff_ffff || txn > 0xffff_ffff then
    bad "cab_txn";
  (cab lsl 32) lor txn

let[@inline] tcp_conn ~lport ~raddr ~rport =
  if
    lport lor raddr lor rport < 0
    || raddr > 0x3fff_ffff
    || lport lor rport > 0xffff
  then bad "tcp_conn";
  (raddr lsl 32) lor (lport lsl 16) lor rport

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)
