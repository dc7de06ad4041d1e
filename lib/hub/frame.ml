module Region = Nectar_util.Region
module Vet_probe = Nectar_sim.Vet_probe

type extent = { ereg : Region.t; eoff : int; elen : int }
type owner = Unowned | Owner : { value : 'a; ops : 'a ops } -> owner
and 'a ops = { release : 'a -> unit; sent : 'a -> unit }

type rx = ..
type rx += Idle

type t = {
  mutable id : int;
  src : int;
  mutable reg : Region.t;
  mutable off : int;
  mutable len : int;
  mutable tail : extent list;
  mutable crc_memo : int;
  mutable bits : int;
  route : int list;
  mutable owner : owner;
  mutable rx : rx;
  mutable arrived : int;
  mutable consumed : int;
  mutable waiter : Nectar_sim.Engine.waker;
}

(* [bits]: four flags under the header size. *)
let released_bit = 1
let dropped_bit = 2 (* the owner's release has run *)
let crc_bad_bit = 4
let crc_pending_bit = 8 (* [create]d, CRC not taken yet *)
let header_shift = 4

let make ~id ~src ~header_bytes ~route reg ~off ~len ~tail owner =
  {
    id;
    src;
    reg;
    off;
    len;
    tail;
    crc_memo = 0;
    bits = header_bytes lsl header_shift;
    route;
    owner;
    rx = Idle;
    arrived = 0;
    consumed = 0;
    waiter = Nectar_sim.Engine.no_waker;
  }

let rec tail_length acc = function
  | [] -> acc
  | e :: rest -> tail_length (acc + e.elen) rest

let length t = match t.tail with [] -> t.len | tail -> tail_length t.len tail
let header_bytes t = t.bits lsr header_shift

(* Every read of a frame's extents reports the range to vet first, so a
   read of a buffer its owner already freed is found where it happens.
   Top-level recursion, not a closure: with no hook installed a read
   allocates nothing. *)
let read id reg off len acc =
  Vet_probe.dma_read ~frame:id ~region:reg ~off ~len;
  Nectar_util.Crc32.update acc (Region.bytes reg) ~pos:off ~len

let rec crc_of_tail id acc = function
  | [] -> acc
  | e :: rest -> crc_of_tail id (read id e.ereg e.eoff e.elen acc) rest

let crc_of t = crc_of_tail t.id (read t.id t.reg t.off t.len 0) t.tail

let check_extent reg off len what =
  if off < 0 || len < 0 || off + len > Region.resident_bytes reg then
    invalid_arg (what ^ ": extent outside its region's backing")

let rec check_tail what = function
  | [] -> ()
  | e :: rest ->
      check_extent e.ereg e.eoff e.elen what;
      check_tail what rest

let latch t ~id =
  check_extent t.reg t.off t.len "Frame.latch";
  check_tail "Frame.latch" t.tail;
  t.id <- id;
  t.crc_memo <- crc_of t

let outgoing ~src ~route ~header_bytes reg ~off ~len ~tail owner =
  make ~id:(-1) ~src ~header_bytes ~route reg ~off ~len ~tail owner

(* A single-extent, unowned frame over all of [data]; [what] names the
   caller in the empty-frame error. *)
let single what ~id ~src data =
  let len = Bytes.length data in
  if len = 0 then invalid_arg (what ^ ": empty frame");
  make ~id ~src ~header_bytes:0 ~route:[] (Region.of_bytes data) ~off:0 ~len
    ~tail:[] Unowned

let of_wire ~id ~src ~wire_crc ~data =
  let t = single "Frame.of_wire" ~id ~src data in
  t.crc_memo <- wire_crc;
  t

(* The CRC is taken at its first read, not here: on the wire-level fleet
   nothing reads it unless the frame crosses a cut or is corrupted. *)
let create ~id ~src ~data =
  let t = single "Frame.create" ~id ~src data in
  t.bits <- t.bits lor crc_pending_bit;
  t

let wire_crc t =
  if t.bits land crc_pending_bit <> 0 then begin
    t.crc_memo <- crc_of t;
    t.bits <- t.bits land lnot crc_pending_bit
  end;
  t.crc_memo

(* Shared by every ring (and every domain): its CRC is taken here, so no
   later read writes it. *)
let filler =
  let t = create ~id:(-1) ~src:(-1) ~data:(Bytes.make 1 '\000') in
  ignore (wire_crc t);
  t

let crc_ok t =
  let sent = wire_crc t in
  crc_of t = sent

let set_crc_verdict t ok =
  t.bits <- (if ok then t.bits land lnot crc_bad_bit else t.bits lor crc_bad_bit)

let crc_verdict t = t.bits land crc_bad_bit = 0

let outside what t pos len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg (what ^ ": outside frame")

let inline_read t pos len =
  Vet_probe.dma_read ~frame:t.id ~region:t.reg ~off:(t.off + pos) ~len;
  Region.bytes t.reg

let inline_bytes t ~pos ~len =
  outside "Frame.inline_bytes" t pos len;
  if pos + len <= t.len then inline_read t pos len else Bytes.empty

(* [len] bytes of an extent ([reg], [off], [elen]) at frame offset [at],
   from frame offset [pos], into [dst]; returns how many it copied. *)
let blit_extent id reg off elen at dst dst_pos pos len =
  if len = 0 || pos >= at + elen then 0
  else begin
    let src = off + (pos - at) in
    let n = Int.min len (elen - (pos - at)) in
    Vet_probe.dma_read ~frame:id ~region:reg ~off:src ~len:n;
    Bytes.blit (Region.bytes reg) src dst dst_pos n;
    n
  end

let rec blit_tail id dst at dst_pos pos len = function
  | [] -> ()
  | e :: rest ->
      if len > 0 then begin
        let n = blit_extent id e.ereg e.eoff e.elen at dst dst_pos pos len in
        blit_tail id dst (at + e.elen) (dst_pos + n) (pos + n) (len - n) rest
      end

let blit t ~pos ~dst ~dst_pos ~len =
  outside "Frame.blit" t pos len;
  let n = blit_extent t.id t.reg t.off t.len 0 dst dst_pos pos len in
  blit_tail t.id dst t.len (dst_pos + n) (pos + n) (len - n) t.tail

let drop_owner t =
  if t.bits land dropped_bit = 0 then begin
    t.bits <- t.bits lor dropped_bit;
    match t.owner with
    | Owner { value; ops } -> ops.release value
    | Unowned -> ()
  end

(* Privatise the frame's bytes: copy every extent into fresh storage and
   drop the references to the source buffers right away.  Fault injection
   uses this before mutating the payload — on the zero-copy path the
   extents alias the sender's live mailbox buffer (which a reliable
   protocol will retransmit), so corruption must hit a private snapshot,
   never the sender's memory.  A pending CRC is taken first, over the
   bytes as sent, so a later corruption still fails the check. *)
let detach t =
  ignore (wire_crc t);
  let total = length t in
  let data = Bytes.create total in
  blit t ~pos:0 ~dst:data ~dst_pos:0 ~len:total;
  t.reg <- Region.of_bytes data;
  t.off <- 0;
  t.len <- total;
  t.tail <- [];
  drop_owner t

(* Flip one bit in each of [burst] contiguous bytes centred on the middle
   of the frame — a single-bit error for [burst = 1] (the classic fiber
   glitch), a noise burst otherwise.  Either way the receiver's hardware
   CRC recomputation disagrees with the snapshot CRC and the frame is
   dropped whole by the datalink. *)
let corrupt ?(burst = 1) t =
  detach t;
  let ebytes = Region.bytes t.reg and elen = t.len in
  let k = min (max 1 burst) elen in
  let start = min (elen / 2) (elen - k) in
  for i = start to start + k - 1 do
    Bytes.set_uint8 ebytes i (Bytes.get_uint8 ebytes i lxor 0x08)
  done

let release t =
  if t.bits land released_bit <> 0 then
    invalid_arg "Frame.release: frame already released";
  t.bits <- t.bits lor released_bit;
  drop_owner t

let released t = t.bits land released_bit <> 0

let sent t =
  match t.owner with Owner { value; ops } -> ops.sent value | Unowned -> ()
