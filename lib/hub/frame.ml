module Region = Nectar_util.Region
module Vet_probe = Nectar_sim.Vet_probe

type extent = { ereg : Region.t; eoff : int; elen : int }

type t = {
  id : int;
  src : int;
  mutable extents : extent list;
  total : int;
  wire_crc : int;
  mutable on_release : unit -> unit;
  mutable released : bool;
}

(* Every read of a frame's extents reports the range to vet first, so a
   read of a buffer its owner already freed is found where it happens.
   Top-level recursion, not a closure: with no hook installed a read
   allocates nothing. *)
let rec crc_of id acc = function
  | [] -> acc
  | e :: rest ->
      Vet_probe.dma_read ~frame:id ~region:e.ereg ~off:e.eoff ~len:e.elen;
      crc_of id
        (Nectar_util.Crc32.update acc (Region.bytes e.ereg) ~pos:e.eoff
           ~len:e.elen)
        rest

let of_extents ?wire_crc ~id ~src ~on_release extents =
  let total = List.fold_left (fun acc e -> acc + e.elen) 0 extents in
  if total = 0 then invalid_arg "Frame.create_sg: empty frame";
  let wire_crc =
    match wire_crc with Some c -> c | None -> crc_of id 0 extents
  in
  { id; src; extents; total; wire_crc; on_release; released = false }

let create_sg ~id ~src ~extents ~on_release =
  of_extents ~id ~src ~on_release
    (List.map
       (fun (ereg, eoff, elen) ->
         if eoff < 0 || elen < 0 || eoff + elen > Region.resident_bytes ereg
         then invalid_arg "Frame.create_sg: extent outside its region's backing";
         { ereg; eoff; elen })
       extents)

let private_extent data =
  [ { ereg = Region.of_bytes data; eoff = 0; elen = Bytes.length data } ]

let create ~id ~src ~data =
  of_extents ~id ~src ~on_release:(fun () -> ()) (private_extent data)

let of_wire ~id ~src ~wire_crc ~data =
  of_extents ~wire_crc ~id ~src ~on_release:(fun () -> ())
    (private_extent data)

let length t = t.total
let crc_ok t = crc_of t.id 0 t.extents = t.wire_crc

let straddles = (Bytes.empty, -1)

(* The extent holding frame range [pos, pos + len), searching from the
   extent at frame offset [off].  Top-level recursion with no option: a
   view allocates only the pair it returns. *)
let rec view_from id pos len off = function
  | [] -> straddles
  | e :: rest ->
      if pos >= off + e.elen then view_from id pos len (off + e.elen) rest
      else if pos + len > off + e.elen then straddles
      else begin
        let eoff = e.eoff + (pos - off) in
        Vet_probe.dma_read ~frame:id ~region:e.ereg ~off:eoff ~len;
        (Region.bytes e.ereg, eoff)
      end

let view t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.total then
    invalid_arg "Frame.view: outside frame";
  view_from t.id pos len 0 t.extents

(* [len] bytes from frame offset [pos] into [dst], the extent list
   starting at frame offset [off]. *)
let rec blit_extents id dst off dst_pos pos len = function
  | [] -> ()
  | e :: rest ->
      if len = 0 then ()
      else if pos >= off + e.elen then
        blit_extents id dst (off + e.elen) dst_pos pos len rest
      else begin
        let src = e.eoff + (pos - off) in
        let n = Int.min len (e.elen - (pos - off)) in
        Vet_probe.dma_read ~frame:id ~region:e.ereg ~off:src ~len:n;
        Bytes.blit (Region.bytes e.ereg) src dst dst_pos n;
        blit_extents id dst (off + e.elen) (dst_pos + n) (pos + n) (len - n)
          rest
      end

let blit t ~pos ~dst ~dst_pos ~len =
  if pos < 0 || len < 0 || pos + len > t.total then
    invalid_arg "Frame.blit: outside frame";
  blit_extents t.id dst 0 dst_pos pos len t.extents

(* Privatise the frame's bytes: copy every extent into fresh storage and
   drop the references to the source buffers right away.  Fault injection
   uses this before mutating the payload — on the zero-copy path the
   extents alias the sender's live mailbox buffer (which a reliable
   protocol will retransmit), so corruption must hit a private snapshot,
   never the sender's memory. *)
let detach t =
  let data = Bytes.create t.total in
  blit t ~pos:0 ~dst:data ~dst_pos:0 ~len:t.total;
  t.extents <- [ { ereg = Region.of_bytes data; eoff = 0; elen = t.total } ];
  let release = t.on_release in
  t.on_release <- (fun () -> ());
  release ()

(* Flip one bit in each of [burst] contiguous bytes centred on the middle
   of the frame — a single-bit error for [burst = 1] (the classic fiber
   glitch), a noise burst otherwise.  Either way the receiver's hardware
   CRC recomputation disagrees with the snapshot CRC and the frame is
   dropped whole by the datalink. *)
let corrupt ?(burst = 1) t =
  detach t;
  match t.extents with
  | [ { ereg; eoff = 0; elen } ] ->
      let ebytes = Region.bytes ereg in
      let k = min (max 1 burst) elen in
      let start = min (elen / 2) (elen - k) in
      for i = start to start + k - 1 do
        Bytes.set_uint8 ebytes i (Bytes.get_uint8 ebytes i lxor 0x08)
      done
  | _ -> assert false

let release t =
  if t.released then invalid_arg "Frame.release: frame already released";
  t.released <- true;
  let release = t.on_release in
  t.on_release <- (fun () -> ());
  release ()

let released t = t.released
