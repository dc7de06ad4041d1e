module Region = Nectar_util.Region

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

let crc_of extents =
  List.fold_left
    (fun acc e ->
      Nectar_util.Crc32.digest ~init:acc (Region.bytes e.ereg) ~pos:e.eoff
        ~len:e.elen)
    0 extents

let of_extents ?wire_crc ~id ~src ~on_release extents =
  let total = List.fold_left (fun acc e -> acc + e.elen) 0 extents in
  if total = 0 then invalid_arg "Frame.create_sg: empty frame";
  let wire_crc =
    match wire_crc with Some c -> c | None -> crc_of extents
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
let crc_ok t = crc_of t.extents = t.wire_crc

let view t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.total then
    invalid_arg "Frame.view: outside frame";
  let rec find off = function
    | [] -> None
    | e :: rest ->
        if pos >= off && pos + len <= off + e.elen then
          Some (Region.bytes e.ereg, e.eoff + (pos - off))
        else find (off + e.elen) rest
  in
  find 0 t.extents

let blit t ~pos ~dst ~dst_pos ~len =
  if pos < 0 || len < 0 || pos + len > t.total then
    invalid_arg "Frame.blit: outside frame";
  let rec go off dst_pos pos len = function
    | [] -> ()
    | e :: rest ->
        if len = 0 then ()
        else if pos >= off + e.elen then go (off + e.elen) dst_pos pos len rest
        else begin
          let e_start = pos - off in
          let n = min len (e.elen - e_start) in
          Bytes.blit (Region.bytes e.ereg) (e.eoff + e_start) dst dst_pos n;
          go (off + e.elen) (dst_pos + n) (pos + n) (len - n) rest
        end
  in
  go 0 dst_pos pos len t.extents

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
