(* Native-order 64-bit load; [sum] checks bounds once up front. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let bytes_0_2_4_6 = 0x00ff00ff00ff00ff

(* Sum of the four 16-bit lanes of [x]. *)
let lanes x =
  (x land 0xffff)
  + ((x lsr 16) land 0xffff)
  + ((x lsr 32) land 0xffff)
  + (x lsr 48)

(* The sum of big-endian 16-bit words is 256 * (sum of the even-offset
   bytes) + (sum of the odd-offset bytes), so the bulk loop adds each
   8-byte block's even and odd bytes into two accumulators of four
   16-bit lanes (RFC 1071's deferred carries, SWAR style).  A lane adds
   at most 128 bytes (each <= 255) before it is folded — the top lane of
   a 63-bit int has only 15 bits — so the result is exactly the
   word-at-a-time sum, not merely congruent to it. *)
let sum ?(init = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Inet_checksum.sum";
  let acc = ref init in
  let i = ref pos in
  let last_block = pos + len - 8 in
  while !i <= last_block do
    let block_end =
      if last_block - !i > 127 * 8 then !i + (127 * 8) else last_block
    in
    let lo = ref 0 and hi = ref 0 in
    while !i <= block_end do
      let w = get64u b !i in
      lo := !lo + (Int64.to_int w land bytes_0_2_4_6);
      hi :=
        !hi
        + (Int64.to_int (Int64.shift_right_logical w 8) land bytes_0_2_4_6);
      i := !i + 8
    done;
    (* a native load puts the first (even) byte low on a little-endian
       host and high on a big-endian one *)
    let even, odd = if Sys.big_endian then (!hi, !lo) else (!lo, !hi) in
    acc := !acc + (lanes even lsl 8) + lanes odd
  done;
  let stop = pos + len - 1 in
  while !i < stop do
    acc := !acc + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if len land 1 = 1 then
    acc := !acc + (Char.code (Bytes.unsafe_get b (pos + len - 1)) lsl 8);
  !acc

let add16 acc v = acc + (v land 0xffff)

let finish acc =
  let a = ref acc in
  while !a lsr 16 <> 0 do
    a := (!a land 0xffff) + (!a lsr 16)
  done;
  lnot !a land 0xffff

let checksum b ~pos ~len = finish (sum b ~pos ~len)

let valid b ~pos ~len = checksum b ~pos ~len = 0
