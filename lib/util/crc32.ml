(* Slicing-by-8 (Kounavis & Berry): [tables] holds eight 256-entry tables
   back to back.  Entry [n] of table [k] is the CRC register after byte
   [n] followed by [k] zero bytes, so an 8-byte block folds into the
   register with eight independent lookups instead of eight dependent
   shift-and-lookup steps.  Table 0 is the classic byte-at-a-time table,
   which also finishes the tail.

   Built at module initialisation, not lazily: partitions on different
   domains checksum their first frames at the same moment, and forcing
   one [lazy] from two domains at once raises [Lazy.Undefined]. *)
let tables : int array =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let p = t.(i - 256) in
    t.(i) <- (p lsr 8) lxor t.(p land 0xff)
  done;
  t

let mask32 = 0xffffffff

(* Native-order 64-bit load; callers check bounds once up front. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let update init b ~pos ~len =
  (* an [init] wider than 32 bits would index past the tables *)
  if pos < 0 || len < 0 || pos + len > Bytes.length b || init < 0
     || init > mask32
  then invalid_arg "Crc32.digest";
  let t = tables in
  let c = ref (init lxor mask32) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    (* the CRC is reflected: bytes enter low-order first, so read the
       block little-endian whatever the host *)
    let w = get64u b !i in
    let w = if Sys.big_endian then bswap64 w else w in
    let lo = !c lxor (Int64.to_int w land mask32) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      Array.unsafe_get t (0x700 + (lo land 0xff))
      lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 + (lo lsr 24))
      lxor Array.unsafe_get t (0x300 + (hi land 0xff))
      lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    let byte = Char.code (Bytes.unsafe_get b !i) in
    c := Array.unsafe_get t ((!c lxor byte) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor mask32

let digest ?(init = 0) b ~pos ~len = update init b ~pos ~len

let digest_string s =
  digest (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
