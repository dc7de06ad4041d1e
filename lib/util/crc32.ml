(* Built at module initialisation, not lazily: partitions on different
   domains checksum their first frames at the same moment, and forcing
   one [lazy] from two domains at once raises [Lazy.Undefined]. *)
let table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

let mask32 = 0xffffffff

let digest ?(init = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest";
  let t = table in
  let c = ref (init lxor mask32) in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b i) in
    c := t.((!c lxor byte) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor mask32

let digest_string s =
  digest (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
