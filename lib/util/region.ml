type t = { size : int; mutable backing : Bytes.t }

let min_backing = 4096

let create size =
  if size < 0 then invalid_arg "Region.create: negative size";
  { size; backing = Bytes.empty }

let of_bytes b = { size = Bytes.length b; backing = b }
let size t = t.size
let resident_bytes t = Bytes.length t.backing
let bytes t = t.backing

let back t n =
  if n < 0 || n > t.size then invalid_arg "Region.back: outside the region";
  let have = Bytes.length t.backing in
  if n > have then begin
    let rec double cap = if cap >= n then cap else double (2 * cap) in
    let cap = min t.size (double (max min_backing (2 * have))) in
    let grown = Bytes.make cap '\000' in
    Bytes.blit t.backing 0 grown 0 have;
    t.backing <- grown
  end
