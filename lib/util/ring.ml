type 'a t = {
  mutable buf : 'a array; (* length 0 or a power of two *)
  mutable head : int;
  mutable len : int;
  dummy : 'a;
}

let no_cells = [||]
let create ~dummy = { buf = no_cells; head = 0; len = 0; dummy }
let length t = t.len
let is_empty t = t.len = 0

(* Double the array (4 cells at first), unrolling the ring to index 0. *)
let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (if cap = 0 then 1 else 2 * cap) t.dummy in
  for k = 0 to t.len - 1 do
    Array.unsafe_set buf k (Array.unsafe_get t.buf ((t.head + k) land (cap - 1)))
  done;
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  Array.unsafe_set t.buf ((t.head + t.len) land (Array.length t.buf - 1)) x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let i = t.head in
  let x = Array.unsafe_get t.buf i in
  Array.unsafe_set t.buf i t.dummy;
  t.head <- (i + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let fold f acc t =
  let mask = Array.length t.buf - 1 in
  let acc = ref acc in
  for k = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.buf ((t.head + k) land mask))
  done;
  !acc
