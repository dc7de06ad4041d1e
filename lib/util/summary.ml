type t = { mutable buf : int array; mutable len : int }

let create () = { buf = [||]; len = 0 }

let add t (ns : int) =
  if t.len = Array.length t.buf then begin
    let grown = Array.make (Int.max 64 (2 * t.len)) 0 in
    Array.blit t.buf 0 grown 0 t.len;
    t.buf <- grown
  end;
  t.buf.(t.len) <- ns;
  t.len <- t.len + 1

let count t = t.len
let samples t = Array.sub t.buf 0 t.len

let swap (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let median3 (x : int) y z =
  if x < y then (if y < z then y else if x < z then z else x)
  else if x < z then x
  else if y < z then z
  else y

(* Hoare's selection with a three-way partition of [lo, hi] around a
   median-of-three pivot: [lo, lt) below it, [lt, gt] equal, (gt, hi]
   above.  Runs of equal latencies land in the middle block at once, so
   heavy duplicates cost one pass, not one per copy.  [a.(k)] ends up
   holding what a sorted [a] holds there, over the first [n] slots. *)
let select (a : int array) n k =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let pivot = median3 a.(!lo) a.((!lo + !hi) / 2) a.(!hi) in
    let lt = ref !lo and i = ref !lo and gt = ref !hi in
    while !i <= !gt do
      let x = a.(!i) in
      if x < pivot then begin
        swap a !lt !i;
        incr lt;
        incr i
      end
      else if x > pivot then begin
        swap a !i !gt;
        decr gt
      end
      else incr i
    done;
    if k < !lt then hi := !lt - 1
    else if k > !gt then lo := !gt + 1
    else begin
      lo := k;
      hi := k
    end
  done;
  a.(k)

let select_rank (a : int array) p =
  if p < 0 || p > 100 then invalid_arg "Summary.select_rank: p outside [0,100]";
  let n = Array.length a in
  if n = 0 then 0 else select a n ((n - 1) * p / 100)

(* The selections permute the buffer in place: the samples are a
   multiset, so a later rank or [samples] reads the same distribution. *)
let percentile t p =
  if t.len = 0 then invalid_arg "Summary.percentile: empty";
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Summary.percentile: p outside [0,1]";
  let idx = p *. float_of_int (t.len - 1) in
  let lo = select t.buf t.len (int_of_float (floor idx)) in
  let hi = select t.buf t.len (int_of_float (ceil idx)) in
  let frac = idx -. floor idx in
  (float_of_int lo *. (1. -. frac)) +. (float_of_int hi *. frac)
