type t = {
  mutable n : int;
  mutable sum : float;
  (* Welford running state: the textbook sumsq/n - mean^2 formula
     cancels catastrophically for large-offset samples (1e9 + {0,1,2}
     returns 0 or NaN); mean_/m2 stay accurate at any offset. *)
  mutable mean_ : float;
  mutable m2 : float;
  mutable mn : float;
  mutable mx : float;
  keep : bool;
  mutable samples : float list; (* reversed *)
}

let create ?(keep_samples = false) () =
  {
    n = 0;
    sum = 0.;
    mean_ = 0.;
    m2 = 0.;
    mn = infinity;
    mx = neg_infinity;
    keep = keep_samples;
    samples = [];
  }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  let d = x -. t.mean_ in
  t.mean_ <- t.mean_ +. (d /. float_of_int t.n);
  t.m2 <- t.m2 +. (d *. (x -. t.mean_));
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x;
  if t.keep then t.samples <- x :: t.samples

let count t = t.n
let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

let min t =
  if t.n = 0 then invalid_arg "Summary.min: empty";
  t.mn

let max t =
  if t.n = 0 then invalid_arg "Summary.max: empty";
  t.mx

let stddev t =
  if t.n < 2 then 0. else sqrt (Float.max 0. (t.m2 /. float_of_int t.n))

let percentile t p =
  if not t.keep then invalid_arg "Summary.percentile: samples not kept";
  if t.samples = [] then invalid_arg "Summary.percentile: empty";
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Summary.percentile: p outside [0,1]";
  let a = Array.of_list t.samples in
  Array.sort Float.compare a;
  let idx = p *. float_of_int (Array.length a - 1) in
  let lo = int_of_float (floor idx) and hi = int_of_float (ceil idx) in
  let frac = idx -. floor idx in
  (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)

(* Chan's parallel combine of two Welford states.  Empty sides are the
   edge cases: an empty [src] leaves [into] untouched, an empty [into]
   takes [src] verbatim — never mixing real samples with the
   infinity/neg_infinity sentinels of an empty summary. *)
let merge ~into src =
  if src.n = 0 then ()
  else if into.n = 0 then begin
    into.n <- src.n;
    into.sum <- src.sum;
    into.mean_ <- src.mean_;
    into.m2 <- src.m2;
    into.mn <- src.mn;
    into.mx <- src.mx;
    if into.keep then into.samples <- src.samples
  end
  else begin
    let na = float_of_int into.n and nb = float_of_int src.n in
    let n = na +. nb in
    let d = src.mean_ -. into.mean_ in
    into.m2 <- into.m2 +. src.m2 +. (d *. d *. na *. nb /. n);
    into.mean_ <- into.mean_ +. (d *. nb /. n);
    into.n <- into.n + src.n;
    into.sum <- into.sum +. src.sum;
    if src.mn < into.mn then into.mn <- src.mn;
    if src.mx > into.mx then into.mx <- src.mx;
    if into.keep then into.samples <- src.samples @ into.samples
  end

let reset t =
  t.n <- 0;
  t.sum <- 0.;
  t.mean_ <- 0.;
  t.m2 <- 0.;
  t.mn <- infinity;
  t.mx <- neg_infinity;
  t.samples <- []
