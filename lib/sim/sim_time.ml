type t = int
type span = int

let zero = 0
let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let s x = x * 1_000_000_000
let to_us t = float_of_int t /. 1_000.
let to_ms t = float_of_int t /. 1_000_000.
let to_s t = float_of_int t /. 1_000_000_000.

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (to_us t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.3fms" (to_ms t)
  else Format.fprintf fmt "%.4fs" (to_s t)

let to_string t = Format.asprintf "%a" pp t
