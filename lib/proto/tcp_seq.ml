let modulus = 1 lsl 32
let half = 1 lsl 31

let mask x = x land (modulus - 1)
let add a b = mask (a + b)

let diff a b =
  let d = mask (a - b) in
  if d >= half then d - modulus else d

let lt a b = diff a b < 0
let le a b = diff a b <= 0
let gt a b = diff a b > 0
let ge a b = diff a b >= 0

let in_window x ~lo ~len =
  let d = mask (x - lo) in
  d < len
