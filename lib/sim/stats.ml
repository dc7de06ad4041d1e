module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
  let reset t = t.v <- 0
end

module Throughput = struct
  let mbit_per_s ~bytes_moved ~elapsed =
    if elapsed <= 0 then 0.
    else
      float_of_int (bytes_moved * 8) /. (float_of_int elapsed /. 1e9) /. 1e6
end
