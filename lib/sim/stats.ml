module Throughput = struct
  let mbit_per_s ~bytes_moved ~elapsed =
    if elapsed <= 0 then 0.
    else
      float_of_int (bytes_moved * 8) /. (float_of_int elapsed /. 1e9) /. 1e6
end
