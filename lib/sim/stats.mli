(** Measurement helpers for the benches and examples. *)

(** Throughput over a simulated interval. *)
module Throughput : sig
  val mbit_per_s : bytes_moved:int -> elapsed:Sim_time.span -> float
end
