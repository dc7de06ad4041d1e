(** Measurement helpers for the benches and examples. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

(** Running summary of a series of observations (see {!Nectar_util.Summary}). *)
module Summary = Nectar_util.Summary

(** Throughput over a simulated interval. *)
module Throughput : sig
  val mbit_per_s : bytes_moved:int -> elapsed:Sim_time.span -> float
end
