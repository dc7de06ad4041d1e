(** CRC-32 (IEEE 802.3 polynomial, reflected), as computed by the CAB's
    hardware checksum unit for incoming and outgoing fiber data (paper §2.2).

    The value is returned as a non-negative [int] in the range [0, 2^32). *)

val digest : ?init:int -> Bytes.t -> pos:int -> len:int -> int
(** [digest b ~pos ~len] is the CRC-32 of the [len] bytes of [b] starting at
    [pos].  [init] (default 0) allows chaining: [digest ~init:(digest a) b]
    equals the digest of the concatenation of [a] and [b].  Raises
    [Invalid_argument] if the range is outside [b] or [init] is outside
    [[0, 2^32)]. *)

val update : int -> Bytes.t -> pos:int -> len:int -> int
(** [update crc b ~pos ~len] is [digest ~init:crc b ~pos ~len], for a
    caller that must not box its [init] (a per-frame read path). *)

val digest_string : string -> int
(** [digest_string s] is the CRC-32 of all of [s]. *)
