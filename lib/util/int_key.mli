(** Packed single-int hash-table keys for hot-path demultiplexing tables.

    A tuple key ([int * int]) costs the generic [Hashtbl] a heap-block walk
    to hash and a polymorphic-equality C call per probe, plus the tuple
    allocation at every lookup.  Packing the components into one immediate
    int makes hashing and equality single-word operations and removes the
    allocation.

    Each packer documents its bit budget; all fit in OCaml's 63-bit native
    int with room to spare.  Components outside their documented range raise
    [Invalid_argument] — a packed key must never silently collide. *)

val cab_port : cab:int -> port:int -> int
(** [cab] is a node id (at most 30 bits), [port] a 16-bit port number.
    Used by RMP channel and reassembly tables. *)

val cab_txn : cab:int -> txn:int -> int
(** [cab] is a node id (at most 30 bits), [txn] a 32-bit transaction id.
    Used by the request-response duplicate caches. *)

val tcp_conn : lport:int -> raddr:int -> rport:int -> int
(** 16-bit ports and a remote address of at most 30 bits.  The simulator
    derives every address from [Ipv4.addr_of_cab] (0x0a01_0000-based), so
    the range never binds in practice; real 32-bit addresses with the top
    bits set would need a different scheme. *)

(** Hash tables keyed by an int: the generic [Hashtbl]'s bucket placement
    ([Hashtbl.hash], so the same iteration order), with [Int.equal] in
    place of a polymorphic-compare C call per probe. *)
module Tbl : Hashtbl.S with type key = int
