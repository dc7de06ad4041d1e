(** CAB memory: the data-memory region (1 Mbyte of 35 ns static RAM, the home
    of all mailbox buffers), plus the page-granular protection hardware of
    paper §2.2.

    Protection: access permissions are associated with each 1 Kbyte page, per
    protection *domain*; changing domain is a single register reload.  Domain
    0 is the system domain with full access.  DMA and kernel-path code use
    the raw {!region}; application-facing accessors go through
    [checked_read]/[checked_write] and raise {!Protection_fault} on
    violation, which the runtime uses to firewall application tasks
    (paper §3.1).

    Host cost is proportional to use.  The data memory is a
    {!Nectar_util.Region} whose backing grows only as the buffer heap
    allocates (so a fresh board holds no data bytes), and a domain's
    permission table — one byte per page — exists only once something
    is granted in it; until then every page reads the domain's default:
    [Read_write] for domain 0, [No_access] for the others. *)

type t

type perm = No_access | Read_only | Read_write

exception
  Protection_fault of { domain : int; page : int; write : bool }

val domain_count : int

val create : ?data_bytes:int -> unit -> t

val region : t -> Nectar_util.Region.t
(** The raw data-memory region.  Hold the region, not its bytes: the
    buffer heap's growth replaces the backing. *)

val data_bytes : t -> int
(** The logical size of the data memory. *)

val resident_bytes : t -> int
(** Data-memory bytes currently backed by host memory. *)

val page_bytes : int
val page_of : int -> int

val set_page_perm : t -> domain:int -> page:int -> perm -> unit
val page_perm : t -> domain:int -> page:int -> perm

val grant_range : t -> domain:int -> pos:int -> len:int -> perm -> unit
(** Set the permission of every page overlapping a byte range. *)

val set_domain : t -> int -> unit
(** Reload the protection-domain register. *)

val current_domain : t -> int

val checked_read : t -> pos:int -> len:int -> unit
(** Validate a read in the current domain (the data itself is then accessed
    through {!region}); raises {!Protection_fault}. *)

val checked_write : t -> pos:int -> len:int -> unit
