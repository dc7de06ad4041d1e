(** Node-isolation auditor: the go/no-go gate for the OCaml-5-domains
    refactor of the engine (ROADMAP "parallel simulation engine").

    The auditor walks the runtime heap graph ([Obj]-level, read-only) from
    each node's declared roots and reports every heap block reachable from
    two or more nodes that is not behind a declared {e boundary} object.
    Boundaries are the shared infrastructure the domain refactor will keep
    on the coordinating side — the engine, the HUB network — and descent
    stops at them, so per-node state hiding behind the wire is not falsely
    shared.  A clean report means each node's mutable state is reachable
    only from that node: nodes can move to separate domains with the
    boundaries as the only synchronization points.

    OCaml's runtime does not record per-block mutability, so the auditor
    reports {e all} shared blocks (tag-classified); an immutable shared
    block is benign for parallelism but still flagged, because the walk
    cannot distinguish a shared [string] from a shared [Bytes.t] buffer.
    The documented whitelist in [Scenarios] records which shared blocks a
    scenario accepts and why.

    This module is the one place in the tree allowed to use [Obj]
    (enforced by nectar-lint). *)

type shared = {
  s_tag : int;  (** runtime tag of the shared block *)
  s_size : int;  (** size in words *)
  s_kind : string;  (** human name for the tag: "record/tuple", "closure", ... *)
  s_owners : (string * string) list;
      (** (node, access path from that node's root), one per owning node *)
}

type report = {
  shared_blocks : shared list;
  blocks_scanned : int;
  boundary_hits : int;  (** edges that stopped at a boundary object *)
  literals_exempted : int;
      (** shared immutable constants skipped under [max_literal_bytes] *)
  static_closures_exempted : int;
      (** shared environment-free closures (top-level functions) skipped *)
}

val audit :
  nodes:(string * Obj.t list) list ->
  ?boundary:(string * Obj.t) list ->
  ?max_literal_bytes:int ->
  unit ->
  report
(** Walk each node's roots in turn.  [boundary] objects terminate descent
    wherever encountered.

    [max_literal_bytes] (default 0, i.e. off) exempts shared [string]-tag
    blocks of at most that many bytes: the compiler interns equal string
    literals, so two nodes that both name a mailbox ["rmp-inbox"] share one
    constant block.  The exemption is a documented risk — a short shared
    [Bytes.t] buffer would also slip through — which is acceptable here
    because every mutable wire buffer in this codebase lives inside a
    node's CAB data memory (a 64 KB block).  Environment-free closures
    (top-level functions, code only) and boxed float constants are always
    exempt; exemption counts are reported for transparency.

    The walk visits at most 4,000,000 blocks and raises [Invalid_argument]
    beyond that — a runaway graph should fail loudly, not hang. *)

val clean : report -> bool
val pp_report : Format.formatter -> report -> unit
