(** The checked-in scenario suite for [nectar_cli run check] and the tests.

    {1 Explorer scenarios}

    Four seeded-bug micro scenarios (each with a fixed twin) reproduce
    classic ordering bugs at engine level — a publish/signal reorder, a
    lost wakeup across a blocking boundary, a retransmit-timer vs ack
    race, and a link-flap whose table invalidation lags detection so a
    same-tick retransmission can follow the stale route onto a dark
    port.  Each bug is constructed so the {e default} creation-order
    schedule masks it: a single run passes, and only the explorer's
    reordering of same-time events produces the violation.  Three
    full-runtime scenarios (mailbox put/get under an interrupt producer,
    RMP retransmission across a dropped frame, a TCP handshake) assert
    exactly-once delivery, ordering, termination and vet cleanliness in
    every explored interleaving.

    {1 Isolation-audit cases}

    The 2-node datagram world must audit clean behind the documented
    boundary whitelist (engine + network, literal strings up to 64 bytes
    exempt as compiler-interned constants); the two planted cases — a
    mutable ref captured by upcalls on both nodes, and node b holding
    node a's CAB memory — must be reported.

    The partitioned cases audit an actual 2-domain [Parallel.run] world
    after quiescence: clean behind per-partition engines plus the
    scheduler's send conduits (the sanctioned cross-domain boundary),
    and a planted counter array shared by both partitions' sinks must
    be reported.  This is the go/no-go gate the parallel engine ships
    behind, run by ci.sh as the [check/partitioned-2dom] registry entry. *)

val all : Explore.scenario list
val find : string -> Explore.scenario option

type audit_case = {
  a_name : string;
  a_descr : string;
  a_expect_shared : bool;  (** planted alias: the audit must NOT be clean *)
  a_run : unit -> Isolation.report;
}

val audits : audit_case list
val find_audit : string -> audit_case option
