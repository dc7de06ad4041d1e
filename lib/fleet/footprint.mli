(** Memory-footprint reporting for fleet worlds.

    A [Footprint.t] is a registry of the engines, mailboxes and buffer
    heaps that make up a world; {!capture} reads their existing
    accessors into one snapshot (pending timers, event-heap cells,
    queued mailbox messages and bytes, live heap blocks and bytes), and
    {!register_metrics} exposes the same totals as gauges so the CLI
    metrics dump shows them live.

    {!build_bytes_per_node} measures the retained size of a world build
    by the live-word delta across full major collections — the number
    the perf-smoke gate tracks for allocation regressions. *)

type t

val create : unit -> t
val add_engine : t -> Nectar_sim.Engine.t -> unit
val add_mailbox : t -> Nectar_core.Mailbox.t -> unit
val add_heap : t -> Nectar_core.Buffer_heap.t -> unit

val add_node : t -> unit
(** Count a node, for the per-node divisions in {!to_string}. *)

val nodes : t -> int

type snapshot = {
  pending_events : int;  (** live timers + runnable processes *)
  queued_events : int;  (** event-heap cells, incl. lazily-cancelled *)
  mailbox_msgs : int;
  mailbox_bytes : int;  (** mailbox buffer bytes in use *)
  heap_blocks : int;  (** live message-buffer heap blocks *)
  heap_bytes : int;
  heap_free_bytes : int;
}

val capture : t -> snapshot

val register_metrics : t -> Nectar_util.Metrics.t -> prefix:string -> unit
(** Gauges [<prefix>pending_events], [queued_events], [mailbox_msgs],
    [mailbox_bytes], [heap_blocks], [heap_bytes], [nodes]. *)

val to_string : ?nodes:int -> snapshot -> string

val build_bytes_per_node : nodes:int -> (unit -> 'a) -> 'a * int
(** [build_bytes_per_node ~nodes f] runs [f] (a world build) between
    [Gc.full_major] live-word measurements and returns [f]'s result with
    the retained bytes per node. *)
