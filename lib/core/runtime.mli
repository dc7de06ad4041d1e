(** The CAB runtime system (paper §3): one instance per CAB.

    Owns the common buffer heap in CAB data memory, the registry of
    network-addressable mailboxes (a mailbox address is the pair
    [(cab node id, port)]), the host/CAB signal queues, and convenience
    constructors for threads and mailboxes. *)

type t

val create : Nectar_cab.Cab.t -> t

val cab : t -> Nectar_cab.Cab.t
val engine : t -> Nectar_sim.Engine.t
val heap : t -> Buffer_heap.t
val mem : t -> Bytes.t
val node_id : t -> int

val spawn_thread :
  t -> ?priority:Thread.priority -> name:string -> (Ctx.t -> unit) -> Thread.t

val create_mailbox :
  t ->
  name:string ->
  ?port:int ->
  ?byte_limit:int ->
  ?capacity:int ->
  ?overflow:Mailbox.overflow ->
  ?cached_buffer_bytes:int ->
  ?upcall:(Ctx.t -> Mailbox.t -> unit) ->
  unit ->
  Mailbox.t
(** A [port] makes the mailbox network-addressable on this CAB.
    [capacity]/[overflow] bound the message queue (see {!Mailbox.create}). *)

val mailbox_at : t -> port:int -> Mailbox.t option

(** {1 CAB signal queue (paper §3.2)}

    Host processes (and tests) wake CAB threads or request services by
    posting [(opcode, param)] elements; each post interrupts the CAB and the
    registered opcode handler runs at interrupt level. *)

val register_opcode : t -> opcode:int -> (Ctx.t -> param:int -> unit) -> unit
(** @raise Invalid_argument if [opcode] is already registered. *)

val register_free_opcode : t -> (Ctx.t -> param:int -> unit) -> int
(** Register the handler on this runtime's lowest free opcode >= 100 and
    return that opcode. *)

val post_to_cab : t -> opcode:int -> param:int -> unit

(** {1 Host signal queue}

    The CAB side of host notification: when a host driver is attached (see
    [Nectar_host.Cab_driver]) its callback delivers [(opcode, param)]
    elements to the host and interrupts it. *)

val set_host_notifier : t -> (opcode:int -> param:int -> unit) option -> unit

val notify_host : t -> opcode:int -> param:int -> unit
(** No-op (counted) when no host is attached. *)

val host_notifications : t -> int
val cab_signals : t -> int

(** {1 Fault injection} *)

val set_signal_fault : t -> (unit -> bool) option -> unit
(** Signal-queue loss injection: the hook is consulted for every
    {!post_to_cab} and every delivered {!notify_host}; returning [true]
    silently discards that signal (counted in {!signals_lost}).  Models a
    shared-memory signal-queue overrun; waiters recover on the next
    signal. *)

val signals_lost : t -> int
