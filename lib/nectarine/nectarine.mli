(** Nectarine: the Nectar application interface (paper §3.5).

    "It provides applications with a procedural interface to the Nectar
    communication protocols and direct access to mailboxes in CAB memory
    ... and presents the same interface on both the CAB and host."

    A {!node} is a place application code runs: a CAB (tasks become CAB
    application threads using the runtime directly) or a host attached to
    a CAB (tasks become host processes going through the mapped-memory
    interface of {!Nectar_host.Hostlib}; sends are handed to a CAB send
    server through a mailbox, receives poll mailboxes in CAB memory).

    Addressing is the network-wide mailbox address (CAB node id, port). *)

type node

type endpoint = { cab : int; port : int }

type error =
  | Delivery_timeout of endpoint  (** RMP gave up after its retry budget. *)
  | Call_timeout of endpoint  (** RPC gave up after its retry budget. *)
  | No_buffer  (** Transmit frame buffers exhausted (non-blocking path). *)

val string_of_error : error -> string

val cab_node : Nectar_proto.Stack.t -> node

val host_node : Nectar_host.Cab_driver.t -> Nectar_proto.Stack.t -> node
(** The driver must be attached to the same CAB the stack runs on. *)

val node_cab_id : node -> int

val spawn : node -> name:string -> (Nectar_core.Ctx.t -> unit) -> unit
(** Create an application task: a CAB thread (application priority) or a
    host process. *)

(** {1 Mailboxes} *)

type mbox

val create_mailbox : node -> name:string -> ?port:int -> unit -> mbox
(** A network-addressable mailbox in this node's CAB memory, readable by
    this node ([port] defaults to a fresh one). *)

val address : mbox -> endpoint

val receive : Nectar_core.Ctx.t -> mbox -> string
(** Blocking read (+ free) of the next message. *)

(** {1 Messaging} *)

val send :
  Nectar_core.Ctx.t -> node -> dst:endpoint -> ?reliable:bool -> string ->
  unit
(** Deliver a message into a remote mailbox: the Nectar datagram protocol,
    or RMP when [reliable] (default true).  Raises the transport's
    exception (e.g. [Rmp.Delivery_timeout]) if delivery cannot be
    confirmed. *)

val send_result :
  Nectar_core.Ctx.t -> node -> dst:endpoint -> ?reliable:bool -> string ->
  (unit, error) result
(** Like {!send} but returns transport failures as typed errors instead of
    raising — use from threads that must survive fault injection. *)

(** {1 RPC} *)

val call : Nectar_core.Ctx.t -> node -> dst:endpoint -> string -> string
(** Remote procedure call over the request-response protocol. *)

val call_result :
  Nectar_core.Ctx.t -> node -> dst:endpoint -> string ->
  (string, error) result
(** Like {!call} but returns transport failures as typed errors instead of
    raising. *)

val serve : node -> port:int -> (Nectar_core.Ctx.t -> string -> string) -> unit
(** Register an RPC service on [port].  On a CAB node the handler runs in
    the request-response server thread; on a host node requests are
    forwarded into host mailboxes and the handler runs in a host process
    (the paper's "invoke a service on the host by placing a request in a
    mailbox that is read by a host process"). *)

(** {1 Presentation layer}

    Marshaling that can run on either side of the host-CAB boundary — the
    paper's section 5.3 offload direction. *)

module Presentation = Presentation
