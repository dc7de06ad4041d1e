(** Observation points in the CAB runtime for the vet checkers
    (see [Nectar_vet.Vet]).

    The runtime modules (locks, mailboxes, messages, the buffer heap) call
    these functions at every semantically interesting transition.  With no
    hook set installed each call is one reference load and a branch, so
    instrumented builds pay nothing until [Nectar_vet.Vet.install] runs.

    Payloads are primitive (ints, strings, [Ctx.t]) so this module sits
    below every instrumented module and none of them can form a dependency
    cycle through it.  Locks, messages and heaps are identified by unique
    integer ids minted at creation time. *)

type msg_event =
  | Begin_put of { heap : int; off : int; len : int; cached : bool }
      (** message allocated; [cached] when backed by the mailbox's cached
          buffer (the underlying heap block is then permanently live) *)
  | End_put
  | Abort_put
  | Dispose
  | Begin_get
  | End_get
  | Enqueue of { dst : string }  (** zero-copy move to mailbox [dst] *)

type hooks = {
  lock_attempt : Ctx.t -> lock:int -> name:string -> contended:bool -> unit;
      (** before acquiring; [contended] when the caller will wait *)
  lock_acquired : Ctx.t -> lock:int -> name:string -> unit;
  lock_released : Ctx.t -> lock:int -> name:string -> unit;
  cond_wait : Ctx.t -> cond:string -> lock:int -> lock_name:string -> unit;
      (** before parking on a condition variable (the named mutex is
          atomically released; re-acquisition reports [lock_acquired]) *)
  blocking : Ctx.t -> op:string -> unit;
      (** before parking on any other wait queue (mailbox space/data,
          sync read, thread join) *)
  msg_event : Ctx.t -> uid:int -> mailbox:string -> msg_event -> unit;
  msg_access : uid:int -> state:string -> op:string -> unit;
      (** a data accessor touched message [uid] while it is in [state] *)
  msg_retain : uid:int -> refs:int -> unit;
      (** message [uid]'s buffer gained a reference; [refs] is the count
          after the increment *)
  msg_release : uid:int -> refs:int -> live:bool -> unit;
      (** a reference was dropped; [refs] is the count after the decrement
          ([0] frees the buffer).  [live = false] means the message was
          already free and the release is an over-release (the decrement is
          then suppressed). *)
  slice_make : suid:int -> uid:int -> off:int -> len:int -> unit;
      (** slice [suid] was carved out of message [uid] at absolute buffer
          offset [off]; it holds one reference until released *)
  slice_release : suid:int -> live:bool -> unit;
      (** [live = false] means the slice was already released (double
          release; the underlying reference drop is then suppressed) *)
  slice_access : suid:int -> op:string -> unit;
      (** a data accessor touched slice [suid] after its release *)
  heap_attach : heap:int -> name:string -> mem:Nectar_util.Region.t -> unit;
      (** a heap was bound to a data-memory region (idempotent) *)
  heap_persistent : heap:int -> off:int -> unit;
      (** block at [off] is intentionally immortal (mailbox buffer cache) *)
  heap_alloc : heap:int -> off:int -> len:int -> unit;
  heap_free : heap:int -> off:int -> live:bool -> unit;
      (** [live = false] means the offset is not a live allocation and the
          heap is about to reject the free (double free) *)
}

val install : hooks -> unit
val uninstall : unit -> unit
val installed : unit -> bool

(** {1 Call sites} — one wrapper per hook, no-ops when nothing installed *)

val lock_attempt : Ctx.t -> lock:int -> name:string -> contended:bool -> unit
val lock_acquired : Ctx.t -> lock:int -> name:string -> unit
val lock_released : Ctx.t -> lock:int -> name:string -> unit
val cond_wait : Ctx.t -> cond:string -> lock:int -> lock_name:string -> unit
val blocking : Ctx.t -> op:string -> unit
val msg_event : Ctx.t -> uid:int -> mailbox:string -> msg_event -> unit
val msg_access : uid:int -> state:string -> op:string -> unit
val msg_retain : uid:int -> refs:int -> unit
val msg_release : uid:int -> refs:int -> live:bool -> unit
val slice_make : suid:int -> uid:int -> off:int -> len:int -> unit
val slice_release : suid:int -> live:bool -> unit
val slice_access : suid:int -> op:string -> unit

val heap_attach : heap:int -> name:string -> mem:Nectar_util.Region.t -> unit

val heap_persistent : heap:int -> off:int -> unit
val heap_alloc : heap:int -> off:int -> len:int -> unit
val heap_free : heap:int -> off:int -> live:bool -> unit
