(** Host-process access to CAB mailboxes (paper §3.3).

    Host processes build and consume messages *in place* in mapped CAB
    memory: data moves as VME word traffic and control operations come in
    two implementations, selectable per mailbox exactly as in the paper:

    - {!Shared_memory}: the host manipulates the mailbox structures
      directly over VME.  Valid when, per side, the readers (resp.
      writers) all live on one processor; when the readers are CAB threads
      the host's [end_put] still crosses the CAB signal queue so a CAB
      thread can be woken (Figure 6's sending side).
    - {!Rpc}: every control operation is shipped to the CAB over the
      simple host-to-CAB RPC — about half the speed (the §3.3 factor of
      two, measured in the ablation bench).

    Blocking: [begin_get] waits by *polling* (no system call); the
    [`Block] variant sleeps in the driver and is woken by an interrupt. *)

type mode = Shared_memory | Rpc

type handle

val attach :
  Cab_driver.t ->
  Nectar_core.Mailbox.t ->
  mode:mode ->
  readers:[ `Cab | `Host ] ->
  handle

val begin_put : Nectar_core.Ctx.t -> handle -> int -> Nectar_core.Message.t

val write_string :
  Nectar_core.Ctx.t -> handle -> Nectar_core.Message.t -> pos:int -> string ->
  unit
(** Fill message contents over VME (1 us per word). *)

val end_put : Nectar_core.Ctx.t -> handle -> Nectar_core.Message.t -> unit

val begin_get :
  ?wait:[ `Poll | `Block ] ->
  Nectar_core.Ctx.t ->
  handle ->
  Nectar_core.Message.t

val read_string :
  Nectar_core.Ctx.t -> handle -> Nectar_core.Message.t -> string
(** Consume message contents over VME. *)

val end_get : Nectar_core.Ctx.t -> handle -> Nectar_core.Message.t -> unit
