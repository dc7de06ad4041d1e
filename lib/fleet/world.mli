(** Stack-level worlds: the machine every stack-level experiment runs
    on — CABs seated on the ports of crossbar HUBs joined by trunks, one
    full protocol stack per CAB.  Campaigns, collectives, the CLI, the
    benches and the tests all build theirs here.

    Wire-level fleets with no stacks ({!Driver}) and bare-CAB worlds
    build their own networks. *)

type t = {
  eng : Nectar_sim.Engine.t;
  net : Nectar_hub.Network.t;
  stacks : Nectar_proto.Stack.t array;
      (** in seat order: stack [i] is network node [i], CAB ["cab-i"] *)
  mutable drivers : (int * Nectar_host.Cab_driver.t) list;
      (** stack index -> host driver, one per {!add_host} *)
}

val build :
  ?hubs:int ->
  ?trunks:Topology.trunk list ->
  ?seats:(int * int) list ->
  ?stack:(Nectar_core.Runtime.t -> Nectar_proto.Stack.t) ->
  unit ->
  t
(** A fresh engine and network of [hubs] HUBs (default 1) with every
    trunk wired, then one CAB plus stack per [(hub, port)] seat (default
    {!ports}[ 2]), each with the paper's 1 MB of data memory; [stack]
    builds each stack from its runtime (default [Stack.create rt ()]).
    @raise Invalid_argument for a trunk or seat on a hub or port out of
    range or already in use. *)

val ports : int -> (int * int) list
(** [n] seats on ports [0..n-1] of hub 0. *)

val add_host : t -> int -> Nectar_host.Cab_driver.t
(** Attach a host (["host-i"]) to the CAB of stack [i] over a VME
    driver, and record the driver in [drivers]. *)
