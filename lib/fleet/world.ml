open Nectar_core
open Nectar_proto
module Net = Nectar_hub.Network
module Cab_driver = Nectar_host.Cab_driver

type t = {
  eng : Nectar_sim.Engine.t;
  net : Net.t;
  stacks : Stack.t array;
  mutable drivers : (int * Cab_driver.t) list;
}

let ports n = List.init n (fun i -> (0, i))

(* Trunks go in before seats, so the network's own port checks reject a
   seat on a trunk port as well as a duplicate or out-of-range seat. *)
let build ?(hubs = 1) ?(trunks = []) ?(seats = ports 2)
    ?(stack = fun rt -> Stack.create rt ()) () =
  let eng = Nectar_sim.Engine.create () in
  let net = Net.create eng ~hubs () in
  List.iter (fun (a, b) -> Net.connect_hubs net a b) trunks;
  let stacks =
    Array.of_list
      (List.mapi
         (fun i (hub, port) ->
           stack
             (Runtime.create
                (Nectar_cab.Cab.create net ~hub ~port
                   ~name:(Printf.sprintf "cab-%d" i))))
         seats)
  in
  { eng; net; stacks; drivers = [] }

let add_host w i =
  let host = Nectar_host.Host.create w.eng ~name:(Printf.sprintf "host-%d" i) in
  let drv = Cab_driver.attach host w.stacks.(i).Stack.rt in
  w.drivers <- (i, drv) :: w.drivers;
  drv
