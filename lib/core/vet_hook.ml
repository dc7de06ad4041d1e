type msg_event =
  | Begin_put of { heap : int; off : int; len : int; cached : bool }
  | End_put
  | Abort_put
  | Dispose
  | Begin_get
  | End_get
  | Enqueue of { dst : string }

type hooks = {
  lock_attempt : Ctx.t -> lock:int -> name:string -> contended:bool -> unit;
  lock_acquired : Ctx.t -> lock:int -> name:string -> unit;
  lock_released : Ctx.t -> lock:int -> name:string -> unit;
  cond_wait : Ctx.t -> cond:string -> lock:int -> lock_name:string -> unit;
  blocking : Ctx.t -> op:string -> unit;
  msg_event : Ctx.t -> uid:int -> mailbox:string -> msg_event -> unit;
  msg_access : uid:int -> state:string -> op:string -> unit;
  msg_retain : uid:int -> refs:int -> unit;
  msg_release : uid:int -> refs:int -> live:bool -> unit;
  slice_make : suid:int -> uid:int -> off:int -> len:int -> unit;
  slice_release : suid:int -> live:bool -> unit;
  slice_access : suid:int -> op:string -> unit;
  heap_attach : heap:int -> name:string -> mem:Nectar_util.Region.t -> unit;
  heap_persistent : heap:int -> off:int -> unit;
  heap_alloc : heap:int -> off:int -> len:int -> unit;
  heap_free : heap:int -> off:int -> live:bool -> unit;
}

let hooks : hooks option ref = ref None
let install h = hooks := Some h
let uninstall () = hooks := None
let installed () = !hooks <> None

let lock_attempt ctx ~lock ~name ~contended =
  match !hooks with
  | None -> ()
  | Some h -> h.lock_attempt ctx ~lock ~name ~contended

let lock_acquired ctx ~lock ~name =
  match !hooks with None -> () | Some h -> h.lock_acquired ctx ~lock ~name

let lock_released ctx ~lock ~name =
  match !hooks with None -> () | Some h -> h.lock_released ctx ~lock ~name

let cond_wait ctx ~cond ~lock ~lock_name =
  match !hooks with
  | None -> ()
  | Some h -> h.cond_wait ctx ~cond ~lock ~lock_name

let blocking ctx ~op =
  match !hooks with None -> () | Some h -> h.blocking ctx ~op

let msg_event ctx ~uid ~mailbox ev =
  match !hooks with None -> () | Some h -> h.msg_event ctx ~uid ~mailbox ev

let msg_access ~uid ~state ~op =
  match !hooks with None -> () | Some h -> h.msg_access ~uid ~state ~op

let msg_retain ~uid ~refs =
  match !hooks with None -> () | Some h -> h.msg_retain ~uid ~refs

let msg_release ~uid ~refs ~live =
  match !hooks with None -> () | Some h -> h.msg_release ~uid ~refs ~live

let slice_make ~suid ~uid ~off ~len =
  match !hooks with None -> () | Some h -> h.slice_make ~suid ~uid ~off ~len

let slice_release ~suid ~live =
  match !hooks with None -> () | Some h -> h.slice_release ~suid ~live

let slice_access ~suid ~op =
  match !hooks with None -> () | Some h -> h.slice_access ~suid ~op

let heap_attach ~heap ~name ~mem =
  match !hooks with
  | None -> ()
  | Some h -> h.heap_attach ~heap ~name ~mem

let heap_persistent ~heap ~off =
  match !hooks with None -> () | Some h -> h.heap_persistent ~heap ~off

let heap_alloc ~heap ~off ~len =
  match !hooks with None -> () | Some h -> h.heap_alloc ~heap ~off ~len

let heap_free ~heap ~off ~live =
  match !hooks with None -> () | Some h -> h.heap_free ~heap ~off ~live
