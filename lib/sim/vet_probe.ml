type hooks = {
  cpu_wait :
    cpu:string -> owner:string -> priority:int -> waited:Sim_time.span -> unit;
  interrupt_enter : pid:int -> name:string -> unit;
  interrupt_exit : pid:int -> unit;
  dma_read :
    frame:int -> region:Nectar_util.Region.t -> off:int -> len:int -> unit;
}

let hooks : hooks option ref = ref None
let install h = hooks := Some h
let uninstall () = hooks := None
let installed () = Option.is_some !hooks

let cpu_wait ~cpu ~owner ~priority ~waited =
  match !hooks with
  | None -> ()
  | Some h -> h.cpu_wait ~cpu ~owner ~priority ~waited

let interrupt_enter eng ~name =
  match !hooks with
  | None -> ()
  | Some h -> (
      match Engine.current_pid eng with
      | Some pid -> h.interrupt_enter ~pid ~name
      | None -> ())

let interrupt_exit eng =
  match !hooks with
  | None -> ()
  | Some h -> (
      match Engine.current_pid eng with
      | Some pid -> h.interrupt_exit ~pid
      | None -> ())

let dma_read ~frame ~region ~off ~len =
  match !hooks with
  | None -> ()
  | Some h -> h.dma_read ~frame ~region ~off ~len
