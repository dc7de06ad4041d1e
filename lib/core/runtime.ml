open Nectar_sim
open Nectar_cab

type t = {
  rcab : Cab.t;
  rheap : Buffer_heap.t;
  ports : (int, Mailbox.t) Hashtbl.t;
  opcodes : (int, Ctx.t -> param:int -> unit) Hashtbl.t;
  mutable host_notifier : (opcode:int -> param:int -> unit) option;
  mutable signal_fault : (unit -> bool) option;
  mutable signals_lost_count : int;
  host_notify_count : Stats.Counter.t;
  cab_signal_count : Stats.Counter.t;
}

let create cab =
  let mem = Memory.region (Cab.memory cab) in
  let rheap = Buffer_heap.create mem in
  if Vet_hook.installed () then
    Vet_hook.heap_attach ~heap:(Buffer_heap.uid rheap)
      ~name:("data-heap:" ^ Cab.name cab) ~mem;
  {
    rcab = cab;
    rheap;
    ports = Hashtbl.create 16;
    opcodes = Hashtbl.create 16;
    host_notifier = None;
    signal_fault = None;
    signals_lost_count = 0;
    host_notify_count = Stats.Counter.create ();
    cab_signal_count = Stats.Counter.create ();
  }

let cab t = t.rcab
let engine t = Cab.engine t.rcab
let heap t = t.rheap
let mem t = Memory.region (Cab.memory t.rcab)
let node_id t = Cab.node_id t.rcab

let spawn_thread t ?priority ~name body =
  Thread.create t.rcab ?priority ~name body

let create_mailbox t ~name ?port ?byte_limit ?capacity ?overflow
    ?cached_buffer_bytes ?upcall () =
  let mbox =
    Mailbox.create (engine t) ~heap:t.rheap ~name ?byte_limit
      ?capacity ?overflow ?cached_buffer_bytes ?upcall ()
  in
  (match port with
  | Some p ->
      if Hashtbl.mem t.ports p then
        invalid_arg
          (Printf.sprintf "Runtime: port %d already bound on %s" p
             (Cab.name t.rcab));
      Hashtbl.replace t.ports p mbox
  | None -> ());
  mbox

let mailbox_at t ~port = Hashtbl.find_opt t.ports port

let register_opcode t ~opcode fn =
  if Hashtbl.mem t.opcodes opcode then
    invalid_arg "Runtime.register_opcode: opcode already registered";
  Hashtbl.replace t.opcodes opcode fn

(* Opcodes handed out per runtime, lowest free first, so fixed opcodes
   registered on the same runtime (the host driver's RPC opcode) are
   stepped over and separate runtimes share no allocator state. *)
let first_dynamic_opcode = 100

let register_free_opcode t fn =
  let rec free op = if Hashtbl.mem t.opcodes op then free (op + 1) else op in
  let opcode = free first_dynamic_opcode in
  register_opcode t ~opcode fn;
  opcode

(* Both signal queues share one loss hook: the paper's host-CAB signal
   queues live in shared memory and an overrun loses elements in either
   direction.  A lost signal is counted and silently discarded — waiters
   recover on the next signal (or their own timeout), which is exactly the
   degradation the chaos campaigns exercise. *)
let signal_lost t =
  match t.signal_fault with
  | Some f when f () ->
      t.signals_lost_count <- t.signals_lost_count + 1;
      true
  | _ -> false

let post_to_cab t ~opcode ~param =
  Stats.Counter.incr t.cab_signal_count;
  match Hashtbl.find_opt t.opcodes opcode with
  | None -> invalid_arg "Runtime.post_to_cab: unregistered opcode"
  | Some fn ->
      if not (signal_lost t) then
        Interrupts.post (Cab.irq t.rcab) ~name:"cab-signal" (fun ictx ->
            let ctx = Ctx.of_interrupt ictx in
            ctx.work Costs.signal_queue_op_ns;
            fn ctx ~param)

let set_host_notifier t n = t.host_notifier <- n
let set_signal_fault t hook = t.signal_fault <- hook

let notify_host t ~opcode ~param =
  Stats.Counter.incr t.host_notify_count;
  match t.host_notifier with
  | Some fn -> if not (signal_lost t) then fn ~opcode ~param
  | None -> ()

let signals_lost t = t.signals_lost_count

let host_notifications t = Stats.Counter.value t.host_notify_count
let cab_signals t = Stats.Counter.value t.cab_signal_count
