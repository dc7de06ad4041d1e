open Nectar_sim

type t = {
  eng : Engine.t;
  cpu : Cpu.t;
  dispatch_ns : int;
  priority : int;
  serial : Resource.t; (* handlers run to completion, one at a time *)
  iname : string;
  count : Stats.Counter.t;
  coalesced_count : Stats.Counter.t;
  pending : (string, unit) Hashtbl.t; (* latched keys (see post_coalesced) *)
  irq_owner : Cpu.owner;
  mutable labels : (string * string) list;
      (* handler name -> its process name, built on the first post *)
}

type ctx = t

let create eng cpu ?(dispatch_ns = Costs.irq_dispatch_ns)
    ?(priority = Costs.prio_interrupt) ~name () =
  {
    eng;
    cpu;
    dispatch_ns;
    priority;
    serial = Resource.create eng ~name:(name ^ ".irq-serial") ();
    iname = name;
    count = Stats.Counter.create ();
    coalesced_count = Stats.Counter.create ();
    pending = Hashtbl.create 8;
    (* The dispatch cost is charged explicitly, so the owner itself has no
       switch-in cost; transparency means returning from an interrupt does
       not re-charge the interrupted thread's context switch. *)
    irq_owner = Cpu.owner ~transparent:true cpu ~name:(name ^ ".irq") ~switch_in:0;
    labels = [];
  }

let work t span =
  Cpu.consume t.cpu t.irq_owner ~priority:t.priority ~atomic:true span

(* A CAB posts a handful of distinct handler names, so a short list beats
   a hash table. *)
let label t name =
  let rec find = function
    | (n, l) :: rest -> if String.equal n name then l else find rest
    | [] ->
        let l = t.iname ^ ".irq." ^ name in
        t.labels <- (name, l) :: t.labels;
        l
  in
  find t.labels

let post t ~name fn =
  Stats.Counter.incr t.count;
  Engine.spawn t.eng ~name:(label t name) (fun () ->
      Resource.with_held t.serial (fun () ->
          (* span covers dispatch + handler: interrupt entry to exit *)
          let tid = Trace.span_begin ~track:(Cpu.owner_name t.irq_owner) name in
          work t t.dispatch_ns;
          (if Vet_probe.installed () then begin
             Vet_probe.interrupt_enter t.eng ~name:(t.iname ^ "." ^ name);
             Fun.protect
               ~finally:(fun () -> Vet_probe.interrupt_exit t.eng)
               (fun () -> fn t)
           end
           else fn t);
          Trace.span_end tid))

(* Level-triggered posting: a key already latched (posted, handler not yet
   entered) absorbs repeat posts — the hardware line stays asserted, the
   CPU takes one interrupt.  The collective completion path relies on this
   for its single end-of-operation host wakeup: however many signals race
   toward "operation complete", exactly one handler dispatch (and so one
   host notification) results per key. *)
let post_coalesced t ~key ~name fn =
  if Hashtbl.mem t.pending key then Stats.Counter.incr t.coalesced_count
  else begin
    Hashtbl.replace t.pending key ();
    post t ~name (fun ictx ->
        Hashtbl.remove t.pending key;
        fn ictx)
  end

let posted t = Stats.Counter.value t.count
let coalesced t = Stats.Counter.value t.coalesced_count
let ctx_engine (t : ctx) = t.eng
