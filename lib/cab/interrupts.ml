open Nectar_sim

type t = {
  eng : Engine.t;
  cpu : Cpu.t;
  dispatch_ns : int;
  priority : int;
  serial : Resource.t; (* handlers run to completion, one at a time *)
  iname : string;
  mutable coalesced_count : int;
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
    serial = Resource.create eng ();
    iname = name;
    coalesced_count = 0;
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
let rec find_label t name = function
  | (n, l) :: rest -> if String.equal n name then l else find_label t name rest
  | [] ->
      let l = t.iname ^ ".irq." ^ name in
      t.labels <- (name, l) :: t.labels;
      l

let label t name = find_label t name t.labels

let run_handler t ~name handler arg =
  (* span covers dispatch + handler: interrupt entry to exit *)
  let tid = Trace.span_begin ~track:(Cpu.owner_name t.irq_owner) name in
  work t t.dispatch_ns;
  (if Vet_probe.installed () then begin
     Vet_probe.interrupt_enter t.eng ~name:(t.iname ^ "." ^ name);
     Fun.protect
       ~finally:(fun () -> Vet_probe.interrupt_exit t.eng)
       (fun () -> handler t arg)
   end
   else handler t arg);
  Trace.span_end tid

(* The body of one posted interrupt's process: [Resource.with_held]
   inlined, so nothing but the process's own closure is built per post. *)
let serve t name handler arg =
  Resource.acquire t.serial;
  match run_handler t ~name handler arg with
  | () -> Resource.release t.serial
  | exception e ->
      Resource.release t.serial;
      raise e

let post_with t ~name handler arg =
  Engine.spawn t.eng ~name:(label t name) (fun () -> serve t name handler arg)

let apply ctx fn = fn ctx
let post t ~name fn = post_with t ~name apply fn

(* Level-triggered posting: a key already latched (posted, handler not yet
   entered) absorbs repeat posts — the hardware line stays asserted, the
   CPU takes one interrupt.  The collective completion path relies on this
   for its single end-of-operation host wakeup: however many signals race
   toward "operation complete", exactly one handler dispatch (and so one
   host notification) results per key. *)
let post_coalesced t ~key ~name fn =
  if Hashtbl.mem t.pending key then t.coalesced_count <- t.coalesced_count + 1
  else begin
    Hashtbl.replace t.pending key ();
    post t ~name (fun ictx ->
        Hashtbl.remove t.pending key;
        fn ictx)
  end

let coalesced t = t.coalesced_count
let ctx (t : t) : ctx = t
let ctx_engine (t : ctx) = t.eng
