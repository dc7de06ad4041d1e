(* The event queue is the hottest data structure in the simulator: every
   sleep, DMA chunk, timer and process resumption passes through it.  It is
   therefore a hand-specialised binary min-heap, and it holds no per-event
   record.

   The heap is three [int array]s indexed by heap position: time, seq and
   the event's slot.  Ordering is two monomorphic int comparisons (time,
   then sequence number) inlined into the sift loops, and a sift moves only
   ints: no write barrier, no pointer chase per comparison.  The callback
   and label live in slot-indexed arrays, written once when the event is
   scheduled; the slot's heap position lives in a third, so any event can
   be found in O(1) and removed in O(log n).  Free slots form a stack
   threaded through that position array, above a high-water mark.  All
   the arrays start at 16 entries and double together: set-up builds many
   small engines, and pre-sizing them measured slower there.  (An earlier
   note here measured parallel key arrays ~1.8x slower than an array of
   event records; that variant reached the arrays through [let uget =
   Array.unsafe_get] aliases, which compile to a generic call per access.
   Typed [external]s below compile to single loads and stores, and with
   them this layout measured faster than the record heap.)

   A timer handle is an immediate int naming the slot and the event's seq,
   so scheduling allocates nothing beyond the caller's closure and storing
   a handle costs no write barrier.  A handle is live while its slot still
   holds that seq at a heap position; cancelling a fired, cancelled, inert
   or reused-slot handle is therefore a no-op.  Cancellation is eager: the
   heap holds live events only, so it never grows past the pending set.

   Process switches are the other hot path: a simulated thread blocks and
   resumes constantly, so a process is a slot too.  A slot keeps one
   record for the engine's lifetime: the first [spawn] into a slot stores
   it in a slot-indexed [procs] array, every later [spawn] there refills
   it in place (pid, name, first generation, body), and the handler's
   [retc] frees the slot.  A waker is an immediate: the slot and a
   generation.  Generations come from one engine-wide counter and are
   never reused; [p_gen] holds the current parking's, and every wake,
   sleep and yield takes a fresh one, so a second wake, a stale waker, or
   a waker of a finished process whose slot now holds another process all
   fail the check.  [running] is the executing process's slot.  One
   effect handler serves every process of an engine (built in [create])
   and its [Some] answer to [Block] is preallocated: it stores the
   continuation in the running process's own record, in place, with no
   option.  Process starts, yields and resumptions — events at the
   current instant that are never cancelled — skip the heap: they go to a
   FIFO ring of (seq, kind, slot) entries in three [int array]s; a resume
   entry's kind carries the process's pid, so an entry outliving its
   process never resumes the slot's next one.  Every ring entry is at
   [clock] and the ring is in seq order, so firing the ring head before
   the heap top exactly when the top is later, or equal in time with a
   larger seq, is (time, seq) order: the same firing order as one heap
   holding everything.  A sleep's wake-up is a heap event whose callback
   is the engine's one [wake_sleeper]; the sleeper's slot sits beside it
   in the slot-indexed [s_proc], and the run loop names the firing slot
   in [firing].  Labels of process events ("<name>", "<name>.yield",
   "<name>.wake") are derived from the kind and the process only when a
   tie-break policy or [pending_digest] reads them.  So spawning into a
   used slot allocates nothing beyond the body, a park, a wake, a sleep
   and a lane entry store no pointer, and the park handler's [k] store is
   the one left per switch. *)

type candidate = { c_time : Sim_time.t; c_seq : int; c_label : string }
type tie_break = candidate array -> int

(* A process slot's record: the identity of the process it holds now and
   that process's parking state.  [spawn] refills it for each process
   that takes the slot.  [k] is the parked continuation ([never_parked]
   before the slot's first parking; a finished process's stays, never
   resumed); [parked] is set while [k] is waiting to be resumed.
   [first_gen] is the generation the process was spawned with: a waker
   of its slot with an older one belonged to an earlier process. *)
type proc = {
  mutable pid : int;
  mutable name : string;
  mutable first_gen : int;
  mutable body : unit -> unit; (* until the start entry fires *)
  mutable k : (unit, unit) Effect.Deep.continuation;
  mutable parked : bool;
}

type t = {
  mutable clock : Sim_time.t;
  mutable next_seq : int;
  (* the timer heap, by position: [size] events keyed (time, seq) *)
  mutable h_time : int array;
  mutable h_seq : int array;
  mutable h_slot : int array;
  mutable size : int;
  (* by slot: callback, label (diagnostic, shown to tie-break policies) and
     heap position; a free slot's position cell links to the next free
     slot *)
  mutable s_fn : (unit -> unit) array;
  mutable s_label : string array;
  mutable s_pos : int array;
  mutable s_proc : int array;
      (* the process slot a [wake_sleeper] event resumes; stale otherwise *)
  mutable free : int; (* top of the free-slot stack; -1 = empty *)
  mutable used : int; (* high-water mark: slots below it were handed out *)
  (* processes, by slot: the record, and the current parking's generation
     (>= 0); a free slot's generation cell holds [-2 - next free slot] *)
  mutable procs : proc array;
  mutable p_gen : int array;
  mutable p_free : int; (* top of the free process-slot stack; -1 = empty *)
  mutable p_used : int; (* high-water mark of process slots *)
  mutable next_gen : int;
  (* the same-instant lane: a ring of [ring_len] entries from [ring_head],
     in parallel arrays whose length is a power of two *)
  mutable ring_seq : int array;
  mutable ring_kind : int array;
      (* [kind_start | kind_yield], or [kind_resume] tagged with the pid *)
  mutable ring_slot : int array;
  mutable ring_head : int;
  mutable ring_len : int;
  mutable running : int;
      (* the slot of the process currently executing, for parking and for
         context tracking by the vet checkers; -1 inside timer callbacks *)
  mutable firing : int; (* the slot of the heap event being fired *)
  mutable tie_break : tie_break option;
      (* same-time scheduling policy; None = seq order (the contract) *)
  park : ((unit, unit) Effect.Deep.continuation -> unit) option;
      (* the handler's answer to [Block], built once *)
  handler : (unit, unit) Effect.Deep.handler; (* shared by every process *)
  wake_sleeper : unit -> unit;
      (* every sleep's wake-up: resumes the [s_proc] of the [firing] slot *)
}

(* Generation [lsl slot_bits] slot; [no_waker] is negative. *)
type waker = int

(* Process ids are globally unique (not per engine) so checkers observing
   several engines in one program never see a collision.  Atomic because
   the parallel scheduler spawns processes from several domains at once;
   on the single-domain path the counter behaves exactly as the old ref
   (same values in the same order). *)
let pid_counter = Atomic.make 0

type timer = int

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let[@inline] handle seq slot = (seq lsl slot_bits) lor slot

exception Process_failure of string * exn

let () =
  Printexc.register_printer (function
    | Process_failure (name, inner) ->
        Some
          (Printf.sprintf "Process_failure(%s, %s)" name
             (Printexc.to_string inner))
    | _ -> None)

let nothing () = ()

(* Every heap and slot array starts this small and doubles. *)
let initial_capacity = 16

(* The ring rarely holds more than a few entries per runnable process, and
   set-up builds many small engines, so it starts small. *)
let initial_ring = 16

(* Effect plumbing: a parking process performs [Block]; the engine's
   handler stores the continuation in the process record.  Whoever holds
   the process's waker later queues a resume entry on the same-instant
   lane, and the run loop continues [k] from there. *)

type _ Effect.t += Block : unit Effect.t

(* The [k] of a process that has not parked yet: a real continuation,
   captured once at start-up and never resumed ([parked] guards every
   resumption). *)
let never_parked : (unit, unit) Effect.Deep.continuation =
  let captured : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Block
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Block ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  captured := Some k)
          | _ -> None);
    };
  Option.get !captured

let kind_start = 0
let kind_yield = 1
let kind_resume = 2

(* A resume entry's kind: the pid names the process it is for. *)
let[@inline] resume_kind p = (p.pid lsl 2) lor kind_resume

let new_proc ~pid ~name ~gen body =
  { pid; name; first_gen = gen; body; k = never_parked; parked = false }

(* The filler of unused [procs] slots.  Never parked, started, resumed or
   refilled (a slot gets its own record when first handed out), so one
   record serves every engine; and being global it is long
   promoted when a growing array needs it ([Array.make] of a large array
   with a young filler forces a minor collection). *)
let nobody = new_proc ~pid:0 ~name:"" ~gen:(-1) nothing

(* Unchecked int-array access.  Every index is bounded by a size, a
   high-water mark or a ring mask (each <= its array's length) or derives
   from a parent/child index of one that is.  Typed externals, not [let]
   aliases of [Array.unsafe_get]: an alias is a generic call per
   access. *)
external iget : int array -> int -> int = "%array_unsafe_get"
external iset : int array -> int -> int -> unit = "%array_unsafe_set"

let[@inline] proc t slot = Array.unsafe_get t.procs slot

let push_ring t kind slot =
  let cap = Array.length t.ring_seq in
  if t.ring_len = cap then begin
    let seqs = Array.make (2 * cap) 0 in
    let kinds = Array.make (2 * cap) 0 in
    let slots = Array.make (2 * cap) 0 in
    for j = 0 to cap - 1 do
      let i = (t.ring_head + j) land (cap - 1) in
      seqs.(j) <- t.ring_seq.(i);
      kinds.(j) <- t.ring_kind.(i);
      slots.(j) <- t.ring_slot.(i)
    done;
    t.ring_seq <- seqs;
    t.ring_kind <- kinds;
    t.ring_slot <- slots;
    t.ring_head <- 0
  end;
  let i = (t.ring_head + t.ring_len) land (Array.length t.ring_seq - 1) in
  iset t.ring_seq i t.next_seq;
  iset t.ring_kind i kind;
  iset t.ring_slot i slot;
  t.ring_len <- t.ring_len + 1;
  t.next_seq <- t.next_seq + 1

(* Labels are built only here, for tie-break policies and digests. *)
let ring_label t kind slot =
  let p = proc t slot in
  if kind = kind_yield then p.name ^ ".yield" else p.name

(* One slice of the process in [slot]: its body up to the first parking,
   or one resumption up to the next.  [running] is [slot] for its
   duration and -1 afterwards, however the slice ends.  Two bodies rather
   than one taking the step as a function: a generic step costs an
   indirect call per slice. *)
let start_slice t slot p =
  let f = p.body in
  p.body <- nothing;
  t.running <- slot;
  match Effect.Deep.match_with f () t.handler with
  | () -> t.running <- -1
  | exception e ->
      t.running <- -1;
      raise e

let resume_slice t slot p =
  t.running <- slot;
  match Effect.Deep.continue p.k () with
  | () -> t.running <- -1
  | exception e ->
      t.running <- -1;
      raise e

(* Fire one lane entry: start the process; take the yield step, which
   queues the resumption behind everything already at this instant; or
   continue its parked [k]. *)
let run_entry t kind slot =
  let p = proc t slot in
  if kind = kind_start then start_slice t slot p
  else if kind = kind_yield then push_ring t (resume_kind p) slot
  else begin
    if kind lsr 2 <> p.pid then
      failwith
        (Printf.sprintf "Engine: process #%d woken after it finished"
           (kind lsr 2));
    if not p.parked then
      failwith ("Engine: process " ^ p.name ^ " woken while not parked");
    p.parked <- false;
    resume_slice t slot p
  end

(* Dequeue the head entry and return its index, which stays intact until
   a later push reuses it.  Caller guarantees ring_len > 0. *)
let take_ring t =
  let i = t.ring_head in
  t.ring_head <- (i + 1) land (Array.length t.ring_seq - 1);
  t.ring_len <- t.ring_len - 1;
  i

let fire_ring t =
  let i = take_ring t in
  run_entry t (iget t.ring_kind i) (iget t.ring_slot i)

(* A finished (or failed) process gives its slot back.  Its record stays
   in [procs] until the slot is reused; the free link in [p_gen] is
   negative, so no waker of it matches any more. *)
let free_proc t slot =
  iset t.p_gen slot (-2 - t.p_free);
  t.p_free <- slot

let create () =
  let rec t =
    {
      clock = Sim_time.zero;
      next_seq = 0;
      h_time = Array.make initial_capacity 0;
      h_seq = Array.make initial_capacity 0;
      h_slot = Array.make initial_capacity 0;
      size = 0;
      s_fn = Array.make initial_capacity nothing;
      s_label = Array.make initial_capacity "";
      s_pos = Array.make initial_capacity 0;
      s_proc = Array.make initial_capacity 0;
      free = -1;
      used = 0;
      procs = Array.make initial_capacity nobody;
      p_gen = Array.make initial_capacity 0;
      p_free = -1;
      p_used = 0;
      next_gen = 0;
      ring_seq = Array.make initial_ring 0;
      ring_kind = Array.make initial_ring 0;
      ring_slot = Array.make initial_ring 0;
      ring_head = 0;
      ring_len = 0;
      running = -1;
      firing = -1;
      tie_break = None;
      park =
        Some
          (fun k ->
            let p = proc t t.running in
            p.k <- k;
            p.parked <- true);
      handler =
        {
          Effect.Deep.retc = (fun () -> free_proc t t.running);
          exnc =
            (fun e ->
              let slot = t.running in
              free_proc t slot;
              raise (Process_failure ((proc t slot).name, e)));
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Block ->
                  (t.park
                    : ((a, unit) Effect.Deep.continuation -> unit) option)
              | _ -> None);
        };
      wake_sleeper =
        (fun () ->
          let slot = iget t.s_proc t.firing in
          push_ring t (resume_kind (proc t slot)) slot);
    }
  in
  t

let set_tie_break t policy = t.tie_break <- policy

let now t = t.clock
let current_pid t =
  if t.running < 0 then None else Some (proc t t.running).pid

(* (t1, s1) strictly before (t2, s2): earlier time, or same time scheduled
   earlier.  Annotated: an unannotated comparison is polymorphic, and
   inlining does not specialise it. *)
let[@inline] before (t1 : int) (s1 : int) (t2 : int) (s2 : int) =
  t1 < t2 || (t1 = t2 && s1 < s2)

let[@inline] place t i time seq slot =
  iset t.h_time i time;
  iset t.h_seq i seq;
  iset t.h_slot i slot;
  iset t.s_pos slot i

let[@inline] move t ~src ~dst =
  place t dst (iget t.h_time src) (iget t.h_seq src) (iget t.h_slot src)

(* Fill the hole at position [i] with (time, seq, slot), moving it up past
   every later parent. *)
let rec sift_up t i time seq slot =
  if i = 0 then place t 0 time seq slot
  else
    let p = (i - 1) / 2 in
    if before time seq (iget t.h_time p) (iget t.h_seq p) then begin
      move t ~src:p ~dst:i;
      sift_up t p time seq slot
    end
    else place t i time seq slot

let insert t time seq slot =
  let i = t.size in
  t.size <- i + 1;
  sift_up t i time seq slot

(* Remove the event at position [i].  Bottom-up deletion: walk the hole
   down the min-child path to a leaf (one comparison per level), then
   bubble the displaced last event up from there (usually zero steps,
   since a heap's last event is leaf-large; it may rise past [i] when [i]
   is not the root) — about half the comparisons of the textbook
   sift-down, and pops dominate the engine's profile. *)
let remove_at t i =
  let n = t.size - 1 in
  t.size <- n;
  if i < n then begin
    let hole = ref i in
    let l = ref ((2 * i) + 1) in
    while !l < n do
      let r = !l + 1 in
      let c =
        if
          r < n
          && before (iget t.h_time r) (iget t.h_seq r) (iget t.h_time !l)
               (iget t.h_seq !l)
        then r
        else !l
      in
      move t ~src:c ~dst:!hole;
      hole := c;
      l := (2 * c) + 1
    done;
    sift_up t !hole (iget t.h_time n) (iget t.h_seq n) (iget t.h_slot n)
  end

let grow t =
  let cap = Array.length t.h_time in
  if cap > slot_mask then failwith "Engine: too many pending events";
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.h_time <- extend t.h_time 0;
  t.h_seq <- extend t.h_seq 0;
  t.h_slot <- extend t.h_slot 0;
  t.s_fn <- extend t.s_fn nothing;
  t.s_label <- extend t.s_label "";
  t.s_pos <- extend t.s_pos 0;
  t.s_proc <- extend t.s_proc 0

(* Queue [fn] at (time, seq) in a fresh slot; returns its handle.  Every
   live slot holds a heap event, so a full heap means no free slot. *)
let add t ~label time seq fn =
  if t.size = Array.length t.h_time then grow t;
  let slot =
    if t.free >= 0 then begin
      let s = t.free in
      t.free <- iget t.s_pos s;
      s
    end
    else begin
      let s = t.used in
      t.used <- s + 1;
      s
    end
  in
  (* a freed slot keeps its callback and label, often the very ones
     rescheduled into it (a sleeper's wake-up, a CPU's completion, [""]):
     skip those stores' barriers *)
  if Array.unsafe_get t.s_fn slot != fn then Array.unsafe_set t.s_fn slot fn;
  if Array.unsafe_get t.s_label slot != label then
    Array.unsafe_set t.s_label slot label;
  insert t time seq slot;
  handle seq slot

(* The slot's event has left the heap: stack the slot.  Its callback and
   label stay until reuse; clearing them would cost a barrier per event,
   and the free stack hands the most recently freed slots out first. *)
let[@inline] free_slot t slot =
  iset t.s_pos slot t.free;
  t.free <- slot

(* Every heap event (timers, sleep wake-ups) is scheduled here; the
   internal callers all schedule at or after [t.clock], so only [at]
   validates the time.  Process starts, yields and resumptions take the
   same-instant lane ([push_ring]) instead. *)
let schedule t ~label time fn =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  add t ~label time seq fn

let at t ?(label = "") time fn =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d before now %d" time t.clock);
  schedule t ~label time fn

let after t ?label span fn = at t ?label (t.clock + span) fn

(* The label of the heap event in [slot]: a sleep's wake-up is labelled
   "<name>.wake" (so tie-break candidates and schedule counterexamples
   read as "consumer.wake" rather than "?"), built on demand. *)
let event_label t slot =
  if Array.unsafe_get t.s_fn slot == t.wake_sleeper then
    (proc t (iget t.s_proc slot)).name ^ ".wake"
  else Array.unsafe_get t.s_label slot

(* Its slot is out of range or its seq never comes: cancelling is a
   no-op. *)
let inert_timer = -1

(* A live handle is the handle of the event at its slot's heap position;
   a seq names one event for the engine's lifetime, so no fired,
   cancelled or reused-slot handle passes the check.  (A free slot's
   position cell holds a stack link, hence the range test.) *)
let cancel t tm =
  let slot = tm land slot_mask in
  if slot < t.used then begin
    let pos = iget t.s_pos slot in
    if
      pos >= 0 && pos < t.size
      && handle (iget t.h_seq pos) (iget t.h_slot pos) = tm
    then begin
      remove_at t pos;
      free_slot t slot
    end
  end

let[@inline] fresh_gen t =
  let g = t.next_gen in
  t.next_gen <- g + 1;
  g

(* A slot above the high-water mark, growing the process arrays. *)
let fresh_proc_slot t =
  let cap = Array.length t.procs in
  if t.p_used = cap then begin
    if cap > slot_mask then failwith "Engine: too many processes";
    let procs = Array.make (2 * cap) nobody in
    let gens = Array.make (2 * cap) 0 in
    Array.blit t.procs 0 procs 0 cap;
    Array.blit t.p_gen 0 gens 0 cap;
    t.procs <- procs;
    t.p_gen <- gens
  end;
  let s = t.p_used in
  t.p_used <- s + 1;
  s

(* A slot from the free stack refills the record its last process left
   there; a fresh slot gets its record, the one it keeps.  A finished
   process's [parked] is already false; clearing it keeps that an
   invariant of this function rather than of every exit path. *)
let spawn t ?(name = "proc") body =
  let pid = 1 + Atomic.fetch_and_add pid_counter 1 in
  let gen = fresh_gen t in
  let slot =
    let s = t.p_free in
    if s >= 0 then begin
      t.p_free <- -2 - iget t.p_gen s;
      let p = proc t s in
      p.pid <- pid;
      if p.name != name then p.name <- name;
      p.first_gen <- gen;
      p.body <- body;
      p.parked <- false;
      s
    end
    else begin
      let s = fresh_proc_slot t in
      Array.unsafe_set t.procs s (new_proc ~pid ~name ~gen body);
      s
    end
  in
  iset t.p_gen slot gen;
  push_ring t kind_start slot

(* The calling process's slot; parking outside one is a caller error. *)
let self t what =
  let slot = t.running in
  if slot < 0 then invalid_arg ("Engine." ^ what ^ ": not in a process");
  slot

let waker t =
  let slot = self t "waker" in
  (iget t.p_gen slot lsl slot_bits) lor slot

let no_waker = -1

let block t =
  ignore (self t "block");
  Effect.perform Block

(* [w] is not the current parking of a live process of [t]: name the
   process when the waker is still its own. *)
let stale_wake t w =
  let slot = w land slot_mask in
  let who =
    if slot < t.p_used && w lsr slot_bits >= (proc t slot).first_gen then
      "process " ^ (proc t slot).name
    else "a finished process"
  in
  failwith ("Engine: double resume of " ^ who)

let wake t w =
  if w < 0 then invalid_arg "Engine.wake: no process";
  let slot = w land slot_mask in
  if slot >= t.p_used || iget t.p_gen slot <> w lsr slot_bits then
    stale_wake t w;
  iset t.p_gen slot (fresh_gen t);
  push_ring t (resume_kind (proc t slot)) slot

(* A sleep is two events, as a general parking would be: the wake-up timer
   ([wake_sleeper], with the sleeper's slot beside it in [s_proc]) queues
   the resumption on the lane.  Neither allocates. *)
let sleep t span =
  if span < 0 then invalid_arg "Engine.sleep: negative span";
  if span > 0 then begin
    let slot = self t "sleep" in
    iset t.p_gen slot (fresh_gen t);
    let tm = schedule t ~label:"" (t.clock + span) t.wake_sleeper in
    iset t.s_proc (tm land slot_mask) slot;
    Effect.perform Block
  end

let yield t =
  let slot = self t "yield" in
  iset t.p_gen slot (fresh_gen t);
  push_ring t kind_yield slot;
  Effect.perform Block

(* Policy-driven loop, used only when a tie-break policy is installed (the
   schedule explorer in [lib/check]).  Each step first moves the
   same-instant lane into the heap (as events with their original seqs and
   labels, so the heap alone holds the pending set), then pops the full set
   of events sharing the minimal timestamp (they come off the heap in seq
   order, keeping their slots), asks the policy which fires next when
   there is a real choice, and puts the rest back.  O(k log n) extra work
   per event — irrelevant for the small scenarios the explorer drives, and
   the default loops below are untouched when no policy is installed. *)
let spill_ring t =
  while t.ring_len > 0 do
    let i = take_ring t in
    let kind = t.ring_kind.(i) and slot = t.ring_slot.(i) in
    ignore
      (add t ~label:(ring_label t kind slot) t.clock t.ring_seq.(i) (fun () ->
           run_entry t kind slot))
  done

let run_policy t policy until =
  let continue_run = ref true in
  while !continue_run do
    spill_ring t;
    if t.size = 0 then begin
      (match until with Some u when u > t.clock -> t.clock <- u | _ -> ());
      continue_run := false
    end
    else begin
      let tmin = t.h_time.(0) in
      match until with
      | Some u when tmin > u ->
          t.clock <- u;
          continue_run := false
      | _ ->
          let scratch = ref [] in
          while t.size > 0 && t.h_time.(0) = tmin do
            scratch := (t.h_seq.(0), t.h_slot.(0)) :: !scratch;
            remove_at t 0
          done;
          (* seq order: pop order at equal time *)
          let cands = Array.of_list (List.rev !scratch) in
          let k = Array.length cands in
          let chosen =
            if k = 1 then 0
            else begin
              let view =
                Array.map
                  (fun (seq, slot) ->
                    { c_time = tmin; c_seq = seq; c_label = event_label t slot })
                  cands
              in
              let i = policy view in
              if i < 0 || i >= k then
                invalid_arg
                  (Printf.sprintf
                     "Engine: tie-break policy chose %d of %d candidates" i k);
              i
            end
          in
          (* Reinsert the losers before firing, in their own slots with
             their original seqs: the fired event may cancel or depend on
             them, their handles stay good, and the later relative order is
             preserved. *)
          Array.iteri
            (fun i (seq, slot) -> if i <> chosen then insert t tmin seq slot)
            cands;
          let slot = snd cands.(chosen) in
          let fn = t.s_fn.(slot) in
          t.clock <- tmin;
          free_slot t slot;
          t.firing <- slot;
          fn ()
    end
  done

(* The ring head (at [clock]) precedes the heap top: (time, seq) order.
   Caller guarantees ring_len > 0. *)
let[@inline] ring_first t =
  t.size = 0
  || iget t.h_time 0 > t.clock
  || iget t.h_seq 0 > iget t.ring_seq t.ring_head

let[@inline] fire_top t =
  let slot = iget t.h_slot 0 in
  let fn = Array.unsafe_get t.s_fn slot in
  t.clock <- iget t.h_time 0;
  remove_at t 0;
  free_slot t slot;
  t.firing <- slot;
  fn ()

let run ?until t =
  match t.tie_break with
  | Some policy -> run_policy t policy until
  | None -> (
      match until with
      | None ->
          (* Hot loop: no bound check beyond emptiness, no option, no limit
             comparison. *)
          while t.size > 0 || t.ring_len > 0 do
            if t.ring_len > 0 && ring_first t then fire_ring t
            else fire_top t
          done
      | Some u ->
          let continue_run = ref true in
          while !continue_run do
            if t.ring_len > 0 && ring_first t then begin
              (* the lane is at [clock]; an [until] already behind the
                 clock leaves it there *)
              if t.clock > u then continue_run := false else fire_ring t
            end
            else if t.size = 0 then begin
              if u > t.clock then t.clock <- u;
              continue_run := false
            end
            else if t.h_time.(0) > u then begin
              t.clock <- u;
              continue_run := false
            end
            else fire_top t
          done)

let pending_events t = t.size + t.ring_len

let register_metrics t m ~prefix =
  Nectar_util.Metrics.counter m (prefix ^ "pending_events") (fun () ->
      pending_events t)

let next_event_time t =
  if t.ring_len > 0 then Some t.clock
  else if t.size = 0 then None
  else Some t.h_time.(0)

(* Order-independent digest of the pending set: heap-array order is an
   implementation accident, so per-event hashes are combined with addition.
   Event seqs are deliberately excluded — two runs that reach the same
   semantic state through commuting reorderings number their events
   differently, and the explorer wants those states to collide. *)
let pending_digest t =
  let fnv s =
    let h = ref 0x4bf29ce484222325 in
    String.iter
      (fun c -> h := (!h lxor Char.code c) * 0x100000001b3)
      s;
    !h
  in
  let acc = ref 0 in
  let count = ref 0 in
  let add time label =
    incr count;
    let h = (time * 0x9e3779b9) lxor fnv label in
    let h = h lxor (h lsr 29) in
    let h = h * 0xbf58476d1ce4e5b in
    acc := !acc + (h lxor (h lsr 32))
  in
  for i = 0 to t.size - 1 do
    add t.h_time.(i) (event_label t t.h_slot.(i))
  done;
  let mask = Array.length t.ring_seq - 1 in
  for j = 0 to t.ring_len - 1 do
    let i = (t.ring_head + j) land mask in
    add t.clock (ring_label t t.ring_kind.(i) t.ring_slot.(i))
  done;
  (!acc + (!count * 0x9e3779b97f4a7c1)) land max_int
