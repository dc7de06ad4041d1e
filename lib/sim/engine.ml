(* The event queue is the hottest data structure in the simulator: every
   sleep, DMA chunk, timer and process resumption passes through it.  It is
   therefore a hand-specialised binary min-heap rather than the generic
   [Nectar_util.Binary_heap]: ordering is two monomorphic int comparisons
   (time, then sequence number) inlined into the sift loops — no closure
   call, no polymorphic [compare] — and the run loop peeks and pops without
   allocating options.

   Cancellation is O(1): a cancelled event is only marked dead and popped
   (for free) when its time comes.  Workloads dominated by the
   schedule-then-cancel pattern (an RTO timer per message, almost always
   cancelled by the ack) would grow the heap without bound, so the heap
   compacts — filters the dead entries and re-heapifies in place — whenever
   dead entries outnumber live ones; each cancel pays O(1) amortised.  Each
   event carries a reference to the engine's dead-entry counter so that
   [cancel], which has no engine argument, can maintain it.

   Process switches are the other hot path: a simulated thread blocks and
   resumes constantly, so parking allocates nothing in the engine beyond
   the continuation block the runtime makes.  One effect handler serves
   every process of an engine (built in [create]) and its [Some] answer to
   [Block] is preallocated: it stores the continuation in the [running]
   process's own record, in place, with no option.  Process starts, yields
   and resumptions — events at the current instant that are never
   cancelled — skip the heap: they go to a FIFO ring of (seq, kind, proc)
   entries in three parallel arrays, two of them unboxed ints, whose
   labels are derived from the kind and the process.  Every ring entry is
   at [clock] and the ring is in seq order, so firing the ring head before
   the heap top exactly when the top is later, or equal in time with a
   larger seq, is (time, seq) order: the same firing order as one heap
   holding everything.  The proc array is never cleared on a take: a
   stale slot only keeps a small record alive until the ring wraps, and
   skipping that store saves a write barrier per switch. *)

(* [live] and [fn] are mutable for cancellation; [dead_cell] is the
   owning engine's dead-entry counter. *)
type event = {
  time : Sim_time.t;
  seq : int;
  label : string; (* diagnostic name, shown to tie-break policies *)
  mutable live : bool;
  mutable fn : unit -> unit;
  dead_cell : int ref; (* shared with the owning engine's queue *)
}

type candidate = { c_time : Sim_time.t; c_seq : int; c_label : string }
type tie_break = candidate array -> int

(* A process: its identity and its parking state.  The wake and yield
   labels and the sleep wake-up callback are built on first use ("" and
   [nothing] until then) and reused by every later sleep and yield.  [k]
   is the parked continuation ([never_parked] before the first parking);
   [parked] is set while [k] is waiting to be resumed.  [gen] numbers the
   parkings: a waker is good for the parking whose [gen] it carries, and
   every wake, sleep and yield moves [gen] on, so a second or stale wake
   is caught. *)
type proc = {
  pid : int;
  name : string;
  mutable body : unit -> unit; (* until the start entry fires *)
  mutable k : (unit, unit) Effect.Deep.continuation;
  mutable parked : bool;
  mutable gen : int;
  mutable wake_label : string;
  mutable wake_fn : unit -> unit;
  mutable yield_label : string;
}

type t = {
  mutable clock : Sim_time.t;
  mutable next_seq : int;
  mutable heap : event array;
  mutable size : int;
  dead : int ref; (* cancelled events still in the heap *)
  (* the same-instant lane: a ring of [ring_len] entries from [ring_head],
     in parallel arrays whose length is a power of two *)
  mutable ring_seq : int array;
  mutable ring_kind : int array; (* [kind_start | kind_yield | kind_resume] *)
  mutable ring_proc : proc array;
  mutable ring_head : int;
  mutable ring_len : int;
  mutable running : proc;
      (* the process currently executing, for context tracking by the vet
         checkers; [nobody] inside timer callbacks *)
  mutable tie_break : tie_break option;
      (* same-time scheduling policy; None = seq order (the contract) *)
  park : ((unit, unit) Effect.Deep.continuation -> unit) option;
      (* the handler's answer to [Block], built once *)
  handler : (unit, unit) Effect.Deep.handler; (* shared by every process *)
}

type waker = No_waker | Waker of { wp : proc; wgen : int }

(* Process ids are globally unique (not per engine) so checkers observing
   several engines in one program never see a collision.  Atomic because
   the parallel scheduler spawns processes from several domains at once;
   on the single-domain path the counter behaves exactly as the old ref
   (same values in the same order). *)
let pid_counter = Atomic.make 0

type timer = event

exception Process_failure of string * exn

let () =
  Printexc.register_printer (function
    | Process_failure (name, inner) ->
        Some
          (Printf.sprintf "Process_failure(%s, %s)" name
             (Printexc.to_string inner))
    | _ -> None)

let nothing () = ()

(* Placeholder for unused array slots; never scheduled, so its shared
   cells are inert. *)
let dummy_event =
  {
    time = 0;
    seq = 0;
    label = "";
    live = false;
    fn = nothing;
    dead_cell = ref 0;
  }

(* Start with room for 1k events (8 KB).  Any simulation that does work
   reaches hundreds of queued events immediately, and growing there through
   doubling would copy ~1k event pointers (each through the GC write
   barrier) — measurably slower than paying the allocation once. *)
let initial_capacity = 1024

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

let new_proc ~pid ~name body =
  {
    pid;
    name;
    body;
    k = never_parked;
    parked = false;
    gen = 0;
    wake_label = "";
    wake_fn = nothing;
    yield_label = "";
  }

(* [running] outside any process, and the filler of unused [ring_proc]
   slots.  Never parked, started or resumed ([self] refuses it), so one
   record serves every engine; and being global it is long promoted when a
   growing ring needs it ([Array.make] of a large array with a young
   filler forces a minor collection). *)
let nobody = new_proc ~pid:0 ~name:"" nothing

let push_ring t kind p =
  let cap = Array.length t.ring_seq in
  if t.ring_len = cap then begin
    let seqs = Array.make (2 * cap) 0 in
    let kinds = Array.make (2 * cap) 0 in
    let procs = Array.make (2 * cap) nobody in
    for j = 0 to cap - 1 do
      let i = (t.ring_head + j) land (cap - 1) in
      seqs.(j) <- t.ring_seq.(i);
      kinds.(j) <- t.ring_kind.(i);
      procs.(j) <- t.ring_proc.(i)
    done;
    t.ring_seq <- seqs;
    t.ring_kind <- kinds;
    t.ring_proc <- procs;
    t.ring_head <- 0
  end;
  let i = (t.ring_head + t.ring_len) land (Array.length t.ring_seq - 1) in
  Array.unsafe_set t.ring_seq i t.next_seq;
  Array.unsafe_set t.ring_kind i kind;
  Array.unsafe_set t.ring_proc i p;
  t.ring_len <- t.ring_len + 1;
  t.next_seq <- t.next_seq + 1

let ring_label kind p = if kind = kind_yield then p.yield_label else p.name

(* One slice of process [p]'s execution, [g a b]: its body up to the first
   parking, or one resumption up to the next.  [running] is [p] for its
   duration and [nobody] afterwards, however the slice ends. *)
let slice t p g a b =
  t.running <- p;
  match g a b with
  | () -> t.running <- nobody
  | exception e ->
      t.running <- nobody;
      raise e

let run_body f handler = Effect.Deep.match_with f () handler

(* Fire one lane entry: start [p]; take the yield step, which queues the
   resumption behind everything already at this instant; or continue its
   parked [k]. *)
let run_entry t kind p =
  if kind = kind_start then begin
    let f = p.body in
    p.body <- nothing;
    slice t p run_body f t.handler
  end
  else if kind = kind_yield then push_ring t kind_resume p
  else begin
    if not p.parked then
      failwith ("Engine: process " ^ p.name ^ " woken while not parked");
    p.parked <- false;
    slice t p Effect.Deep.continue p.k ()
  end

(* Dequeue the head entry and return its slot, which stays intact until a
   later push reuses it.  Caller guarantees ring_len > 0. *)
let take_ring t =
  let i = t.ring_head in
  t.ring_head <- (i + 1) land (Array.length t.ring_seq - 1);
  t.ring_len <- t.ring_len - 1;
  i

let fire_ring t =
  let i = take_ring t in
  run_entry t (Array.unsafe_get t.ring_kind i) (Array.unsafe_get t.ring_proc i)

let create () =
  let rec t =
    {
      clock = Sim_time.zero;
      next_seq = 0;
      heap = Array.make initial_capacity dummy_event;
      size = 0;
      dead = ref 0;
      ring_seq = Array.make initial_ring 0;
      ring_kind = Array.make initial_ring 0;
      ring_proc = Array.make initial_ring nobody;
      ring_head = 0;
      ring_len = 0;
      running = nobody;
      tie_break = None;
      park =
        Some
          (fun k ->
            let p = t.running in
            p.k <- k;
            p.parked <- true);
      handler =
        {
          Effect.Deep.retc = (fun () -> ());
          exnc = (fun e -> raise (Process_failure (t.running.name, e)));
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Block ->
                  (t.park
                    : ((a, unit) Effect.Deep.continuation -> unit) option)
              | _ -> None);
        };
    }
  in
  t

let set_tie_break t policy = t.tie_break <- policy

let now t = t.clock
let current_pid t = if t.running == nobody then None else Some t.running.pid

let current_process t =
  if t.running == nobody then None else Some t.running.name

(* [a] strictly before [b]: earlier time, or same time scheduled earlier. *)
let[@inline] before (a : event) (b : event) =
  a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* The sift loops below use unsafe indexing: every index is bounded by
   [size] (itself <= [Array.length heap]) or derives from a parent/child
   index of one that is. *)
let uget = Array.unsafe_get
let uset = Array.unsafe_set

let rec sift_up h i (ev : event) =
  if i = 0 then uset h 0 ev
  else
    let parent = (i - 1) / 2 in
    if before ev (uget h parent) then begin
      uset h i (uget h parent);
      sift_up h parent ev
    end
    else uset h i ev

let rec sift_down h size i (ev : event) =
  let l = (2 * i) + 1 in
  if l >= size then uset h i ev
  else begin
    let r = l + 1 in
    let c = if r < size && before (uget h r) (uget h l) then r else l in
    if before (uget h c) ev then begin
      uset h i (uget h c);
      sift_down h size c ev
    end
    else uset h i ev
  end

let push t ev =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let nh = Array.make (max 16 (cap * 2)) dummy_event in
    Array.blit t.heap 0 nh 0 t.size;
    t.heap <- nh
  end;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) ev

(* Caller guarantees size > 0.  Returns the root without (re)building any
   option.  Bottom-up deletion: walk the hole down the min-child path to a
   leaf (one comparison per level), then bubble the displaced last element
   back up (usually zero steps, since a heap's last element is
   leaf-large) — about half the comparisons of the textbook sift-down, and
   pops dominate the engine's profile.  (A variant keeping the (time, seq)
   keys in parallel unboxed int arrays was measured ~1.8x slower here:
   tripling the stores per sift level costs more than the saved pointer
   chases, since the event records are minor-heap-contiguous anyway.) *)
let pop_top t =
  let h = t.heap in
  let top = uget h 0 in
  let n = t.size - 1 in
  t.size <- n;
  let last = uget h n in
  uset h n dummy_event;
  if n > 0 then begin
    let i = ref 0 in
    let l = ref 1 in
    while !l < n do
      let r = !l + 1 in
      let c = if r < n && before (uget h r) (uget h !l) then r else !l in
      uset h !i (uget h c);
      i := c;
      l := (2 * c) + 1
    done;
    let j = ref !i in
    let stop = ref false in
    while (not !stop) && !j > 0 do
      let p = (!j - 1) / 2 in
      if before last (uget h p) then begin
        uset h !j (uget h p);
        j := p
      end
      else stop := true
    done;
    uset h !j last
  end;
  top

(* Filter out dead entries and re-heapify in place: O(live), run only when
   the dead outnumber the live, so each cancel costs O(1) amortised. *)
let compact t =
  let h = t.heap in
  let live = ref 0 in
  for i = 0 to t.size - 1 do
    if h.(i).live then begin
      h.(!live) <- h.(i);
      incr live
    end
  done;
  for i = !live to t.size - 1 do
    h.(i) <- dummy_event
  done;
  t.size <- !live;
  t.dead := 0;
  for i = (t.size / 2) - 1 downto 0 do
    let ev = h.(i) in
    sift_down h t.size i ev
  done

let compact_threshold = 64

let maybe_compact t =
  if !(t.dead) > t.size - !(t.dead) && t.size >= compact_threshold then
    compact t

(* Every heap event (timers, sleep wake-ups) is scheduled here; the
   internal callers all schedule at or after [t.clock], so only [at]
   validates the time.  Process starts, yields and resumptions take the
   same-instant lane ([push_ring]) instead. *)
let schedule t ~label time fn =
  let ev =
    { time; seq = t.next_seq; label; live = true; fn; dead_cell = t.dead }
  in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  maybe_compact t;
  ev

let at t ?(label = "") time fn =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d before now %d" time t.clock);
  schedule t ~label time fn

let after t ?label span fn = at t ?label (t.clock + span) fn

(* Never in any heap and never live: cancelling it is a no-op. *)
let inert_timer () =
  {
    time = 0;
    seq = -1;
    label = "";
    live = false;
    fn = nothing;
    dead_cell = ref 0;
  }

(* Any event with [live = true] is still in its engine's heap (the run loop
   marks an event dead before firing it), so a first cancel always accounts
   for one in-heap dead entry; later cancels and cancels of fired timers
   no-op. *)
let cancel ev =
  if ev.live then begin
    ev.live <- false;
    ev.fn <- nothing;
    incr ev.dead_cell
  end

let spawn t ?(name = "proc") f =
  let pid = 1 + Atomic.fetch_and_add pid_counter 1 in
  push_ring t kind_start (new_proc ~pid ~name f)

(* The calling process; parking outside one is a caller error. *)
let self t what =
  let p = t.running in
  if p == nobody then invalid_arg ("Engine." ^ what ^ ": not in a process");
  p

let waker t =
  let p = self t "waker" in
  Waker { wp = p; wgen = p.gen }

let no_waker = No_waker

let block t =
  ignore (self t "block");
  Effect.perform Block

let wake t = function
  | Waker { wp = p; wgen } ->
      if wgen <> p.gen then
        failwith ("Engine: double resume of process " ^ p.name);
      p.gen <- p.gen + 1;
      push_ring t kind_resume p
  | No_waker -> invalid_arg "Engine.wake: no process"

(* A sleep is two events, as a general parking would be: the wake-up timer
   (labelled "<name>.wake" so tie-break candidates and schedule
   counterexamples read as "consumer.wake" rather than "?") queues the
   resumption on the lane. *)
let sleep t span =
  if span < 0 then invalid_arg "Engine.sleep: negative span";
  if span > 0 then begin
    let p = self t "sleep" in
    if String.length p.wake_label = 0 then begin
      p.wake_label <- p.name ^ ".wake";
      p.wake_fn <- (fun () -> push_ring t kind_resume p)
    end;
    p.gen <- p.gen + 1;
    ignore (schedule t ~label:p.wake_label (t.clock + span) p.wake_fn);
    Effect.perform Block
  end

let yield t =
  let p = self t "yield" in
  if String.length p.yield_label = 0 then p.yield_label <- p.name ^ ".yield";
  p.gen <- p.gen + 1;
  push_ring t kind_yield p;
  Effect.perform Block

(* Policy-driven loop, used only when a tie-break policy is installed (the
   schedule explorer in [lib/check]).  Each step first moves the
   same-instant lane into the heap (as events with their original seqs and
   labels, so the heap alone holds the pending set), then pops the full set
   of live events sharing the minimal timestamp (they come off the heap in
   seq order), asks the policy which fires next when there is a real
   choice, and pushes the rest back.  O(k log n) extra work per event —
   irrelevant for the small scenarios the explorer drives, and the default
   loops below are untouched when no policy is installed. *)
let spill_ring t =
  while t.ring_len > 0 do
    let i = take_ring t in
    let kind = t.ring_kind.(i) and p = t.ring_proc.(i) in
    push t
      {
        time = t.clock;
        seq = t.ring_seq.(i);
        label = ring_label kind p;
        live = true;
        fn = (fun () -> run_entry t kind p);
        dead_cell = t.dead;
      }
  done

let run_policy t policy until =
  let continue_run = ref true in
  while !continue_run do
    spill_ring t;
    (* Drop dead entries off the top so emptiness and tmin are about live
       events only. *)
    while t.size > 0 && not t.heap.(0).live do
      ignore (pop_top t);
      decr t.dead
    done;
    if t.size = 0 then begin
      (match until with Some u when u > t.clock -> t.clock <- u | _ -> ());
      continue_run := false
    end
    else begin
      let tmin = t.heap.(0).time in
      match until with
      | Some u when tmin > u ->
          t.clock <- u;
          continue_run := false
      | _ ->
          let scratch = ref [] in
          let k = ref 0 in
          while t.size > 0 && t.heap.(0).time = tmin do
            let ev = pop_top t in
            if ev.live then begin
              scratch := ev :: !scratch;
              incr k
            end
            else decr t.dead
          done;
          let cands = Array.of_list (List.rev !scratch) in
          (* seq order: pop order at equal time *)
          let chosen =
            if !k = 1 then 0
            else begin
              let view =
                Array.map
                  (fun e ->
                    { c_time = e.time; c_seq = e.seq; c_label = e.label })
                  cands
              in
              let i = policy view in
              if i < 0 || i >= !k then
                invalid_arg
                  (Printf.sprintf
                     "Engine: tie-break policy chose %d of %d candidates" i !k);
              i
            end
          in
          (* Reinsert the losers before firing: the fired event may cancel
             or depend on them, and they keep their original seqs so the
             later relative order is preserved. *)
          Array.iteri (fun i e -> if i <> chosen then push t e) cands;
          let ev = cands.(chosen) in
          t.clock <- ev.time;
          ev.live <- false;
          ev.fn ()
    end
  done

(* The ring head (at [clock]) precedes the heap top: (time, seq) order.
   Caller guarantees ring_len > 0. *)
let[@inline] ring_first t =
  t.size = 0
  ||
  let top = uget t.heap 0 in
  top.time > t.clock || top.seq > Array.unsafe_get t.ring_seq t.ring_head

let[@inline] fire_top t =
  let ev = pop_top t in
  if ev.live then begin
    t.clock <- ev.time;
    ev.live <- false;
    ev.fn ()
  end
  else decr t.dead

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
            else if t.heap.(0).time > u then begin
              t.clock <- u;
              continue_run := false
            end
            else fire_top t
          done)

let pending_events t = t.size - !(t.dead) + t.ring_len
let queued_events t = t.size + t.ring_len

let register_metrics t m ~prefix =
  let open Nectar_util.Metrics in
  counter m (prefix ^ "pending_events") (fun () -> pending_events t);
  counter m (prefix ^ "queued_events") (fun () -> queued_events t)

(* Peek the earliest live event without firing it.  Dead entries on top
   of the heap are popped for free (exactly as the run loops would);
   amortised against the cancels that created them. *)
let next_event_time t =
  while t.size > 0 && not t.heap.(0).live do
    ignore (pop_top t);
    decr t.dead
  done;
  if t.ring_len > 0 then Some t.clock
  else if t.size = 0 then None
  else Some t.heap.(0).time

(* Order-independent digest of the live pending set: heap-array order is an
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
    let e = Array.unsafe_get t.heap i in
    if e.live then add e.time e.label
  done;
  let mask = Array.length t.ring_seq - 1 in
  for j = 0 to t.ring_len - 1 do
    let i = (t.ring_head + j) land mask in
    add t.clock (ring_label t.ring_kind.(i) t.ring_proc.(i))
  done;
  (!acc + (!count * 0x9e3779b97f4a7c1)) land max_int
