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
   [cancel], which has no engine argument, can maintain it. *)

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

type t = {
  mutable clock : Sim_time.t;
  mutable next_seq : int;
  mutable heap : event array;
  mutable size : int;
  dead : int ref; (* cancelled events still in the heap *)
  mutable running : (int * string) option;
      (* (pid, name) of the process currently executing, for context
         tracking by the vet checkers; None inside timer callbacks *)
  mutable tie_break : tie_break option;
      (* same-time scheduling policy; None = seq order (the contract) *)
}

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

let create () =
  {
    clock = Sim_time.zero;
    next_seq = 0;
    heap = Array.make initial_capacity dummy_event;
    size = 0;
    dead = ref 0;
    running = None;
    tie_break = None;
  }

let set_tie_break t policy = t.tie_break <- policy

let now t = t.clock
let current_pid t = Option.map fst t.running
let current_process t = Option.map snd t.running

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

(* Every event (timers, sleep and yield wake-ups, process resumptions)
   is scheduled here; the internal callers all schedule at or after
   [t.clock], so only [at] validates the time. *)
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

(* Effect plumbing: a process performs [Suspend register]; the handler
   installed by [spawn] turns the continuation into a one-shot resume
   function that schedules an event on the engine. *)

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let suspend register = Effect.perform (Suspend register)

let spawn t ?(name = "proc") f =
  let pid = 1 + Atomic.fetch_and_add pid_counter 1 in
  (* Every slice of this process's execution (initial body, each resumption)
     runs with [t.running] set to its identity; suspension returns normally
     through the effect handler, so the finally always restores. *)
  let labelled g =
    let saved = t.running in
    t.running <- Some (pid, name);
    Fun.protect ~finally:(fun () -> t.running <- saved) g
  in
  let run_body () =
    let open Effect.Deep in
    labelled (fun () ->
        match_with f ()
          {
            retc = (fun () -> ());
            exnc = (fun e -> raise (Process_failure (name, e)));
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Suspend register ->
                    Some
                      (fun (k : (a, _) continuation) ->
                        let resumed = ref false in
                        let resume v =
                          if !resumed then
                            failwith
                              ("Engine: double resume of process " ^ name);
                          resumed := true;
                          ignore
                            (schedule t ~label:name t.clock (fun () ->
                                 labelled (fun () -> continue k v)))
                        in
                        register resume)
                | _ -> None);
          })
  in
  ignore (schedule t ~label:name t.clock run_body)

(* The wake-up timers get the process name as label (computed here, while
   [t.running] is still this process) so tie-break candidates and schedule
   counterexamples read as "consumer.wake" rather than "?". *)
let running_label t suffix =
  (match t.running with Some (_, n) -> n | None -> "") ^ suffix

let sleep t span =
  if span < 0 then invalid_arg "Engine.sleep: negative span";
  if span = 0 then ()
  else
    let label = running_label t ".wake" in
    suspend (fun resume ->
        ignore (schedule t ~label (t.clock + span) (fun () -> resume ())))

let yield t =
  let label = running_label t ".yield" in
  suspend (fun resume ->
      ignore (schedule t ~label t.clock (fun () -> resume ())))

(* Policy-driven loop, used only when a tie-break policy is installed (the
   schedule explorer in [lib/check]).  Each step pops the full set of live
   events sharing the minimal timestamp (they come off the heap in seq
   order), asks the policy which fires next when there is a real choice,
   and pushes the rest back.  O(k log n) extra work per event — irrelevant
   for the small scenarios the explorer drives, and the default loops below
   are untouched when no policy is installed. *)
let run_policy t policy until =
  let continue_run = ref true in
  while !continue_run do
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

let run ?until t =
  match t.tie_break with
  | Some policy -> run_policy t policy until
  | None -> (
      match until with
      | None ->
          (* Hot loop: no bound check beyond emptiness, no option, no limit
             comparison. *)
          while t.size > 0 do
            let ev = pop_top t in
            if ev.live then begin
              t.clock <- ev.time;
              ev.live <- false;
              ev.fn ()
            end
            else decr t.dead
          done
      | Some u ->
          let continue_run = ref true in
          while !continue_run do
            if t.size = 0 then begin
              if u > t.clock then t.clock <- u;
              continue_run := false
            end
            else if t.heap.(0).time > u then begin
              t.clock <- u;
              continue_run := false
            end
            else begin
              let ev = pop_top t in
              if ev.live then begin
                t.clock <- ev.time;
                ev.live <- false;
                ev.fn ()
              end
              else decr t.dead
            end
          done)

let pending_events t = t.size - !(t.dead)
let queued_events t = t.size

let register_metrics t m ~prefix =
  let open Nectar_util.Metrics in
  counter m (prefix ^ "pending_events") (fun () -> pending_events t);
  counter m (prefix ^ "queued_events") (fun () -> t.size)

(* Peek the earliest live event without firing it.  Dead entries on top
   of the heap are popped for free (exactly as the run loops would);
   amortised against the cancels that created them. *)
let next_event_time t =
  while t.size > 0 && not t.heap.(0).live do
    ignore (pop_top t);
    decr t.dead
  done;
  if t.size = 0 then None else Some t.heap.(0).time

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
  for i = 0 to t.size - 1 do
    let e = Array.unsafe_get t.heap i in
    if e.live then begin
      incr count;
      let h = (e.time * 0x9e3779b9) lxor fnv e.label in
      let h = h lxor (h lsr 29) in
      let h = h * 0xbf58476d1ce4e5b in
      acc := !acc + (h lxor (h lsr 32))
    end
  done;
  (!acc + (!count * 0x9e3779b97f4a7c1)) land max_int
