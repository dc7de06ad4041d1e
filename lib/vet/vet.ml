open Nectar_sim
module Ctx = Nectar_core.Ctx
module Vet_hook = Nectar_core.Vet_hook

type severity = Info | Warning | Error

type finding = { checker : string; severity : severity; message : string }

type config = {
  lock_order : bool;
  two_phase : bool;
  heap : bool;
  interrupt : bool;
  starvation : bool;
  starvation_limit : Sim_time.span;
  poison : bool;
  slices : bool;
}

let default_config =
  {
    lock_order = true;
    two_phase = true;
    heap = true;
    interrupt = true;
    starvation = true;
    starvation_limit = Sim_time.ms 50;
    poison = true;
    slices = true;
  }

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

(* ------------------------------------------------------------------ *)
(* Findings log                                                        *)

let max_findings = 500
let log : finding list ref = ref []
let log_count = ref 0
let seen : (string, unit) Hashtbl.t = Hashtbl.create 64

let emit checker severity message =
  let key = checker ^ "\x00" ^ severity_name severity ^ "\x00" ^ message in
  if not (Hashtbl.mem seen key) then begin
    Hashtbl.add seen key ();
    incr log_count;
    if !log_count <= max_findings then
      log := { checker; severity; message } :: !log
    else if !log_count = max_findings + 1 then
      log :=
        {
          checker = "vet";
          severity = Info;
          message = "finding limit reached; further findings suppressed";
        }
        :: !log
  end

let findings () = List.rev !log

let failures () =
  List.filter (fun f -> f.severity <> Info) (findings ())

let pp_finding fmt f =
  Format.fprintf fmt "[%s] %s: %s" (severity_name f.severity) f.checker
    f.message

let report () =
  findings ()
  |> List.map (fun f -> Format.asprintf "%a" pp_finding f)
  |> String.concat "\n"

(* ------------------------------------------------------------------ *)
(* Shared state                                                        *)

let cfg = ref default_config

let pid_of (ctx : Ctx.t) =
  match Engine.current_pid ctx.Ctx.eng with Some p -> p | None -> -1

(* interrupt checker: pids currently inside an interrupt handler body *)
let irq_pids : (int, string) Hashtbl.t = Hashtbl.create 8

let in_interrupt pid = Hashtbl.find_opt irq_pids pid

(* ------------------------------------------------------------------ *)
(* Lock-order checker                                                  *)

let checker_lock = "lock-order"

(* per-process stack of held locks, most recently acquired first *)
let held : (int, (int * string) list) Hashtbl.t = Hashtbl.create 16

(* held-while-acquiring graph: lock id -> successors *)
let lock_edges : (int, int list) Hashtbl.t = Hashtbl.create 16
let lock_names : (int, string) Hashtbl.t = Hashtbl.create 16
let reported_cycles : (int * int, unit) Hashtbl.t = Hashtbl.create 8

let lock_name l =
  match Hashtbl.find_opt lock_names l with
  | Some n -> Printf.sprintf "%s#%d" n l
  | None -> Printf.sprintf "lock#%d" l

let held_of pid = Option.value ~default:[] (Hashtbl.find_opt held pid)

(* path from [src] to [dst] in the edge graph, if any *)
let find_path ~src ~dst =
  let visited = Hashtbl.create 16 in
  let rec dfs node path =
    if node = dst then Some (List.rev (node :: path))
    else if Hashtbl.mem visited node then None
    else begin
      Hashtbl.add visited node ();
      let succs = Option.value ~default:[] (Hashtbl.find_opt lock_edges node) in
      List.fold_left
        (fun acc s ->
          match acc with Some _ -> acc | None -> dfs s (node :: path))
        None succs
    end
  in
  dfs src []

let add_lock_edge ~from ~to_ =
  let succs = Option.value ~default:[] (Hashtbl.find_opt lock_edges from) in
  if not (List.mem to_ succs) then begin
    Hashtbl.replace lock_edges from (to_ :: succs);
    (* a new edge from -> to_ closes a cycle iff to_ already reaches from *)
    match find_path ~src:to_ ~dst:from with
    | None -> ()
    | Some path ->
        if not (Hashtbl.mem reported_cycles (from, to_)) then begin
          Hashtbl.add reported_cycles (from, to_) ();
          let cycle = path @ [ to_ ] in
          emit checker_lock Error
            (Printf.sprintf
               "lock-order cycle (potential deadlock): %s"
               (String.concat " -> " (List.map lock_name cycle)))
        end
  end

let on_lock_attempt ctx ~lock ~name ~contended =
  if !cfg.interrupt && contended then
    match in_interrupt (pid_of ctx) with
    | Some hname ->
        emit "interrupt" Error
          (Printf.sprintf
             "contended acquire of mutex %s#%d from interrupt handler %s \
              (handlers must not wait)"
             name lock hname)
    | None -> ()

let on_lock_acquired ctx ~lock ~name =
  if !cfg.lock_order then begin
    Hashtbl.replace lock_names lock name;
    let pid = pid_of ctx in
    let stack = held_of pid in
    List.iter (fun (h, _) -> if h <> lock then add_lock_edge ~from:h ~to_:lock)
      stack;
    Hashtbl.replace held pid ((lock, name) :: stack)
  end

let on_lock_released ctx ~lock ~name:_ =
  if !cfg.lock_order then begin
    let pid = pid_of ctx in
    let rec drop = function
      | [] -> []
      | (l, _) :: rest when l = lock -> rest
      | e :: rest -> e :: drop rest
    in
    Hashtbl.replace held pid (drop (held_of pid))
  end

let on_cond_wait ctx ~cond ~lock ~lock_name:lname =
  let pid = pid_of ctx in
  if !cfg.interrupt then begin
    match in_interrupt pid with
    | Some hname ->
        emit "interrupt" Error
          (Printf.sprintf "Condvar.wait on %s from interrupt handler %s" cond
             hname)
    | None -> ()
  end;
  if !cfg.lock_order then begin
    (* the named mutex is atomically released while parked *)
    let rec drop = function
      | [] -> []
      | (l, _) :: rest when l = lock -> rest
      | e :: rest -> e :: drop rest
    in
    let rest = drop (held_of pid) in
    Hashtbl.replace held pid rest;
    match rest with
    | [] -> ()
    | others ->
        emit checker_lock Warning
          (Printf.sprintf
             "%s still held across Condvar.wait on %s (released only %s#%d); \
              waiters on those locks can deadlock"
             (String.concat ", "
                (List.map (fun (l, n) -> Printf.sprintf "%s#%d" n l) others))
             cond lname lock)
  end

let on_blocking ctx ~op =
  let pid = pid_of ctx in
  (if !cfg.interrupt then
     match in_interrupt pid with
     | Some hname ->
         emit "interrupt" Error
           (Printf.sprintf "blocking operation (%s) from interrupt handler %s"
              op hname)
     | None -> ());
  if !cfg.lock_order then
    match held_of pid with
    | [] -> ()
    | locks ->
        emit checker_lock Warning
          (Printf.sprintf "%s held across blocking operation (%s)"
             (String.concat ", "
                (List.map (fun (l, n) -> Printf.sprintf "%s#%d" n l) locks))
             op)

(* ------------------------------------------------------------------ *)
(* Two-phase mailbox protocol checker                                  *)

let checker_2p = "two-phase"

type msg_phase = P_writing | P_queued | P_reading | P_freed

let phase_name = function
  | P_writing -> "writing"
  | P_queued -> "queued"
  | P_reading -> "reading"
  | P_freed -> "freed"

type msg_rec = {
  muid : int;
  mutable mphase : msg_phase;
  mutable mmbox : string;  (* last mailbox seen for this message *)
  mbuf : (int * int) option;  (* (heap, off), None for cached buffers *)
  mutable mrefs : int;  (* buffer references (owner + slices + tx extents) *)
}

let msgs : (int, msg_rec) Hashtbl.t = Hashtbl.create 64

let msg_rec_of ~uid ~mailbox ~phase =
  match Hashtbl.find_opt msgs uid with
  | Some r ->
      if mailbox <> "" then r.mmbox <- mailbox;
      r
  | None ->
      (* first sighting (hooks installed mid-run): adopt silently *)
      let r =
        { muid = uid; mphase = phase; mmbox = mailbox; mbuf = None; mrefs = 1 }
      in
      Hashtbl.add msgs uid r;
      r

let msg_desc r =
  if r.mmbox = "" then Printf.sprintf "message#%d" r.muid
  else Printf.sprintf "message#%d (mailbox %s)" r.muid r.mmbox

let bad_transition r ~op ~expected =
  emit checker_2p Error
    (Printf.sprintf "%s on %s in state '%s' (expected %s)" op (msg_desc r)
       (phase_name r.mphase) expected)

let on_msg_event _ctx ~uid ~mailbox (ev : Vet_hook.msg_event) =
  if !cfg.two_phase then
    match ev with
    | Vet_hook.Begin_put { heap; off; cached; len = _ } ->
        Hashtbl.replace msgs uid
          {
            muid = uid;
            mphase = P_writing;
            mmbox = mailbox;
            mbuf = (if cached then None else Some (heap, off));
            mrefs = 1;
          }
    | Vet_hook.End_put ->
        let r = msg_rec_of ~uid ~mailbox ~phase:P_queued in
        if r.mphase <> P_writing then
          bad_transition r ~op:"end_put" ~expected:"writing"
        else r.mphase <- P_queued
    | Vet_hook.Abort_put ->
        let r = msg_rec_of ~uid ~mailbox ~phase:P_freed in
        if r.mphase <> P_writing then
          bad_transition r ~op:"abort_put" ~expected:"writing"
        else r.mphase <- P_freed
    | Vet_hook.Dispose ->
        let r = msg_rec_of ~uid ~mailbox ~phase:P_freed in
        (match r.mphase with
        | P_writing | P_reading -> r.mphase <- P_freed
        | P_freed ->
            emit checker_2p Error
              (Printf.sprintf "double dispose of %s" (msg_desc r))
        | P_queued ->
            bad_transition r ~op:"dispose" ~expected:"writing or reading")
    | Vet_hook.Begin_get ->
        let r = msg_rec_of ~uid ~mailbox ~phase:P_reading in
        if r.mphase <> P_queued then
          bad_transition r ~op:"begin_get" ~expected:"queued"
        else r.mphase <- P_reading
    | Vet_hook.End_get ->
        let r = msg_rec_of ~uid ~mailbox ~phase:P_freed in
        (match r.mphase with
        | P_reading -> r.mphase <- P_freed
        | P_freed ->
            emit checker_2p Error
              (Printf.sprintf
                 "end_get of %s that is already freed (double end_get or \
                  use after free)"
                 (msg_desc r))
        | _ -> bad_transition r ~op:"end_get" ~expected:"reading")
    | Vet_hook.Enqueue { dst } ->
        let r = msg_rec_of ~uid ~mailbox ~phase:P_queued in
        (match r.mphase with
        | P_writing | P_reading ->
            r.mphase <- P_queued;
            r.mmbox <- dst
        | _ -> bad_transition r ~op:"enqueue" ~expected:"writing or reading")

let on_msg_access ~uid ~state ~op =
  if !cfg.two_phase then
    let where =
      match Hashtbl.find_opt msgs uid with
      | Some r -> msg_desc r
      | None -> Printf.sprintf "message#%d" uid
    in
    if state = "queued" then
      emit checker_2p Error
        (Printf.sprintf
           "%s on %s after enqueue: the zero-copy path hands the buffer to \
            the receiver"
           op where)
    else
      emit checker_2p Error
        (Printf.sprintf "%s on %s after free" op where)

(* ------------------------------------------------------------------ *)
(* Slice / buffer-reference checker                                    *)

let checker_slice = "slice"

type slice_rec = {
  s_suid : int;
  s_msg : int;  (* uid of the message whose buffer it borrows *)
  s_off : int;
  s_len : int;
  mutable slive : bool;
}

let slices : (int, slice_rec) Hashtbl.t = Hashtbl.create 32

let slice_desc s =
  Printf.sprintf "slice#%d [%d,%d) of message#%d" s.s_suid s.s_off
    (s.s_off + s.s_len) s.s_msg

let on_msg_retain ~uid ~refs =
  if !cfg.slices then
    if refs <= 0 then
      emit checker_slice Error
        (Printf.sprintf
           "retain of message#%d after its buffer was freed (refcount %d)" uid
           refs)
    else begin
      (* adopt unseen messages in a neutral phase: retain says nothing about
         the two-phase state *)
      let r = msg_rec_of ~uid ~mailbox:"" ~phase:P_queued in
      r.mrefs <- refs
    end

let on_msg_release ~uid ~refs ~live =
  if !cfg.slices then
    if not live then
      emit checker_slice Error
        (Printf.sprintf
           "over-release of message#%d: more releases than retains (refcount \
            %d)"
           uid refs)
    else begin
      let r = msg_rec_of ~uid ~mailbox:"" ~phase:P_queued in
      r.mrefs <- refs
    end

let on_slice_make ~suid ~uid ~off ~len =
  if !cfg.slices then
    Hashtbl.replace slices suid
      { s_suid = suid; s_msg = uid; s_off = off; s_len = len; slive = true }

let on_slice_release ~suid ~live =
  if !cfg.slices then begin
    let desc =
      match Hashtbl.find_opt slices suid with
      | Some s -> slice_desc s
      | None -> Printf.sprintf "slice#%d" suid
    in
    if not live then
      emit checker_slice Error (Printf.sprintf "double release of %s" desc)
    else
      match Hashtbl.find_opt slices suid with
      | Some s -> s.slive <- false
      | None -> ()
  end

(* called by the runtime only on a violation (access on a released slice) *)
let on_slice_access ~suid ~op =
  if !cfg.slices then
    let desc =
      match Hashtbl.find_opt slices suid with
      | Some s -> slice_desc s
      | None -> Printf.sprintf "slice#%d" suid
    in
    emit checker_slice Error
      (Printf.sprintf "use after release: %s on released %s" op desc)

(* ------------------------------------------------------------------ *)
(* Buffer-heap sanitizer                                               *)

let checker_heap = "heap"
let poison_byte = '\xde'

type heap_rec = {
  hid : int;
  mutable hname : string;
  mutable hmem : Nectar_util.Region.t option;
      (* the region, never its bytes: the heap's growth replaces them *)
  hlive : (int, int) Hashtbl.t;  (* off -> len *)
  hquarantine : (int, int) Hashtbl.t;  (* freed & poisoned: off -> len *)
  hpersistent : (int, unit) Hashtbl.t;
}

let heaps : (int, heap_rec) Hashtbl.t = Hashtbl.create 8

let heap_rec_of hid =
  match Hashtbl.find_opt heaps hid with
  | Some h -> h
  | None ->
      let h =
        {
          hid;
          hname = Printf.sprintf "heap#%d" hid;
          hmem = None;
          hlive = Hashtbl.create 32;
          hquarantine = Hashtbl.create 32;
          hpersistent = Hashtbl.create 4;
        }
      in
      Hashtbl.add heaps hid h;
      h

let on_heap_attach ~heap ~name ~mem =
  if !cfg.heap then begin
    let h = heap_rec_of heap in
    (* keep the first real name: later attaches (one per mailbox sharing
       the heap) carry a generic label *)
    if h.hname = Printf.sprintf "heap#%d" heap then h.hname <- name;
    if h.hmem = None then h.hmem <- Some mem
  end

let on_heap_persistent ~heap ~off =
  if !cfg.heap then Hashtbl.replace (heap_rec_of heap).hpersistent off ()

(* first offset in [off, off+len) whose poison got overwritten, if any,
   with the overwriting byte (its value often identifies the writer) *)
let poison_damage region ~off ~len =
  let mem = Nectar_util.Region.bytes region in
  let rec scan i =
    if i >= off + len then None
    else if Bytes.get mem i <> poison_byte then
      Some (i, Char.code (Bytes.get mem i))
    else scan (i + 1)
  in
  scan off

let check_quarantine_range h ~off ~len ~when_ =
  match h.hmem with
  | None -> ()
  | Some mem ->
      Hashtbl.fold
        (fun qoff qlen acc ->
          let lo = max off qoff and hi = min (off + len) (qoff + qlen) in
          if lo < hi then (qoff, lo, hi) :: acc else acc)
        h.hquarantine []
      |> List.iter (fun (qoff, lo, hi) ->
             (match poison_damage mem ~off:lo ~len:(hi - lo) with
             | Some (bad, byte) ->
                 emit checker_heap Error
                   (Printf.sprintf
                      "use-after-free write in %s: freed block at %d was \
                       modified at offset %d (found byte 0x%02x, %s)"
                      h.hname qoff bad byte when_)
             | None -> ());
             Hashtbl.remove h.hquarantine qoff)

let on_heap_alloc ~heap ~off ~len =
  if !cfg.heap then begin
    let h = heap_rec_of heap in
    if !cfg.poison then
      check_quarantine_range h ~off ~len ~when_:"detected at reallocation";
    Hashtbl.replace h.hlive off len
  end

let on_heap_free ~heap ~off ~live =
  if !cfg.heap then begin
    let h = heap_rec_of heap in
    if not live then
      emit checker_heap Error
        (Printf.sprintf "double free in %s at offset %d" h.hname off)
    else begin
      let len =
        match Hashtbl.find_opt h.hlive off with Some l -> l | None -> 0
      in
      Hashtbl.remove h.hlive off;
      if !cfg.poison && len > 0 then begin
        (match h.hmem with
        | Some mem ->
            Bytes.fill (Nectar_util.Region.bytes mem) off len poison_byte
        | None -> ());
        Hashtbl.replace h.hquarantine off len
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Starvation watchdog                                                 *)

let checker_starve = "starvation"

(* "cpu/owner" -> longest observed ready-queue wait *)
let max_wait : (string, int) Hashtbl.t = Hashtbl.create 16

let on_cpu_wait ~cpu ~owner ~priority:_ ~waited =
  if !cfg.starvation && waited > 0 then begin
    let key = cpu ^ "/" ^ owner in
    let prev = Option.value ~default:0 (Hashtbl.find_opt max_wait key) in
    if waited > prev then Hashtbl.replace max_wait key waited
  end

(* ------------------------------------------------------------------ *)
(* Interrupt-context tracking                                          *)

let on_interrupt_enter ~pid ~name =
  if !cfg.interrupt then Hashtbl.replace irq_pids pid name

let on_interrupt_exit ~pid = Hashtbl.remove irq_pids pid

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let reset_state () =
  log := [];
  log_count := 0;
  Hashtbl.reset seen;
  Hashtbl.reset irq_pids;
  Hashtbl.reset held;
  Hashtbl.reset lock_edges;
  Hashtbl.reset lock_names;
  Hashtbl.reset reported_cycles;
  Hashtbl.reset msgs;
  Hashtbl.reset slices;
  Hashtbl.reset heaps;
  Hashtbl.reset max_wait

let install ?(config = default_config) () =
  reset_state ();
  cfg := config;
  Vet_hook.install
    {
      Vet_hook.lock_attempt = on_lock_attempt;
      lock_acquired = on_lock_acquired;
      lock_released = on_lock_released;
      cond_wait = on_cond_wait;
      blocking = on_blocking;
      msg_event = on_msg_event;
      msg_access = on_msg_access;
      msg_retain = on_msg_retain;
      msg_release = on_msg_release;
      slice_make = on_slice_make;
      slice_release = on_slice_release;
      slice_access = on_slice_access;
      heap_attach = on_heap_attach;
      heap_persistent = on_heap_persistent;
      heap_alloc = on_heap_alloc;
      heap_free = on_heap_free;
    };
  Vet_probe.install
    {
      Vet_probe.cpu_wait = on_cpu_wait;
      interrupt_enter = on_interrupt_enter;
      interrupt_exit = on_interrupt_exit;
    }

let uninstall () =
  Vet_hook.uninstall ();
  Vet_probe.uninstall ()

let teardown ?(quiesced = true) () =
  if !cfg.two_phase && quiesced then
    Hashtbl.iter
      (fun _ r ->
        match r.mphase with
        | P_writing ->
            emit checker_2p Error
              (Printf.sprintf
                 "leaked two-phase put: %s reached end of run still in the \
                  writing state (begin_put without end_put/abort_put)"
                 (msg_desc r))
        | P_reading ->
            emit checker_2p Error
              (Printf.sprintf
                 "%s reached end of run still held by a reader (begin_get \
                  without end_get)"
                 (msg_desc r))
        | P_queued | P_freed -> ())
      msgs;
  if !cfg.slices && quiesced then begin
    Hashtbl.iter
      (fun _ s ->
        if s.slive then
          emit checker_slice Error
            (Printf.sprintf "leaked slice: %s was never released"
               (slice_desc s)))
      slices;
    Hashtbl.iter
      (fun _ r ->
        if r.mphase = P_freed && r.mrefs > 0 then
          emit checker_slice Error
            (Printf.sprintf
               "leaked retain: %s was freed by its owner but %d buffer \
                reference(s) were never released"
               (msg_desc r) r.mrefs))
      msgs
  end;
  if !cfg.heap then begin
    (* poison sweep: freed ranges must still be intact even if never reused *)
    if !cfg.poison then
      Hashtbl.iter
        (fun _ h ->
          match h.hmem with
          | None -> ()
          | Some mem ->
              Hashtbl.iter
                (fun qoff qlen ->
                  match poison_damage mem ~off:qoff ~len:qlen with
                  | Some (bad, byte) ->
                      emit checker_heap Error
                        (Printf.sprintf
                           "use-after-free write in %s: freed block at %d \
                            was modified at offset %d (found byte 0x%02x, \
                            detected at teardown)"
                           h.hname qoff bad byte)
                  | None -> ())
                h.hquarantine)
        heaps;
    if quiesced then
      Hashtbl.iter
        (fun _ h ->
          let leaked =
            Hashtbl.fold
              (fun off _len acc ->
                if Hashtbl.mem h.hpersistent off then acc else off :: acc)
              h.hlive []
          in
          match List.length leaked with
          | 0 -> ()
          | n ->
              emit checker_heap Info
                (Printf.sprintf
                   "%s: %d block(s) still allocated at end of run" h.hname n))
        heaps
  end;
  if !cfg.starvation then
    Hashtbl.iter
      (fun key waited ->
        if waited > !cfg.starvation_limit then
          emit checker_starve Warning
            (Printf.sprintf
               "%s was runnable but waited %s for the CPU (limit %s)" key
               (Sim_time.to_string waited)
               (Sim_time.to_string !cfg.starvation_limit)))
      max_wait

let run ?config ?(quiesced = true) f =
  install ?config ();
  let result = match f () with v -> Ok v | exception e -> Result.Error e in
  (match result with
  | Ok _ -> teardown ~quiesced ()
  | Result.Error _ -> teardown ~quiesced:false ());
  uninstall ();
  (result, findings ())
