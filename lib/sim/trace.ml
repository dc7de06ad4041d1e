type kind = Span_begin | Span_end | Instant

type event = {
  time : Sim_time.t;
  kind : kind;
  id : int;
  label : string;
  track : string;
}

(* One preallocated slot array per field: recording writes four cells and
   never allocates, so an enabled tracer perturbs wall clock as little as
   possible (and simulated time not at all). *)
type t = {
  eng : Engine.t;
  cap : int;
  times : int array;
  kinds : int array; (* 0 = begin, 1 = end, 2 = instant *)
  ids : int array;
  labels : string array;
  tracks : string array;
  mutable written : int; (* monotonic; slot = written mod cap *)
  mutable next_id : int;
}

let create ?(capacity = 65536) eng =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  {
    eng;
    cap = capacity;
    times = Array.make capacity 0;
    kinds = Array.make capacity 0;
    ids = Array.make capacity 0;
    labels = Array.make capacity "";
    tracks = Array.make capacity "";
    written = 0;
    next_id = 1;
  }

(* Domain-local: each domain of the parallel engine installs its own
   tracer over its own engine, so recording never crosses domains (and
   never needs a lock).  [installs] counts the domains with a tracer
   installed: while it reads 0 the recording calls return before the DLS
   lookup, one atomic load and no allocation (pinned by the zero-alloc
   test, which also runs inside a spawned domain). *)
let current : t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let installs = Atomic.make 0

let installed () = Option.is_some (Domain.DLS.get current)

let install t =
  if not (installed ()) then Atomic.incr installs;
  Domain.DLS.set current (Some t)

let uninstall () =
  if installed () then Atomic.decr installs;
  Domain.DLS.set current None

let record t ~kind ~id ~label ~track =
  let slot = t.written mod t.cap in
  t.times.(slot) <- Engine.now t.eng;
  t.kinds.(slot) <- kind;
  t.ids.(slot) <- id;
  t.labels.(slot) <- label;
  t.tracks.(slot) <- track;
  t.written <- t.written + 1

let span_begin ~track label =
  if Atomic.get installs = 0 then 0
  else
    match Domain.DLS.get current with
    | None -> 0
    | Some t ->
        let id = t.next_id in
        t.next_id <- id + 1;
        record t ~kind:0 ~id ~label ~track;
        id

let span_end id =
  if id > 0 then
    match Domain.DLS.get current with
    | None -> ()
    | Some t -> record t ~kind:1 ~id ~label:"" ~track:""

let instant ~track label =
  if Atomic.get installs > 0 then
    match Domain.DLS.get current with
    | None -> ()
    | Some t -> record t ~kind:2 ~id:0 ~label ~track

let recorded t = t.written
let dropped t = if t.written <= t.cap then 0 else t.written - t.cap

let clear t =
  t.written <- 0;
  t.next_id <- 1

let fold_events t f acc =
  let first = if t.written <= t.cap then 0 else t.written - t.cap in
  let acc = ref acc in
  for i = first to t.written - 1 do
    let slot = i mod t.cap in
    acc :=
      f !acc
        {
          time = t.times.(slot);
          kind =
            (match t.kinds.(slot) with
            | 0 -> Span_begin
            | 1 -> Span_end
            | _ -> Instant);
          id = t.ids.(slot);
          label = t.labels.(slot);
          track = t.tracks.(slot);
        }
  done;
  !acc

let events t = List.rev (fold_events t (fun acc e -> e :: acc) [])

(* Merge per-domain rings into one timeline: stable sort on time only,
   over the concatenation in tracer order, so same-time events keep
   (tracer, recording) order — the same (time, partition, index) merge
   rule the parallel scheduler applies to messages. *)
let merged ts =
  List.stable_sort
    (fun a b -> Int.compare a.time b.time)
    (List.concat_map events ts)

let occurrences t label =
  List.rev
    (fold_events t
       (fun acc e ->
         if e.label = label && e.kind <> Span_end then e.time :: acc else acc)
       [])

type span = {
  s_label : string;
  s_track : string;
  s_begin : Sim_time.t;
  s_end : Sim_time.t;
}

let spans t =
  (* match ends to begins by id; emit in begin order *)
  let open_spans = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun e ->
      match e.kind with
      | Span_begin ->
          Hashtbl.replace open_spans e.id e;
          order := e.id :: !order
      | Span_end -> (
          match Hashtbl.find_opt open_spans e.id with
          | Some b ->
              Hashtbl.replace open_spans e.id
                { b with kind = Span_end; time = b.time };
              (* stash the end time alongside: reuse the id table with a
                 second table to keep [event] immutable *)
              Hashtbl.replace open_spans (-e.id) { e with label = b.label }
          | None -> () (* begin dropped by ring overflow *))
      | Instant -> ())
    (events t);
  List.rev !order
  |> List.filter_map (fun id ->
         match
           (Hashtbl.find_opt open_spans id, Hashtbl.find_opt open_spans (-id))
         with
         | Some b, Some e ->
             Some
               {
                 s_label = b.label;
                 s_track = b.track;
                 s_begin = b.time;
                 s_end = e.time;
               }
         | _ -> None)

let rollup t =
  let table = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let count, total =
        Option.value (Hashtbl.find_opt table s.s_label) ~default:(0, 0)
      in
      Hashtbl.replace table s.s_label
        (count + 1, total + (s.s_end - s.s_begin)))
    (spans t);
  Hashtbl.fold (fun label (count, total) acc -> (label, count, total) :: acc)
    table []
  |> List.sort (fun (la, _, ta) (lb, _, tb) ->
         if ta <> tb then Int.compare tb ta else String.compare la lb)
