(* Per-layer readings taken from outside the library: self time per span
   label from a Trace ring, and layer counters summed over every CAB of a
   world.  Nothing here changes what the layers do; it only reads the
   spans and counters they already emit. *)

open Nectar_sim
module Metrics = Nectar_util.Metrics

(* ---------- span self time ---------- *)

type open_span = {
  label : string;
  b : int;
  e : int;
  mutable covered : int;  (* union of direct children's time so far *)
  mutable cursor : int;  (* end of the covered prefix *)
}

(* Self time per label, in simulated ns: a span's duration minus the
   part of it that child spans on the same track cover.  Spans on one
   track nest (one CPU, one bus, one host); a span with the same label
   as the enclosing one is a concurrent instance of the same stage (the
   shared "net" track carries every in-flight frame's "wire" span), not
   a callee, so it is not subtracted. *)
let self_ns (spans : Trace.span list) =
  let by_track = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      let l = Option.value (Hashtbl.find_opt by_track s.s_track) ~default:[] in
      Hashtbl.replace by_track s.s_track (s :: l))
    spans;
  let out = Hashtbl.create 32 in
  let close o =
    let prev = Option.value (Hashtbl.find_opt out o.label) ~default:0 in
    Hashtbl.replace out o.label (prev + (o.e - o.b - o.covered))
  in
  Hashtbl.iter
    (fun _ l ->
      let a = Array.of_list l in
      Array.stable_sort
        (fun (x : Trace.span) (y : Trace.span) ->
          if x.s_begin <> y.s_begin then Int.compare x.s_begin y.s_begin
          else Int.compare y.s_end x.s_end)
        a;
      let stack = ref [] in
      Array.iter
        (fun (s : Trace.span) ->
          let rec pop () =
            match !stack with
            | o :: rest when o.e <= s.s_begin ->
                close o;
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | o :: _ when o.label <> s.s_label ->
              let lo = max s.s_begin o.cursor and hi = min s.s_end o.e in
              if hi > lo then begin
                o.covered <- o.covered + (hi - lo);
                o.cursor <- hi
              end
          | _ -> ());
          stack :=
            { label = s.s_label; b = s.s_begin; e = s.s_end; covered = 0;
              cursor = s.s_begin }
            :: !stack)
        a;
      List.iter close !stack)
    by_track;
  out

(* Server-side RPC time: from the request-response layer's "rpc.serve"
   instant to the begin of the next "dl.tx" span on the same CAB track,
   i.e. the reply leaving the server's datalink.  Returns total ns. *)
let serve_ns (events : Trace.event list) =
  let pending = Hashtbl.create 8 in
  let total = ref 0 in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.kind with
      | Trace.Instant when ev.label = "rpc.serve" ->
          Hashtbl.replace pending ev.track ev.time
      | Trace.Span_begin when ev.label = "dl.tx" -> (
          match Hashtbl.find_opt pending ev.track with
          | Some t0 ->
              total := !total + (ev.time - t0);
              Hashtbl.remove pending ev.track
          | None -> ())
      | _ -> ())
    events;
  !total

(* ---------- counters ---------- *)

(* Sum every registered counter over its owner: "cab3.dl.frames_out" and
   "cab7.dl.frames_out" both land on "dl.frames_out".  Registrations are
   made with an owner prefix ending at the first dot.  Gauges are left
   out: they are levels, not counts, and the float ones would not
   subtract exactly. *)
let sum_by_layer reg =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun (name, v) ->
      let key =
        match String.index_opt name '.' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      match v with
      | Metrics.Count n ->
          let prev = Option.value (Hashtbl.find_opt tbl key) ~default:0. in
          Hashtbl.replace tbl key (prev +. float_of_int n)
      | Metrics.Gauge _ | Metrics.Hist _ -> ())
    (Metrics.snapshot reg);
  tbl
