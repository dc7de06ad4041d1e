module Rng = Nectar_sim.Rng

type pattern =
  | Incast of { sinks : int }
  | All_to_all
  | Hotspot of { alpha : float }

type arrivals = Closed of { think_ns : int } | Open of { interval_ns : int }

type t = {
  pattern : pattern;
  arrivals : arrivals;
  msgs_per_node : int;
  seed : int;
}

let make ~pattern ~arrivals ~msgs_per_node ~seed =
  (match pattern with
  | Incast { sinks } when sinks < 1 ->
      invalid_arg "Workload: incast needs >= 1 sink"
  | Hotspot { alpha } when alpha <= 0.0 ->
      invalid_arg "Workload: hotspot needs alpha > 0"
  | Incast _ | All_to_all | Hotspot _ -> ());
  (match arrivals with
  | Closed { think_ns } when think_ns < 0 ->
      invalid_arg "Workload: negative think time"
  | Open { interval_ns } when interval_ns <= 0 ->
      invalid_arg "Workload: open-loop interval must be positive"
  | Closed _ | Open _ -> ());
  if msgs_per_node < 0 then invalid_arg "Workload: negative msgs_per_node";
  { pattern; arrivals; msgs_per_node; seed }

let is_open t = match t.arrivals with Open _ -> true | Closed _ -> false

let pattern_name t =
  match t.pattern with
  | Incast _ -> "incast"
  | All_to_all -> "all-to-all"
  | Hotspot _ -> "hotspot"

let is_sender t ~nodes:_ ~node =
  match t.pattern with
  | Incast { sinks } -> node >= sinks (* the sinks only receive *)
  | All_to_all | Hotspot _ -> true

let sender_count t ~nodes =
  match t.pattern with
  | Incast { sinks } -> max 0 (nodes - min sinks nodes)
  | All_to_all | Hotspot _ -> nodes

let total_messages t ~nodes = sender_count t ~nodes * t.msgs_per_node

(* Zipf CDF over destination ranks 0..n-1: weight of rank k is
   1/(k+1)^alpha.  One array per plan call; destinations draw by binary
   search.  Rank r maps to node r (so node 0 is the hottest), shifted
   past the sender itself so a node never draws itself. *)
let zipf_cdf ~alpha n =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** alpha)) in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. x;
        !acc)
      w
  in
  let total = !acc in
  let cdf = Array.map (fun x -> x /. total) cdf in
  (* Clamp the tail to exactly 1.0: the normalised prefix sums can round
     the last bucket to just below 1.0, and a draw of u = 1.0 (or u above
     the rounded tail) must still land on the last rank, never out of
     range or biased onto a re-search. *)
  if n > 0 then cdf.(n - 1) <- 1.0;
  cdf

let zipf_draw cdf u =
  let n = Array.length cdf in
  if n = 0 then invalid_arg "Workload.zipf_draw: empty CDF";
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

type send = { at : int; dst : int }

(* The per-node schedule is a pure function of (seed, node): keyed Rng
   streams make it independent of partition count and creation order —
   the parallel determinism gates rely on it.  [at] is a gap after the
   previous send completes (closed loop) or an absolute due time (open
   loop). *)
let plan t ~nodes ~node =
  if node < 0 || node >= nodes then invalid_arg "Workload.plan: bad node";
  if nodes < 2 then invalid_arg "Workload.plan: need >= 2 nodes";
  if not (is_sender t ~nodes ~node) then [||]
  else begin
    let rng = Rng.stream ~seed:t.seed ~index:node in
    let cdf =
      match t.pattern with
      | Hotspot { alpha } -> zipf_cdf ~alpha nodes
      | Incast _ | All_to_all -> [||]
    in
    let dst_of k =
      match t.pattern with
      | Incast { sinks } ->
          (* spread senders across sinks, stable per sender *)
          let s = min sinks nodes in
          (node + k) mod s
      | All_to_all ->
          (* round-robin over every other node, offset per sender so the
             instantaneous load is spread *)
          let d = (node + 1 + (k mod (nodes - 1))) mod nodes in
          if d = node then (d + 1) mod nodes else d
      | Hotspot _ ->
          let d = zipf_draw cdf (Rng.float rng 1.0) in
          if d = node then (d + 1) mod nodes else d
    in
    let due = ref 0 in
    Array.init t.msgs_per_node (fun k ->
        let dst = dst_of k in
        let at =
          match t.arrivals with
          | Closed { think_ns } ->
              if think_ns = 0 then 0
              else Rng.int_in rng (think_ns / 2) (think_ns * 3 / 2)
          | Open { interval_ns } ->
              let gap =
                int_of_float
                  (Rng.exponential rng ~mean:(float_of_int interval_ns))
              in
              due := !due + gap;
              !due
        in
        { at; dst })
  end
