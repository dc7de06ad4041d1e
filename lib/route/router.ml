open Nectar_sim
module Net = Nectar_hub.Network
module Tbl = Nectar_util.Int_key.Tbl

exception Route_down of { src : int; dst : int }
exception No_route of { src : int; dst : int }

type entry = { path : int list; crossed : (int * int) list }

(* Failure-detection lag and table recompute time (see [on_link_transition]). *)
let detection_ns = Sim_time.us 100
let recompute_ns = Sim_time.us 25

type t = {
  net : Net.t;
  policy : Policy.t;
  table : entry Tbl.t;
  mutable generation : int;
  mutable compiles : int;
  mutable recomputes : int;
  mutable invalidated : int;
  mutable route_down_count : int;
  mutable no_route_count : int;
  mutable verify_failure_count : int;
}

type verify_error =
  | Unreachable of { src : int; dst : int; proto : int }
  | Looping of { src : int; dst : int; proto : int; path : int list }
  | Crosses_down of { src : int; dst : int; proto : int; hub : int; port : int }
  | Malformed of { src : int; dst : int; proto : int; reason : string }

let string_of_error = function
  | Unreachable { src; dst; proto } ->
      Printf.sprintf "unreachable: %d->%d proto %d (live pair, policy yields no path)"
        src dst proto
  | Looping { src; dst; proto; path } ->
      Printf.sprintf "looping: %d->%d proto %d revisits a HUB via [%s]" src dst
        proto
        (String.concat ";" (List.map string_of_int path))
  | Crosses_down { src; dst; proto; hub; port } ->
      Printf.sprintf "crosses-down: %d->%d proto %d crosses downed hub%d.port%d"
        src dst proto hub port
  | Malformed { src; dst; proto; reason } ->
      Printf.sprintf "malformed: %d->%d proto %d: %s" src dst proto reason

(* All shortest live paths src->dst in lexicographic port-sequence order,
   up to [cap].  This is the one BFS that builds a source route.  Index 0
   with no constraints is the BFS first-visit path (FIFO queue, ports
   scanned in index order): every hub is discovered along its
   lexicographically smallest shortest path.  Liveness is [up], which
   defaults to the port state and mirrors [Network.transmit]'s checks
   precisely — the source attachment, each trunk's *output* port and the
   destination attachment must be up; the peer-side input port is not
   consulted, matching the wire's directional drop semantics. *)
let enumerate ?(up = Net.port_up) t ~src ~dst ~avoid_hubs ~avoid_links ~cap =
  let net = t.net in
  let src_hub, src_port = Net.node_attachment net src in
  let dst_hub, dst_port = Net.node_attachment net dst in
  if
    (not (up net ~hub:src_hub ~port:src_port))
    || (not (up net ~hub:dst_hub ~port:dst_port))
    || List.mem (src_hub, src_port) avoid_links
    || List.mem (dst_hub, dst_port) avoid_links
  then []
  else begin
    let hubs = Net.hub_count net in
    let nports = Net.ports_per_hub in
    let avoided = Array.make hubs false in
    List.iter
      (fun h ->
        if h >= 0 && h < hubs && h <> src_hub && h <> dst_hub then
          avoided.(h) <- true)
      avoid_hubs;
    let edge_ok h pi h2 =
      up net ~hub:h ~port:pi
      && (not avoided.(h2))
      && not (List.mem (h, pi) avoid_links)
    in
    let dist = Array.make hubs max_int in
    dist.(src_hub) <- 0;
    let q = Queue.create () in
    Queue.add src_hub q;
    while not (Queue.is_empty q) do
      let h = Queue.take q in
      for pi = 0 to nports - 1 do
        match Net.peer net ~hub:h ~port:pi with
        | Net.To_hub (h2, _) when dist.(h2) = max_int && edge_ok h pi h2 ->
            dist.(h2) <- dist.(h) + 1;
            Queue.add h2 q
        | Net.To_hub _ | Net.To_node _ | Net.Free | Net.To_remote _ -> ()
      done
    done;
    if dist.(dst_hub) = max_int then []
    else begin
      let acc = ref [] in
      let count = ref 0 in
      let rec go h path_rev =
        if !count >= cap then ()
        else if h = dst_hub then begin
          incr count;
          acc := List.rev (dst_port :: path_rev) :: !acc
        end
        else
          for pi = 0 to nports - 1 do
            match Net.peer net ~hub:h ~port:pi with
            | Net.To_hub (h2, _)
              when dist.(h2) = dist.(h) + 1
                   && dist.(h2) <= dist.(dst_hub)
                   && edge_ok h pi h2 ->
                go h2 (pi :: path_rev)
            | Net.To_hub _ | Net.To_node _ | Net.Free | Net.To_remote _ -> ()
          done
      in
      go src_hub [];
      List.rev !acc
    end
  end

(* Walk a source route, returning the (hub, out_port) links it crosses
   (the source attachment first, matching what [Network.transmit] checks)
   or [Error reason] if it is not a well-formed route to [dst].  Liveness
   and loop-freedom are judged by the callers that care. *)
let walk_route t ~src ~dst ports =
  let net = t.net in
  let src_hub, src_port = Net.node_attachment net src in
  let rec walk h ports acc =
    match ports with
    | [] -> Error "route ends before reaching a node"
    | pi :: rest -> (
        if pi < 0 || pi >= Net.ports_per_hub then
          Error (Printf.sprintf "port index %d out of range" pi)
        else
          match Net.peer net ~hub:h ~port:pi with
          | Net.Free -> Error "route enters an unconnected port"
          | Net.To_node n ->
              if rest <> [] then Error "route continues past a node"
              else if n <> dst then
                Error (Printf.sprintf "route ends at node %d, not %d" n dst)
              else Ok (List.rev ((h, pi) :: acc))
          | Net.To_remote _ ->
              (* The router is per-partition: a verified policy never
                 routes through a boundary trunk; cross-partition paths
                 are the parallel harness's job. *)
              Error "route crosses a partition boundary"
          | Net.To_hub (h2, _) -> walk h2 rest ((h, pi) :: acc))
  in
  match walk src_hub ports [] with
  | Error _ as e -> e
  | Ok crossed -> Ok ((src_hub, src_port) :: crossed)

(* The hub sequence a route visits, for loop detection.  [crossed] lists
   the source attachment first, and it shares a hub with the first trunk
   hop; collapse consecutive duplicates so only genuine revisits remain
   (a hop always moves to a different hub or a node, so a real loop can
   only produce a non-consecutive repeat). *)
let hub_sequence crossed =
  List.rev
    (List.fold_left
       (fun acc (h, _) ->
         match acc with x :: _ when x = h -> acc | _ -> h :: acc)
       [] crossed)

let crossed_all_up net crossed =
  List.for_all (fun (h, p) -> Net.port_up net ~hub:h ~port:p) crossed

(* A pinned route is usable if it walks to the destination over live
   ports.  Loop-freedom is deliberately left to the verifier: a looping
   pinned route is a policy error to be *reported*, not silently skipped. *)
let static_usable t ~src ~dst ports =
  match walk_route t ~src ~dst ports with
  | Error _ -> false
  | Ok crossed -> crossed_all_up t.net crossed

let ecmp_cap = 16

let paths_for_pref t ~src ~dst ~cap = function
  | Policy.Shortest -> enumerate t ~src ~dst ~avoid_hubs:[] ~avoid_links:[] ~cap
  | Policy.Avoid_hubs hs ->
      enumerate t ~src ~dst ~avoid_hubs:hs ~avoid_links:[] ~cap
  | Policy.Avoid_links ls ->
      enumerate t ~src ~dst ~avoid_hubs:[] ~avoid_links:ls ~cap
  | Policy.Static ps -> if static_usable t ~src ~dst ps then [ ps ] else []
  | Policy.Ecube { rows; cols } ->
      (* Derived like a Static route, from grid arithmetic instead of an
         operator's pin: usable only if it walks to the destination over
         live ports (so a downed trunk fails over to the rule's next
         preference, or to a typed refusal). *)
      let src_hub, _ = Net.node_attachment t.net src in
      let dst_hub, dst_port = Net.node_attachment t.net dst in
      if src_hub >= rows * cols || dst_hub >= rows * cols then []
      else
        let ps =
          Policy.ecube_route_onto ~rows ~cols ~src_hub ~dst_hub [ dst_port ]
        in
        if static_usable t ~src ~dst ps then [ ps ] else []

(* Compile one flow against the live topology: first matching rule, first
   preference with a live path; ECMP picks deterministically among the
   equal-cost set.  [None] means the policy declares this flow dead. *)
let compile t ~src ~dst ~proto =
  let rule = Policy.rule_for t.policy ~src ~dst ~proto in
  let cap = if rule.Policy.ecmp then ecmp_cap else 1 in
  let rec try_prefs = function
    | [] -> None
    | pref :: rest -> (
        match paths_for_pref t ~src ~dst ~cap pref with
        | [] -> try_prefs rest
        | paths ->
            let n = List.length paths in
            let i =
              if rule.Policy.ecmp && n > 1 then
                Policy.flow_hash ~src ~dst ~proto mod n
              else 0
            in
            Some (List.nth paths i))
  in
  try_prefs rule.Policy.prefer

(* Is the pair connected, ignoring policy?  In the *live* topology by
   default: the verifier's test, so a physically partitioned pair (e.g.
   mid-campaign, both trunks down) is not blamed on the policy.  [wired]
   takes every port as up, telling a pair with no trunk path at all
   ([No_route]) from a wired pair whose links are down ([Route_down]). *)
let reachable ?up t ~src ~dst =
  enumerate ?up t ~src ~dst ~avoid_hubs:[] ~avoid_links:[] ~cap:1 <> []

let wired t ~src ~dst =
  reachable ~up:(fun _ ~hub:_ ~port:_ -> true) t ~src ~dst

(* The cache key packs src (30 bits), dst (12) and proto (8); [verify]
   decodes it.  An out-of-range component would land on another flow's
   entry, so it is refused instead. *)
let key ~src ~dst ~proto =
  if src lor dst lor proto < 0 || src > 0x3fff_ffff || dst > 0xfff
     || proto > 0xff
  then invalid_arg "Router.lookup: flow component out of range";
  (((src lsl 12) lor dst) lsl 8) lor proto

let lookup t ~src ~dst ~proto =
  if src = dst then invalid_arg "Router.lookup: src = dst";
  let key = key ~src ~dst ~proto in
  match Tbl.find_opt t.table key with
  | Some e -> e.path
  | None -> (
      match compile t ~src ~dst ~proto with
      | Some path ->
          let crossed =
            match walk_route t ~src ~dst path with
            | Ok c -> c
            | Error reason ->
                (* compile only emits walkable routes; a failure here is a
                   compiler bug, not an operator error *)
                invalid_arg ("Router.lookup: compiled unwalkable route: "
                             ^ reason)
          in
          t.compiles <- t.compiles + 1;
          Tbl.replace t.table key { path; crossed };
          path
      | None ->
          if wired t ~src ~dst then begin
            t.route_down_count <- t.route_down_count + 1;
            raise (Route_down { src; dst })
          end
          else begin
            t.no_route_count <- t.no_route_count + 1;
            raise (No_route { src; dst })
          end)

(* The one protocol number [verify] and [table_lines] compile every pair
   for. *)
let proto = 0

let verify t =
  let net = t.net in
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let n = Net.node_count net in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        (* fresh compile (read-only: never touches the cache) *)
        match compile t ~src ~dst ~proto with
        | None ->
            if reachable t ~src ~dst then
              err (Unreachable { src; dst; proto })
        | Some path -> (
            match walk_route t ~src ~dst path with
            | Error reason -> err (Malformed { src; dst; proto; reason })
            | Ok crossed ->
                let seen = Hashtbl.create 8 in
                let loop = ref false in
                List.iter
                  (fun h ->
                    if Hashtbl.mem seen h then loop := true
                    else Hashtbl.add seen h ())
                  (hub_sequence crossed);
                if !loop then err (Looping { src; dst; proto; path }))
    done
  done;
  (* The cached database must never serve a route crossing a downed port:
     stale entries are only legal inside the detection window, and this is
     exactly what a mid-window audit reports. *)
  Tbl.iter
    (fun k e ->
      let proto = k land 0xff in
      let dst = (k lsr 8) land 0xfff in
      let src = k lsr 20 in
      List.iter
        (fun (hub, port) ->
          if not (Net.port_up net ~hub ~port) then
            err (Crosses_down { src; dst; proto; hub; port }))
        e.crossed)
    t.table;
  List.rev !errors

(* Drop every cached entry crossing any currently-down port.  A recompute
   reconciles against the full live link state it can observe, not just
   the one transitioned port: when several links fail at the same instant,
   each failure's recompute fires separately, and purging only its own
   port would leave the table transiently crossing the other dark links
   (which the verifier would rightly flag). *)
let invalidate_stale t =
  let before = Tbl.length t.table in
  Tbl.filter_map_inplace
    (fun _ e -> if crossed_all_up t.net e.crossed then Some e else None)
    t.table;
  t.invalidated <- t.invalidated + (before - Tbl.length t.table)

let recompute t ~up =
  if up then begin
    (* a restored link can improve any route: flush the database *)
    t.invalidated <- t.invalidated + Tbl.length t.table;
    Tbl.reset t.table
  end
  else invalidate_stale t;
  t.generation <- t.generation + 1;
  t.recomputes <- t.recomputes + 1;
  Trace.instant ~track:"route" "route.recomputed";
  let errs = verify t in
  if errs <> [] then begin
    t.verify_failure_count <- t.verify_failure_count + List.length errs;
    Trace.instant ~track:"route" "route.verify_failed"
  end

(* Failure detection: a link transition is noticed [detection_ns] later
   (the monitor's polling/heartbeat lag) and the new tables are in service
   [recompute_ns] after that.  Senders inside that window either blackhole
   on the wire (stale cached route; counted as link_down drops) or get a
   typed refusal (fresh compile).  Transitions are the only thing that
   schedules engine events — a quiet topology adds zero events, keeping
   every static-run table byte-identical. *)
let on_link_transition t ~hub:_ ~port:_ ~up =
  let eng = Net.engine t.net in
  ignore
    (Engine.after eng ~label:"route.detect" detection_ns (fun () ->
         Trace.instant ~track:"route"
           (if up then "route.link_up_detected" else "route.link_down_detected");
         ignore
           (Engine.after eng ~label:"route.recompute" recompute_ns (fun () ->
                recompute t ~up))))

let create ?(policy = Policy.default) net =
  let t =
    {
      net;
      policy;
      table = Tbl.create 64;
      generation = 0;
      compiles = 0;
      recomputes = 0;
      invalidated = 0;
      route_down_count = 0;
      no_route_count = 0;
      verify_failure_count = 0;
    }
  in
  Net.on_link_change net (fun ~hub ~port ~up ->
      on_link_transition t ~hub ~port ~up);
  t

let network t = t.net
let policy t = t.policy
let generation t = t.generation
let compiles t = t.compiles
let recomputes t = t.recomputes
let invalidated t = t.invalidated
let route_down_refusals t = t.route_down_count
let no_route_refusals t = t.no_route_count
let verify_failures t = t.verify_failure_count
let blackout_bound_ns ~rto_ns = detection_ns + recompute_ns + rto_ns

let table_lines t =
  let n = Net.node_count t.net in
  let lines = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        let status =
          match compile t ~src ~dst ~proto with
          | Some path ->
              Printf.sprintf "[%s]"
                (String.concat ";" (List.map string_of_int path))
          | None ->
              if wired t ~src ~dst then "ROUTE-DOWN" else "NO-ROUTE"
        in
        lines :=
          Printf.sprintf "%d -> %d proto %d: %s" src dst proto status :: !lines
    done
  done;
  List.rev !lines

let register_metrics t reg ~prefix =
  let c name read = Nectar_util.Metrics.counter reg (prefix ^ name) read in
  c "route.compiles" (fun () -> compiles t);
  c "route.recomputes" (fun () -> recomputes t);
  c "route.invalidated" (fun () -> invalidated t);
  c "route.route_down_refusals" (fun () -> route_down_refusals t);
  c "route.no_route_refusals" (fun () -> no_route_refusals t);
  c "route.verify_failures" (fun () -> verify_failures t)
