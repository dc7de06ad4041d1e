module Net = Nectar_hub.Network
module Policy = Nectar_route.Policy
module Rng = Nectar_sim.Rng

type spec =
  | Torus of { rows : int; cols : int; seats : int }
  | Fat_tree of { leaves : int; spines : int; seats : int }
  | Irregular of { hubs : int; degree : int; seed : int; seats : int }

let torus_of_cabs = function
  | 64 -> Some (Torus { rows = 4; cols = 4; seats = 4 })
  | 256 -> Some (Torus { rows = 8; cols = 8; seats = 4 })
  | 512 -> Some (Torus { rows = 16; cols = 8; seats = 4 })
  | 1024 -> Some (Torus { rows = 16; cols = 16; seats = 4 })
  | _ -> None

type trunk = (int * int) * (int * int)

(* A built topology: the trunk list plus whatever routing state the shape
   needs.  For the irregular mesh that is the generation spanning tree
   (parent pointers, depths, and the per-edge ports in both directions)
   that up*/down* routing walks. *)
type t = {
  tspec : spec;
  thubs : int;
  tnodes : int;
  ttrunks : trunk list;
  (* irregular only; empty arrays otherwise *)
  parent : int array; (* parent hub in the spanning tree; -1 at the root *)
  depth : int array;
  up_port : int array; (* port on h toward parent.(h) *)
  down_port : int array; (* port on parent.(h) toward h *)
}

let spec t = t.tspec
let hub_count t = t.thubs
let node_count t = t.tnodes
let trunks t = t.ttrunks

let seats_of = function
  | Torus { seats; _ } | Fat_tree { seats; _ } | Irregular { seats; _ } ->
      seats

(* ---------- trunk lists, shared with World.build ---------- *)

(* Each hub's port 15 into the next hub's 14: a chain, and with the
   closing trunk a ring. *)
let chain_trunks ~hubs =
  if hubs < 1 then invalid_arg "Topology.chain_trunks: need >= 1 hub";
  List.init (hubs - 1) (fun h -> ((h, 15), (h + 1, 14)))

let ring_trunks ~hubs =
  if hubs < 3 then invalid_arg "Topology.ring_trunks: a ring needs >= 3 hubs";
  List.init hubs (fun h -> ((h, 15), ((h + 1) mod hubs, 14)))

(* East trunks leave on port 15 into the eastern neighbour's 14, south
   trunks on 13 into the southern neighbour's 12 (the convention
   [Policy.Ecube] routes over).  Dimensions of size < 2 wire
   no trunks rather than a self-loop. *)
let torus_trunks ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Topology.torus_trunks: empty grid";
  let idx r c = (r * cols) + c in
  let acc = ref [] in
  for r = rows - 1 downto 0 do
    for c = cols - 1 downto 0 do
      if rows >= 2 then
        acc := ((idx r c, 13), (idx ((r + 1) mod rows) c, 12)) :: !acc;
      if cols >= 2 then
        acc := ((idx r c, 15), (idx r ((c + 1) mod cols), 14)) :: !acc
    done
  done;
  !acc

(* Leaf l's uplink to spine s leaves on leaf port (15 - s) into spine
   port (15 - l); spines are hubs [leaves .. leaves+spines-1]. *)
let fat_tree_trunks ~leaves ~spines =
  if leaves < 2 then invalid_arg "Topology.fat_tree_trunks: need >= 2 leaves";
  if spines < 1 then invalid_arg "Topology.fat_tree_trunks: need >= 1 spine";
  if leaves > 16 then
    invalid_arg "Topology.fat_tree_trunks: a spine has only 16 ports";
  if spines > 14 then
    invalid_arg "Topology.fat_tree_trunks: leaf uplinks would fill every port";
  let acc = ref [] in
  for l = leaves - 1 downto 0 do
    for s = spines - 1 downto 0 do
      acc := ((l, 15 - s), (leaves + s, 15 - l)) :: !acc
    done
  done;
  !acc

(* ---------- building ---------- *)

let ports_per_hub = 16

let build_torus ~rows ~cols ~seats =
  if rows < 1 || cols < 1 then invalid_arg "Topology: empty torus";
  if seats < 1 || seats > 12 then
    invalid_arg "Topology: torus seats must use ports 0..11";
  let hubs = rows * cols in
  {
    tspec = Torus { rows; cols; seats };
    thubs = hubs;
    tnodes = hubs * seats;
    ttrunks = torus_trunks ~rows ~cols;
    parent = [||];
    depth = [||];
    up_port = [||];
    down_port = [||];
  }

let build_fat_tree ~leaves ~spines ~seats =
  if seats < 1 || seats + spines > ports_per_hub then
    invalid_arg "Topology: fat-tree seats collide with the uplink band";
  {
    tspec = Fat_tree { leaves; spines; seats };
    thubs = leaves + spines;
    tnodes = leaves * seats;
    ttrunks = fat_tree_trunks ~leaves ~spines;
    parent = [||];
    depth = [||];
    up_port = [||];
    down_port = [||];
  }

(* Seeded irregular mesh: a random spanning tree (hub h picks its parent
   uniformly among earlier hubs with a free trunk port — always possible,
   every hub keeps >= 2 trunk ports) plus extra random edges up to an
   average trunk degree of [degree], skipping draws that would exceed a
   hub's port budget or duplicate an edge.  Everything is a pure function
   of [seed] via the keyed Rng streams. *)
let build_irregular ~hubs ~degree ~seed ~seats =
  if hubs < 2 then invalid_arg "Topology: irregular mesh needs >= 2 hubs";
  if degree < 2 then invalid_arg "Topology: irregular degree must be >= 2";
  if seats < 1 || seats > ports_per_hub - 2 then
    invalid_arg "Topology: irregular seats must leave >= 2 trunk ports";
  let next_port = Array.make hubs (ports_per_hub - 1) in
  let has_port h = next_port.(h) >= seats in
  let take_port h =
    let p = next_port.(h) in
    next_port.(h) <- p - 1;
    p
  in
  let parent = Array.make hubs (-1) in
  let depth = Array.make hubs 0 in
  let up_port = Array.make hubs (-1) in
  let down_port = Array.make hubs (-1) in
  let adjacent = Hashtbl.create (hubs * 4) in
  let mark_adjacent a b =
    Hashtbl.replace adjacent ((a * hubs) + b) ();
    Hashtbl.replace adjacent ((b * hubs) + a) ()
  in
  let trunks = ref [] in
  let rng = Rng.stream ~seed ~index:0 in
  for h = 1 to hubs - 1 do
    let candidates = ref [] in
    for j = h - 1 downto 0 do
      if has_port j then candidates := j :: !candidates
    done;
    let cands = Array.of_list !candidates in
    if Array.length cands = 0 then
      (* unreachable with >= 2 trunk ports per hub: a fresh hub always
         fits a path graph — keep the guard for belt and braces *)
      invalid_arg "Topology: irregular mesh ran out of trunk ports";
    let p = cands.(Rng.int rng (Array.length cands)) in
    parent.(h) <- p;
    depth.(h) <- depth.(p) + 1;
    up_port.(h) <- take_port h;
    down_port.(h) <- take_port p;
    mark_adjacent h p;
    trunks := ((h, up_port.(h)), (p, down_port.(h))) :: !trunks
  done;
  let target_edges = max (hubs - 1) (hubs * degree / 2) in
  let extra = target_edges - (hubs - 1) in
  for _ = 1 to extra do
    (* bounded retry: a failed draw is skipped, keeping the build total *)
    let placed = ref false in
    let tries = ref 0 in
    while (not !placed) && !tries < 8 do
      incr tries;
      let a = Rng.int rng hubs in
      let b = Rng.int rng hubs in
      if
        a <> b && has_port a && has_port b
        && not (Hashtbl.mem adjacent ((a * hubs) + b))
      then begin
        let pa = take_port a and pb = take_port b in
        mark_adjacent a b;
        trunks := ((a, pa), (b, pb)) :: !trunks;
        placed := true
      end
    done
  done;
  {
    tspec = Irregular { hubs; degree; seed; seats };
    thubs = hubs;
    tnodes = hubs * seats;
    ttrunks = List.rev !trunks;
    parent;
    depth;
    up_port;
    down_port;
  }

let build = function
  | Torus { rows; cols; seats } -> build_torus ~rows ~cols ~seats
  | Fat_tree { leaves; spines; seats } -> build_fat_tree ~leaves ~spines ~seats
  | Irregular { hubs; degree; seed; seats } ->
      build_irregular ~hubs ~degree ~seed ~seats

let wire net t =
  List.iter (fun (a, b) -> Net.connect_hubs net a b) t.ttrunks

(* ---------- node placement ---------- *)

let attachment t node =
  if node < 0 || node >= t.tnodes then invalid_arg "Topology: bad node id";
  let seats = seats_of t.tspec in
  (node / seats, node mod seats)

let attach_all t net sink_for =
  for n = 0 to t.tnodes - 1 do
    let hub, port = attachment t n in
    let id = Net.attach_node net ~hub ~port (sink_for n) in
    if id <> n then invalid_arg "Topology.attach_all: non-empty network"
  done

(* ---------- deadlock-safe source routes ---------- *)

(* Same fixed multiplicative mix as the router's ECMP spreading, so a
   flow's spine is stable and deterministic. *)
let flow_hash ~src ~dst = (((src * 1103515245) + dst) * 1103515245) land max_int

let route t ~src ~dst =
  if src = dst then invalid_arg "Topology.route: src = dst";
  let src_hub, _ = attachment t src in
  let dst_hub, dst_port = attachment t dst in
  match t.tspec with
  | Torus { rows; cols; _ } ->
      Policy.ecube_route ~rows ~cols ~src_hub ~dst_hub @ [ dst_port ]
  | Fat_tree { spines; _ } ->
      if src_hub = dst_hub then [ dst_port ]
      else
        (* up on the flow's spine, down to the destination leaf *)
        let s = flow_hash ~src ~dst mod spines in
        [ 15 - s; 15 - dst_hub; dst_port ]
  | Irregular _ ->
      if src_hub = dst_hub then [ dst_port ]
      else begin
        (* climb both ends to the spanning-tree LCA, then descend *)
        let ups = ref [] (* reversed: deepest-first src-side up ports *)
        and downs = ref [] (* LCA-side-first dst-side down ports *) in
        let a = ref src_hub and b = ref dst_hub in
        while t.depth.(!a) > t.depth.(!b) do
          ups := t.up_port.(!a) :: !ups;
          a := t.parent.(!a)
        done;
        while t.depth.(!b) > t.depth.(!a) do
          downs := t.down_port.(!b) :: !downs;
          b := t.parent.(!b)
        done;
        while !a <> !b do
          ups := t.up_port.(!a) :: !ups;
          a := t.parent.(!a);
          downs := t.down_port.(!b) :: !downs;
          b := t.parent.(!b)
        done;
        List.rev !ups @ !downs @ [ dst_port ]
      end

(* ---------- collective spanning tree ---------- *)

(* A node-level spanning tree for the collective primitives, derived from
   the trunk list alone so it works on every shape (the irregular mesh's
   generation tree is one instance; torus and fat tree get a BFS tree).

   Hub layer: BFS over trunk adjacency from the root's hub, neighbours in
   ascending order — deterministic, minimum hop depth.  Node layer: the
   lowest-numbered node seated on a hub is that hub's *delegate*; the
   other seated nodes hang off the delegate, and the delegate's parent is
   the delegate of the nearest seated ancestor hub (fat-tree spines seat
   no nodes, so a leaf delegate skips over the spine to another leaf's
   delegate).  The root node replaces its own hub's delegate. *)
let spanning_tree t ~root =
  if root < 0 || root >= t.tnodes then
    invalid_arg "Topology.spanning_tree: bad root";
  let seats = seats_of t.tspec in
  let seated h = h * seats < t.tnodes in
  let adj = Array.make t.thubs [] in
  List.iter
    (fun ((a, _), (b, _)) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    t.ttrunks;
  Array.iteri (fun i l -> adj.(i) <- List.sort_uniq compare l) adj;
  let root_hub, _ = attachment t root in
  let hparent = Array.make t.thubs (-2) in
  hparent.(root_hub) <- -1;
  let q = Queue.create () in
  Queue.add root_hub q;
  while not (Queue.is_empty q) do
    let h = Queue.pop q in
    List.iter
      (fun n ->
        if hparent.(n) = -2 then begin
          hparent.(n) <- h;
          Queue.add n q
        end)
      adj.(h)
  done;
  let delegate h = if h = root_hub then root else h * seats in
  let rec seated_ancestor h =
    match hparent.(h) with
    | -2 -> invalid_arg "Topology.spanning_tree: fabric is disconnected"
    | -1 -> invalid_arg "Topology.spanning_tree: no seated ancestor"
    | p -> if seated p then p else seated_ancestor p
  in
  Array.init t.tnodes (fun n ->
      if n = root then -1
      else
        let h, _ = attachment t n in
        if h = root_hub then root
        else if n <> delegate h then delegate h
        else delegate (seated_ancestor h))

(* ---------- verifier-ready policies ---------- *)

let policy t =
  match t.tspec with
  | Torus { rows; cols; _ } ->
      [
        {
          Policy.where = Policy.Any;
          prefer = [ Policy.Ecube { rows; cols }; Policy.Shortest ];
          ecmp = false;
        };
      ]
  | Fat_tree _ ->
      [ { Policy.where = Policy.Any; prefer = [ Policy.Shortest ]; ecmp = true } ]
  | Irregular _ ->
      (* one pinned up*/down* route per ordered pair, with shortest as the
         link-failure fallback; O(nodes^2) rules, intended for the
         stack-level worlds the router serves (tests, chaos), not the
         wire-level fleet driver *)
      let rules = ref [] in
      for src = t.tnodes - 1 downto 0 do
        for dst = t.tnodes - 1 downto 0 do
          if src <> dst then
            rules :=
              {
                Policy.where = Policy.And (Policy.Src src, Policy.Dst dst);
                prefer =
                  [ Policy.Static (route t ~src ~dst); Policy.Shortest ];
                ecmp = false;
              }
              :: !rules
        done
      done;
      !rules
