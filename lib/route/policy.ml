type predicate =
  | Any
  | Src of int
  | Dst of int
  | Proto of int
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

type preference =
  | Shortest
  | Avoid_hubs of int list
  | Avoid_links of (int * int) list
  | Static of int list
  | Ecube of { rows : int; cols : int }

(* Dimension-ordered (XY, no-wrap) hub traversal on a [rows] x [cols]
   torus wired on the conventional directional ports (east 15, west 14,
   south 13, north 12): all column correction first, then all row
   correction, never using the wrap trunks.  Pure arithmetic on the grid
   coordinates — no topology object needed — so partitioned worlds and
   benches can share the exact port lists the router compiles.  Built
   back to front in one pass: the row hops are consed onto [tail], then
   the column hops onto those. *)
let ecube_route_onto ~rows ~cols ~src_hub ~dst_hub tail =
  if rows < 1 || cols < 1 then
    invalid_arg "Policy.ecube_route_onto: empty grid";
  let hubs = rows * cols in
  if src_hub < 0 || src_hub >= hubs || dst_hub < 0 || dst_hub >= hubs then
    invalid_arg "Policy.ecube_route_onto: hub outside the grid";
  let r1 = src_hub / cols and c1 = src_hub mod cols in
  let r2 = dst_hub / cols and c2 = dst_hub mod cols in
  let rec onto port n acc =
    if n <= 0 then acc else onto port (n - 1) (port :: acc)
  in
  let rows_done =
    if r2 > r1 then onto 13 (r2 - r1) tail else onto 12 (r1 - r2) tail
  in
  if c2 > c1 then onto 15 (c2 - c1) rows_done else onto 14 (c1 - c2) rows_done

(* A fixed multiplicative mix of the flow tuple, so a flow's pick among
   equal-cost paths is stable and deterministic across runs. *)
let flow_hash ~src ~dst ~proto =
  let x = (((src * 1103515245) + dst) * 1103515245) + proto in
  x land max_int

type rule = { where : predicate; prefer : preference list; ecmp : bool }

type t = rule list

let default = []

let rule_shortest = { where = Any; prefer = [ Shortest ]; ecmp = false }

let rec matches p ~src ~dst ~proto =
  match p with
  | Any -> true
  | Src s -> s = src
  | Dst d -> d = dst
  | Proto pr -> pr = proto
  | And (a, b) -> matches a ~src ~dst ~proto && matches b ~src ~dst ~proto
  | Or (a, b) -> matches a ~src ~dst ~proto || matches b ~src ~dst ~proto
  | Not a -> not (matches a ~src ~dst ~proto)

let rule_for t ~src ~dst ~proto =
  match List.find_opt (fun r -> matches r.where ~src ~dst ~proto) t with
  | Some r -> r
  | None -> rule_shortest

let rec predicate_to_string = function
  | Any -> "any"
  | Src s -> Printf.sprintf "src=%d" s
  | Dst d -> Printf.sprintf "dst=%d" d
  | Proto p -> Printf.sprintf "proto=%d" p
  | And (a, b) ->
      Printf.sprintf "(%s & %s)" (predicate_to_string a)
        (predicate_to_string b)
  | Or (a, b) ->
      Printf.sprintf "(%s | %s)" (predicate_to_string a)
        (predicate_to_string b)
  | Not a -> Printf.sprintf "!%s" (predicate_to_string a)

let preference_to_string = function
  | Shortest -> "shortest"
  | Avoid_hubs hs ->
      Printf.sprintf "avoid-hubs[%s]"
        (String.concat "," (List.map string_of_int hs))
  | Avoid_links ls ->
      Printf.sprintf "avoid-links[%s]"
        (String.concat ","
           (List.map (fun (h, p) -> Printf.sprintf "%d.%d" h p) ls))
  | Static ps ->
      Printf.sprintf "static[%s]"
        (String.concat ";" (List.map string_of_int ps))
  | Ecube { rows; cols } -> Printf.sprintf "ecube[%dx%d]" rows cols

let rule_to_string r =
  Printf.sprintf "where %s prefer %s%s"
    (predicate_to_string r.where)
    (String.concat " > " (List.map preference_to_string r.prefer))
    (if r.ecmp then " ecmp" else "")

let to_string t =
  match t with
  | [] -> "(default: shortest)"
  | rules -> String.concat "\n" (List.map rule_to_string rules)
