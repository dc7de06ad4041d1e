type value =
  | Count of int
  | Gauge of float
  | Hist of { n : int; mean : float; stddev : float; min : float; max : float }

type entry = Counter_thunk of (unit -> int) | Gauge_thunk of (unit -> float)
type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 64 }

let register t name entry =
  if Hashtbl.mem t.entries name then
    invalid_arg (Printf.sprintf "Metrics: %S already registered" name);
  Hashtbl.replace t.entries name entry

let counter t name read = register t name (Counter_thunk read)
let gauge t name read = register t name (Gauge_thunk read)

let read = function
  | Counter_thunk f -> Count (f ())
  | Gauge_thunk f -> Gauge (f ())

let snapshot t =
  Hashtbl.fold (fun name e acc -> (name, read e) :: acc) t.entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let render t =
  let snap = snapshot t in
  let width =
    List.fold_left (fun w (name, _) -> Stdlib.max w (String.length name)) 0 snap
  in
  let out = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      match v with
      | Count n -> Printf.bprintf out "  %-*s %d\n" width name n
      | Gauge g -> Printf.bprintf out "  %-*s %.3f\n" width name g
      | Hist _ -> () (* never produced *))
    snap;
  Buffer.contents out
