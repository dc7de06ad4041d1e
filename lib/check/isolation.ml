(* Read-only Obj graph walk.  The subtleties live in blocks whose fields
   are not ordinary values:

   - closure blocks lead with out-of-heap code pointers; scanning starts at
     the environment offset decoded from the closinfo word (field 1);
   - mutually-recursive closures contain Infix_tag pointers into the middle
     of their enclosing block, translated back to the enclosing header so
     identity stays per-allocation;
   - effect continuations (Cont_tag) hold a raw fiber-stack pointer, and a
     lazy mid-force (Forcing_tag) holds runtime bookkeeping: both are
     treated as leaves — their identity still participates in sharing
     detection, their insides are never inspected.  Suspended processes
     (wait queues hold resume closures capturing continuations) make these
     blocks routinely reachable from node state. *)

(* Physical-identity table: equality is (==); the hash is structural with
   bounded fuel, which is sound (collisions land in the same bucket and are
   separated by ==) and stable during the walk (nothing mutates under an
   audit — the simulation is not running). *)
module Phys = Hashtbl.Make (struct
  type t = Obj.t

  let equal = ( == )
  let hash o = Hashtbl.hash_param 12 64 o
end)

type shared = {
  s_tag : int;
  s_size : int;
  s_kind : string;
  s_owners : (string * string) list;
}

type report = {
  shared_blocks : shared list;
  blocks_scanned : int;
  boundary_hits : int;
  literals_exempted : int;
  static_closures_exempted : int;
}

(* Not exposed by Obj; from the runtime's mlvalues.h (OCaml 5.x). *)
let forcing_tag = 244
let cont_tag = 245

let kind_of_tag t =
  if t = Obj.closure_tag then "closure"
  else if t = Obj.string_tag then "string/bytes"
  else if t = Obj.double_tag then "float"
  else if t = Obj.double_array_tag then "float array"
  else if t = Obj.object_tag then "object"
  else if t = Obj.custom_tag then "custom"
  else if t = Obj.abstract_tag then "abstract"
  else if t = Obj.lazy_tag then "lazy"
  else if t = Obj.forward_tag then "forward"
  else if t = cont_tag then "continuation"
  else if t = forcing_tag then "lazy (forcing)"
  else if t < forcing_tag then "record/tuple"
  else Printf.sprintf "tag%d" t

let word_bytes = Sys.word_size / 8

(* Start of the scannable environment in a closure block, decoded from the
   closinfo word (field 1): below the 8-bit arity field the word carries
   the start-of-environment offset.  Verified for this compiler by a unit
   test that recovers a ref captured in a closure. *)
let closure_start_env o =
  if Obj.size o < 2 then Obj.size o
  else
    let info : int = Obj.obj (Obj.field o 1) in
    let start = info land ((1 lsl 54) - 1) in
    if start < 1 || start > Obj.size o then Obj.size o else start

(* An infix block is a pointer into the middle of a closure block; its
   "size" field is the offset in words back to the enclosing header. *)
let infix_enclosing o =
  Obj.add_offset o (Int32.of_int (-word_bytes * Obj.size o))

let scannable o =
  let tag = Obj.tag o in
  tag < Obj.no_scan_tag && tag <> cont_tag && tag <> forcing_tag

type owner = { ow_node : string; ow_path : string; mutable ow_next : owner option }
(* single-linked owner list per block; the common case is length 1 *)

let audit ~nodes ?(boundary = []) ?(max_literal_bytes = 0)
    ?(max_blocks = 4_000_000) () =
  let seen : owner Phys.t = Phys.create 4096 in
  let bound : unit Phys.t = Phys.create 16 in
  List.iter
    (fun (_name, o) -> if Obj.is_block o then Phys.replace bound o ())
    boundary;
  let scanned = ref 0 in
  let boundary_hits = ref 0 in
  let visit_node node roots =
    let stack = ref [] in
    let push o path =
      if Obj.is_block o then begin
        let o = if Obj.tag o = Obj.infix_tag then infix_enclosing o else o in
        if Phys.mem bound o then incr boundary_hits
        else
          match Phys.find_opt seen o with
          | Some ow ->
              (* already reached: from this node earlier (ignore), or from
                 another node (a cross-node share; record one path per node,
                 and do not descend again) *)
              let rec record w =
                if w.ow_node <> node then
                  match w.ow_next with
                  | Some n -> record n
                  | None ->
                      w.ow_next <-
                        Some { ow_node = node; ow_path = path; ow_next = None }
              in
              record ow
          | None ->
              Phys.replace seen o
                { ow_node = node; ow_path = path; ow_next = None };
              incr scanned;
              if !scanned > max_blocks then
                invalid_arg
                  (Printf.sprintf "Isolation.audit: more than %d blocks"
                     max_blocks);
              if scannable o then stack := (o, path) :: !stack
      end
    in
    List.iteri
      (fun i root -> push root (Printf.sprintf "%s/root%d" node i))
      roots;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (o, path) :: rest ->
          stack := rest;
          let tag = Obj.tag o in
          let start = if tag = Obj.closure_tag then closure_start_env o else 0 in
          for i = start to Obj.size o - 1 do
            push (Obj.field o i) (Printf.sprintf "%s.%d" path i)
          done
    done
  in
  List.iter (fun (node, roots) -> visit_node node roots) nodes;
  (* Collect blocks owned by more than one node, applying the two
     documented exemptions:
     - string blocks of at most [max_literal_bytes] bytes: the compiler
       interns equal string literals, so both nodes naming a mailbox
       "rmp-inbox" physically share one constant; every genuinely mutable
       wire buffer in this codebase is a node's CAB data memory (backed
       by at least 4 KB) or a heap block inside it, far above any sane
       literal threshold.
       Default 0 = no exemption.
     - environment-free closures: a top-level function value carries no
       state; two nodes holding the same static function share only code. *)
  let literals = ref 0 in
  let static_closures = ref 0 in
  let shared_blocks = ref [] in
  Phys.iter
    (fun o ow ->
      match ow.ow_next with
      | None -> ()
      | Some _ ->
          let tag = Obj.tag o in
          if
            tag = Obj.string_tag
            && String.length (Obj.obj o : string) <= max_literal_bytes
          then incr literals
          else if tag = Obj.closure_tag && closure_start_env o >= Obj.size o
          then incr static_closures
          else if tag = Obj.double_tag then incr literals
            (* boxed float constants are immutable *)
          else begin
            let rec owners w =
              (w.ow_node, w.ow_path)
              :: (match w.ow_next with Some n -> owners n | None -> [])
            in
            shared_blocks :=
              {
                s_tag = tag;
                s_size = Obj.size o;
                s_kind = kind_of_tag tag;
                s_owners = owners ow;
              }
              :: !shared_blocks
          end)
    seen;
  let shared_blocks =
    List.sort
      (fun a b ->
        let key s = String.concat "," (List.map snd s.s_owners) in
        let c = String.compare (key a) (key b) in
        if c <> 0 then c else Int.compare a.s_tag b.s_tag)
      !shared_blocks
  in
  {
    shared_blocks;
    blocks_scanned = !scanned;
    boundary_hits = !boundary_hits;
    literals_exempted = !literals;
    static_closures_exempted = !static_closures;
  }

let clean r = r.shared_blocks = []

let pp_report ppf r =
  Format.fprintf ppf
    "scanned %d blocks, %d boundary hits, %d literal / %d static-closure \
     exemptions, %d shared@."
    r.blocks_scanned r.boundary_hits r.literals_exempted
    r.static_closures_exempted
    (List.length r.shared_blocks);
  List.iter
    (fun s ->
      Format.fprintf ppf "  SHARED %s (tag %d, %d words):@." s.s_kind s.s_tag
        s.s_size;
      List.iter
        (fun (node, path) -> Format.fprintf ppf "    %s: %s@." node path)
        s.s_owners)
    r.shared_blocks
