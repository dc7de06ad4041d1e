(* nectar-lint: source-level checks for the library tree.

     dune exec bin/nectar_lint.exe [dir ...]     (default: lib)

   Rules:
   - no Obj.magic anywhere;
   - no other Obj.* use in lib/ outside lib/check (the isolation auditor
     is the one sanctioned heap spelunker);
   - no polymorphic compare in the lib/sim and lib/core hot paths: bare
     [compare], Stdlib.compare and Hashtbl.hash* are flagged in .ml files
     there (use Int.compare / String.compare / a monomorphic hash; [=] on
     immediates cannot be told apart lexically from [=] on structures, so
     it stays a review concern).  A doc reference written "[compare]" is
     not flagged;
   - no stdout printing in lib/ (Printf.printf, Format.printf,
     print_string/endline/newline) except in modules whose name contains
     "debug" or "dump" — libraries report through Metrics/Trace/return
     values, not the terminal;
   - no ignored Message.t values (an ignored message is a leaked buffer);
   - no bare failwith in lib/core or lib/proto (raise a typed exception
     such as Buffer_heap.Corrupt, or use invalid_arg for caller errors);
   - no direct Network.route / Net.route calls in lib/ outside lib/route
     and lib/hub — transports go through Router.lookup so routing policy
     and live link state apply (a "[Network.route]" doc reference is not
     flagged);
   - no mutable toplevel state in lib/sim or lib/core outside the
     whitelisted boundary modules: a column-0 [let x = ref ...] (or
     Atomic.make / Hashtbl.create / Array.make / Queue.create /
     Buffer.create / Bytes.create / Domain.DLS.new_key) is shared by
     every domain that touches the module, which breaks the parallel
     engine's domain-isolation contract (lib/check audits it at heap
     level; this rule catches it at review time).  The whitelist holds
     the modules whose sharing is the sanctioned boundary: engine
     (atomic pid counter), trace (domain-local DLS key), the vet hook
     registries, and the atomic uid counters.  Value bindings only —
     [let f args = ... Queue.create ...] constructs per-instance state
     and is fine;
   - every .ml under lib/ has a corresponding .mli.

   Exits 1 when anything is flagged.  The pattern strings below are built
   by concatenation so the lint never flags its own source. *)

let findings = ref 0

let flag file line msg =
  incr findings;
  Printf.printf "%s:%d: %s\n" file line msg

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn > 0 && at 0

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* built in two halves so a self-run stays clean *)
let pat_obj_magic = "Obj." ^ "magic"
let pat_obj = "Ob" ^ "j."
let pat_ignore = "ign" ^ "ore"
let pat_msg_t = ": Message" ^ ".t"
let pat_failwith = "fail" ^ "with"
let pat_compare = "comp" ^ "are"
let pat_stdlib_compare = "Stdlib." ^ pat_compare
let pat_hashtbl_hash = "Hashtbl." ^ "hash"

let pat_stdout_printers =
  [
    "Printf." ^ "printf";
    "Format." ^ "printf";
    "print_" ^ "string";
    "print_" ^ "endline";
    "print_" ^ "newline";
  ]

let pats_net_route = [ "Network." ^ "route"; "Net." ^ "route" ]

(* qualified constructors matched by substring; the bare [ref] needs
   identifier boundaries *)
let pat_ref = "re" ^ "f"

let pats_mutable_ctors =
  [
    "Atomic." ^ "make";
    "Hashtbl." ^ "create";
    "Array." ^ "make";
    "Queue." ^ "create";
    "Buffer." ^ "create";
    "Bytes." ^ "create";
    "Domain.DLS." ^ "new_key";
  ]

let no_failwith_dirs = [ "lib/core"; "lib/proto" ]
let no_toplevel_mutable_dirs = [ "lib/sim"; "lib/core" ]

let toplevel_mutable_whitelist =
  [
    "lib/sim/engine.ml";
    "lib/sim/trace.ml";
    "lib/sim/vet_probe.ml";
    "lib/core/vet_hook.ml";
    "lib/core/buffer_heap.ml";
    "lib/core/message.ml";
  ]
let route_allowed_dirs = [ "lib/route"; "lib/hub" ]
let no_poly_compare_dirs = [ "lib/sim"; "lib/core" ]
let obj_allowed_dir = "lib/check"
let mli_required_dir = "lib"

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* [pat] appearing anywhere except directly after '[' (a doc reference).
   Module-qualified prefixes still match: "Nectar_hub.Network.foo" is a
   real call site. *)
let contains_unbracketed line pat =
  let nl = String.length line and np = String.length pat in
  let rec at i =
    i + np <= nl
    && ((String.sub line i np = pat && (i = 0 || line.[i - 1] <> '['))
       || at (i + 1))
  in
  np > 0 && at 0

(* [word] appearing with identifier boundaries, not module-qualified
   ("X.word" is some module's own function) and not a "[word]" doc
   reference. *)
let contains_bare_word line word =
  let nl = String.length line and nw = String.length word in
  let ok_at i =
    (i = 0 || (line.[i - 1] <> '.' && line.[i - 1] <> '[' && not (is_ident_char line.[i - 1])))
    && (i + nw >= nl || not (is_ident_char line.[i + nw]))
  in
  let rec at i =
    i + nw <= nl && ((String.sub line i nw = word && ok_at i) || at (i + 1))
  in
  nw > 0 && at 0

(* A column-0 [let x = rhs] (or [let x : ty = rhs], [let rec x = rhs])
   binding a plain value — no parameters — returns [Some rhs].  A
   function definition, an indented binding, or a let without [=] on
   the same line returns [None]. *)
let toplevel_value_rhs line =
  if not (has_prefix "let " line) then None
  else
    match String.index_opt line '=' with
    | None -> None
    | Some eq -> (
        let head = String.sub line 4 (eq - 4) in
        let head =
          match String.index_opt head ':' with
          | Some c -> String.sub head 0 c
          | None -> head
        in
        let toks =
          String.split_on_char ' ' head |> List.filter (fun s -> s <> "")
        in
        match toks with
        | [ _ ] | [ "rec"; _ ] ->
            Some (String.sub line (eq + 1) (String.length line - eq - 1))
        | _ -> None)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let check_source path =
  let failwith_banned =
    List.exists (fun d -> has_prefix (d ^ "/") path) no_failwith_dirs
  in
  let obj_banned =
    has_prefix (mli_required_dir ^ "/") path
    && not (has_prefix (obj_allowed_dir ^ "/") path)
  in
  let poly_banned =
    Filename.check_suffix path ".ml"
    && List.exists (fun d -> has_prefix (d ^ "/") path) no_poly_compare_dirs
  in
  let route_banned =
    has_prefix (mli_required_dir ^ "/") path
    && not
         (List.exists (fun d -> has_prefix (d ^ "/") path) route_allowed_dirs)
  in
  let toplevel_mutable_banned =
    Filename.check_suffix path ".ml"
    && List.exists (fun d -> has_prefix (d ^ "/") path) no_toplevel_mutable_dirs
    && not (List.mem path toplevel_mutable_whitelist)
  in
  let base = Filename.basename path in
  let stdout_banned =
    has_prefix (mli_required_dir ^ "/") path
    && not (contains base "debug" || contains base "dump")
  in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      if contains line pat_obj_magic then
        flag path ln (pat_obj_magic ^ " defeats the type system");
      if obj_banned && contains line pat_obj then
        flag path ln
          (pat_obj ^ "* outside " ^ obj_allowed_dir
         ^ ": only the isolation auditor may walk the heap");
      if poly_banned then begin
        if
          contains line pat_stdlib_compare
          || contains_bare_word line pat_compare
        then
          flag path ln
            ("polymorphic " ^ pat_compare
           ^ " in a hot path: use Int.compare/String.compare");
        if contains line pat_hashtbl_hash then
          flag path ln
            (pat_hashtbl_hash
           ^ " in a hot path: polymorphic hashing; use a monomorphic hash")
      end;
      if stdout_banned then
        List.iter
          (fun pat ->
            if contains line pat then
              flag path ln
                (pat
               ^ " in a library: report through Metrics/Trace, or move the \
                  printer to a *debug*/*dump* module"))
          pat_stdout_printers;
      if contains line pat_ignore && contains line pat_msg_t then
        flag path ln
          ("ignored Message" ^ ".t: an unreleased message leaks its buffer");
      if route_banned then
        List.iter
          (fun pat ->
            if contains_unbracketed line pat then
              flag path ln
                ("direct " ^ pat
               ^ " outside lib/route: go through Router.lookup so routing \
                  policy and live link state apply"))
          pats_net_route;
      if toplevel_mutable_banned then
        (match toplevel_value_rhs line with
        | None -> ()
        | Some rhs ->
            let hit =
              List.exists (fun pat -> contains rhs pat) pats_mutable_ctors
              || contains_bare_word rhs pat_ref
            in
            if hit then
              flag path ln
                ("mutable toplevel state: shared by every domain that \
                  touches this module — make it per-instance, or whitelist \
                  the module as a sanctioned domain boundary"));
      if failwith_banned && contains line pat_failwith then
        flag path ln
          (pat_failwith
         ^ " in the runtime: raise a typed exception or invalid_arg instead"))
    (read_lines path)

let check_mli path =
  if
    has_prefix (mli_required_dir ^ "/") path
    && Filename.check_suffix path ".ml"
    && not (Sys.file_exists (path ^ "i"))
  then flag path 1 "library module without an .mli interface"

let rec walk path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.iter (fun entry ->
           if not (has_prefix "." entry || entry = "_build") then
             walk (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then begin
    check_source path;
    check_mli path
  end

let () =
  let dirs =
    match List.tl (Array.to_list Sys.argv) with [] -> [ "lib" ] | ds -> ds
  in
  List.iter
    (fun d ->
      if Sys.file_exists d then walk d
      else begin
        Printf.printf "nectar-lint: no such directory: %s\n" d;
        incr findings
      end)
    dirs;
  if !findings > 0 then begin
    Printf.printf "nectar-lint: %d finding(s)\n" !findings;
    exit 1
  end
  else Printf.printf "nectar-lint: clean (%s)\n" (String.concat " " dirs)
