module Engine = Nectar_sim.Engine
module Vet = Nectar_vet.Vet

type world = {
  engine : Engine.t;
  until : Nectar_sim.Sim_time.t option;
  fingerprint : (Fp.t -> unit) option;
  check_now : (unit -> string list) option;
  at_end : unit -> string list;
}

type scenario = {
  name : string;
  descr : string;
  expect_bug : bool;
  vet : bool;
  quiesced : bool;
  budget : int;
  build : unit -> world;
}

type run_result = {
  schedule : Schedule.t;
  steps : Schedule.step list;
  violations : string list;
  final_time : Nectar_sim.Sim_time.t;
}

let state_fp world (cands : Engine.candidate array) =
  let fp = Fp.create () in
  Fp.int fp (Engine.now world.engine);
  Fp.int fp (Engine.pending_digest world.engine);
  (* The candidates of this choice point are already popped off the event
     heap (so pending_digest excludes them); fold them in as an
     order-independent multiset, or states that differ only in the choice
     set would collide. *)
  let acc = ref 0 in
  Array.iter
    (fun c ->
      let h = Fp.create () in
      Fp.int h c.Engine.c_time;
      Fp.string h c.Engine.c_label;
      acc := !acc + Fp.get h)
    cands;
  Fp.int fp !acc;
  Fp.int fp (Array.length cands);
  (match world.fingerprint with Some f -> f fp | None -> ());
  Fp.get fp

(* One run under a forcing policy.  Everything observable is accumulated in
   refs that survive the run even when the scenario raises: a planted bug
   that crashes a process must still yield its decision trace. *)
let run_one scenario (forced : int array) =
  let violations = ref [] in
  let steps = ref [] in
  let depth = ref 0 in
  let final_time = ref 0 in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let body () =
    let w = scenario.build () in
    Engine.set_tie_break w.engine
      (Some
         (fun cands ->
           let d = !depth in
           incr depth;
           let arity = Array.length cands in
           let choice = if d < Array.length forced then forced.(d) else 0 in
           let choice =
             if choice >= arity then begin
               violate
                 "schedule divergence: decision %d wants index %d of %d \
                  candidates (scenario not a pure function of its schedule?)"
                 d choice arity;
               0
             end
             else choice
           in
           (match w.check_now with
           | Some c -> List.iter (fun v -> violations := v :: !violations) (c ())
           | None -> ());
           steps :=
             {
               Schedule.depth = d;
               time = cands.(0).Engine.c_time;
               arity;
               chosen = choice;
               labels = Array.map (fun c -> c.Engine.c_label) cands;
               state = state_fp w cands;
             }
             :: !steps;
           choice));
    (match w.until with
    | None -> Engine.run w.engine
    | Some u -> Engine.run ~until:u w.engine);
    final_time := Engine.now w.engine;
    List.iter (fun v -> violations := v :: !violations) (w.at_end ())
  in
  (if scenario.vet then begin
     let result, findings = Vet.run ~quiesced:scenario.quiesced body in
     (match result with
     | Ok () -> ()
     | Error e -> violate "scenario raised: %s" (Printexc.to_string e));
     List.iter
       (fun fi ->
         if fi.Vet.severity <> Vet.Info then
           violate "vet: %s" (Format.asprintf "%a" Vet.pp_finding fi))
       findings
   end
   else
     match body () with
     | () -> ()
     | exception e -> violate "scenario raised: %s" (Printexc.to_string e));
  let steps = List.rev !steps in
  {
    schedule = List.map (fun s -> s.Schedule.chosen) steps;
    steps;
    violations = List.rev !violations;
    final_time = !final_time;
  }

let replay scenario schedule = run_one scenario (Array.of_list schedule)

type counterexample = {
  cx_schedule : Schedule.t;
  cx_steps : Schedule.step list;
  cx_violations : string list;
}

type stats = {
  runs : int;
  choice_points : int;
  distinct_states : int;
  pruned : int;
  deepest : int;
  budget_exhausted : bool;
}

type outcome = {
  counterexamples : counterexample list;
  stats : stats;
}

(* Decisions into a run beyond which alternatives are not expanded. *)
let max_depth = 400

let explore ?(max_runs = 2000) scenario =
  (* Choice nodes already expanded, keyed by state fingerprint.  Reaching a
     fingerprinted node again — usually via a commuting reordering of
     independent events — skips re-expansion: the sleep-set-style pruning. *)
  let expanded : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let frontier = ref [ [||] ] in
  let runs = ref 0 in
  let choice_points = ref 0 in
  let pruned = ref 0 in
  let deepest = ref 0 in
  let budget_exhausted = ref false in
  let cxs = ref [] in
  let continue_dfs = ref true in
  while !continue_dfs do
    match !frontier with
    | [] -> continue_dfs := false
    | prefix :: rest ->
        if !runs >= max_runs then begin
          budget_exhausted := true;
          continue_dfs := false
        end
        else begin
          frontier := rest;
          incr runs;
          let res = run_one scenario prefix in
          let n_steps = List.length res.steps in
          choice_points := !choice_points + n_steps;
          if n_steps > !deepest then deepest := n_steps;
          if res.violations <> [] then
            cxs :=
              {
                cx_schedule = res.schedule;
                cx_steps = res.steps;
                cx_violations = res.violations;
              }
              :: !cxs;
          let base = Array.of_list res.schedule in
          (* Expand the frontier part of this run (decisions past the forced
             prefix).  Deeper nodes' alternatives are pushed last so they
             are tried first: depth-first order. *)
          List.iter
            (fun (st : Schedule.step) ->
              if st.Schedule.depth >= Array.length prefix && st.arity > 1 then begin
                if st.Schedule.depth >= max_depth then budget_exhausted := true
                else if Hashtbl.mem expanded st.state then incr pruned
                else begin
                  Hashtbl.add expanded st.state ();
                  for alt = st.arity - 1 downto 1 do
                    let p =
                      Array.append (Array.sub base 0 st.Schedule.depth) [| alt |]
                    in
                    frontier := p :: !frontier
                  done
                end
              end)
            res.steps
        end
  done;
  {
    counterexamples = List.rev !cxs;
    stats =
      {
        runs = !runs;
        choice_points = !choice_points;
        distinct_states = Hashtbl.length expanded;
        pruned = !pruned;
        deepest = !deepest;
        budget_exhausted = !budget_exhausted;
      };
  }
