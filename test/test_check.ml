(* lib/check: schedule explorer, recorded schedules, isolation auditor. *)

open Nectar_check

let check_int = Alcotest.(check int)

let seeded =
  List.filter (fun (s : Explore.scenario) -> s.expect_bug) Scenarios.all

let clean_scenarios =
  List.filter (fun (s : Explore.scenario) -> not s.expect_bug) Scenarios.all

(* Every seeded bug is invisible to a single default-order run: that is
   the acceptance bar for the explorer — it must catch what one run
   cannot. *)
let test_seeded_bugs_default_clean () =
  List.iter
    (fun (s : Explore.scenario) ->
      let r = Explore.run_one s [||] in
      Alcotest.(check (list string))
        (s.name ^ ": default order sees nothing") [] r.violations)
    seeded

let test_seeded_bugs_found_and_replayable () =
  Alcotest.(check bool) "at least two seeded bugs" true (List.length seeded >= 2);
  List.iter
    (fun (s : Explore.scenario) ->
      let o = Explore.explore ~max_runs:200 s in
      match o.counterexamples with
      | [] -> Alcotest.failf "%s: seeded bug not found" s.name
      | cx :: _ ->
          Alcotest.(check bool)
            (s.name ^ ": counterexample is a real schedule")
            true
            (cx.cx_schedule <> []);
          (* replay the recorded schedule: same violation, same decisions *)
          let r = Explore.replay s cx.cx_schedule in
          Alcotest.(check (list string))
            (s.name ^ ": replay reproduces the violations")
            cx.cx_violations r.violations;
          Alcotest.(check (list int))
            (s.name ^ ": replay takes the recorded decisions")
            cx.cx_schedule r.schedule)
    seeded

let test_clean_scenarios_stay_clean () =
  List.iter
    (fun (s : Explore.scenario) ->
      let o = Explore.explore ~max_runs:(min 120 s.budget) s in
      check_int
        (s.name ^ ": no counterexample in any explored interleaving")
        0
        (List.length o.counterexamples);
      Alcotest.(check bool) (s.name ^ ": explored something") true
        (o.stats.runs >= 1))
    clean_scenarios

let test_pruning_reduces_runs () =
  (* the fixed ack-race world reaches the same post-ack state through
     several commuting orderings: pruning must fire at least once and the
     exploration must terminate without exhausting a generous budget *)
  match Scenarios.find "ack-race-fixed" with
  | None -> Alcotest.fail "scenario registry lost ack-race-fixed"
  | Some s ->
      let o = Explore.explore ~max_runs:1000 s in
      Alcotest.(check bool) "terminated below budget" false
        o.stats.budget_exhausted;
      Alcotest.(check bool) "fingerprint pruning fired" true (o.stats.pruned > 0)

(* ---------- schedules ---------- *)

let test_schedule_roundtrip () =
  let s = [ 0; 2; 1; 17 ] in
  Alcotest.(check (list int))
    "roundtrip" s
    (Schedule.of_string (Schedule.to_string s));
  Alcotest.(check string) "rendering" "0.2.1.17" (Schedule.to_string s);
  Alcotest.(check (list int)) "empty" [] (Schedule.of_string "");
  Alcotest.check_raises "garbage rejected"
    (Invalid_argument "Schedule.of_string: 1.x") (fun () ->
      ignore (Schedule.of_string "1.x"))

(* ---------- fingerprints ---------- *)

let test_fp_deterministic_and_sensitive () =
  let digest feed =
    let fp = Fp.create () in
    feed fp;
    Fp.get fp
  in
  let a = digest (fun fp -> Fp.int fp 1; Fp.string fp "x"; Fp.bool fp true) in
  let b = digest (fun fp -> Fp.int fp 1; Fp.string fp "x"; Fp.bool fp true) in
  let c = digest (fun fp -> Fp.int fp 1; Fp.string fp "x"; Fp.bool fp false) in
  check_int "same feed, same digest" a b;
  Alcotest.(check bool) "different feed, different digest" true (a <> c);
  Alcotest.(check bool) "non-negative" true (a >= 0)

(* ---------- isolation ---------- *)

let run_audit name =
  match Scenarios.find_audit name with
  | None -> Alcotest.failf "audit registry lost %s" name
  | Some a -> a.a_run ()

let test_isolation_clean_world () =
  let r = run_audit "datagram-2node" in
  if not (Isolation.clean r) then
    Alcotest.failf "unexpected sharing:\n%s"
      (Format.asprintf "%a" Isolation.pp_report r);
  Alcotest.(check bool) "walk actually covered the stacks" true
    (r.blocks_scanned > 100);
  Alcotest.(check bool) "boundaries were exercised" true (r.boundary_hits > 0)

let test_isolation_planted_ref () =
  let r = run_audit "planted-ref-alias" in
  Alcotest.(check bool) "planted ref reported" false (Isolation.clean r);
  Alcotest.(check bool) "both nodes own the block" true
    (List.exists
       (fun (s : Isolation.shared) ->
         let nodes = List.map fst s.s_owners in
         List.mem "cab-a" nodes && List.mem "cab-b" nodes)
       r.shared_blocks)

let test_isolation_planted_mem () =
  let r = run_audit "planted-mem-alias" in
  Alcotest.(check bool) "planted CAB memory reported" false (Isolation.clean r);
  (* b holds a's memory region (a 2-word record), which a's heap grew
     after the plant; a handle on the old backing bytes would no longer be
     shared and the audit would come back clean *)
  Alcotest.(check bool) "a's memory region is the one shared block" true
    (match r.shared_blocks with
    | [ s ] ->
        s.s_kind = "record/tuple" && s.s_size = 2
        && List.map fst s.s_owners = [ "cab-a"; "cab-b" ]
    | _ -> false)

(* The closinfo decode at the heart of the walker: a ref captured in two
   closures must be discovered through their environments.  If the
   environment offset decode broke, the walk would see no sharing. *)
let test_closure_env_recovery () =
  let shared = ref 0 in
  let f () = incr shared in
  let g () = shared := !shared + 2 in
  let r =
    Isolation.audit
      ~nodes:[ ("f", [ Obj.repr f ]); ("g", [ Obj.repr g ]) ]
      ()
  in
  Alcotest.(check bool) "ref found via both closure envs" false
    (Isolation.clean r);
  (* sanity: keep the closures alive past the audit *)
  f ();
  g ();
  check_int "closures still work" 3 !shared

let test_isolation_boundary_stops_descent () =
  let shared = ref 0 in
  let f () = incr shared in
  let g () = shared := !shared + 2 in
  let r =
    Isolation.audit
      ~nodes:[ ("f", [ Obj.repr f ]); ("g", [ Obj.repr g ]) ]
      ~boundary:[ ("the-ref", Obj.repr shared) ]
      ()
  in
  Alcotest.(check bool) "whitelisted block not reported" true
    (Isolation.clean r);
  Alcotest.(check bool) "boundary hits counted" true (r.boundary_hits >= 2)

let () =
  Alcotest.run "nectar_check"
    [
      ( "explore",
        [
          Alcotest.test_case "seeded bugs: default order clean" `Quick
            test_seeded_bugs_default_clean;
          Alcotest.test_case "seeded bugs: found and replayable" `Quick
            test_seeded_bugs_found_and_replayable;
          Alcotest.test_case "clean scenarios stay clean" `Quick
            test_clean_scenarios_stay_clean;
          Alcotest.test_case "fingerprint pruning" `Quick
            test_pruning_reduces_runs;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "roundtrip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "fingerprints" `Quick
            test_fp_deterministic_and_sensitive;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "clean two-node world" `Quick
            test_isolation_clean_world;
          Alcotest.test_case "planted ref alias" `Quick
            test_isolation_planted_ref;
          Alcotest.test_case "planted CAB memory alias" `Quick
            test_isolation_planted_mem;
          Alcotest.test_case "closure env recovery" `Quick
            test_closure_env_recovery;
          Alcotest.test_case "boundary stops descent" `Quick
            test_isolation_boundary_stops_descent;
        ] );
    ]
