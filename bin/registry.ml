(* The scenario registry: every gate of the simulator as one named entry,
   and the one runner that CI and the CLI share.

     nectar_cli run --smoke              -- every entry at CI sizes
     nectar_cli run chaos/link-flap      -- one entry
     nectar_cli run check --verbose      -- every entry under a prefix
     nectar_cli run --list

   An entry prints what it measures as it goes and returns typed checks.
   The runner prints each failed check and one summary line, and is the
   only code that turns a failure into an exit status. *)

open Nectar_sim
open Nectar_proto
open Nectar_bench
module Vet = Nectar_vet.Vet
module Chaos = Nectar_chaos.Chaos
module Explore = Nectar_check.Explore
module Schedule = Nectar_check.Schedule
module Isolation = Nectar_check.Isolation
module Check_scenarios = Nectar_check.Scenarios
module Router = Nectar_route.Router
module Policy = Nectar_route.Policy
module World = Nectar_fleet.World
module Topology = Nectar_fleet.Topology

type check = Bench_world.check = { msg : string; ok : bool }

let check = Bench_world.check

type opts = {
  smoke : bool;  (** CI sizes instead of the full sweeps *)
  seed : int;  (** chaos fault-plan seed *)
  verbose : bool;
}

type entry = { name : string; about : string; run : opts -> check list }

let print_findings verbose findings =
  List.iter
    (fun fi ->
      if fi.Vet.severity <> Vet.Info || verbose then
        Printf.printf "  %s\n" (Format.asprintf "%a" Vet.pp_finding fi))
    findings

(* ---------- vet ---------- *)

(* Each entry: display name, whether a normal return means the world
   quiesced (deployment is cut off mid-traffic, so leftover in-flight
   state is not a leak), and the scenario body. *)
let vet_scenarios : (string * bool * (unit -> unit)) list =
  [
    ("quickstart", true, Nectar_scenarios.quickstart);
    ( "rpc-task-queue",
      true,
      fun () -> Nectar_scenarios.rpc_task_queue ~range_limit:100_000 () );
    ( "tcp-file-transfer",
      true,
      fun () -> Nectar_scenarios.tcp_file_transfer ~file_bytes:(256 * 1024) ()
    );
    ("netdev-vs-offload", true, fun () -> Nectar_scenarios.netdev_vs_offload ());
    ( "deployment",
      false,
      fun () ->
        (* one TCP pair: three bulk senders over the 8-node mesh congest
           RMP past its retry budget, which aborts the scenario early *)
        Nectar_scenarios.deployment ~nodes:8 ~run_for:(Sim_time.ms 50)
          ~tcp_pairs:1 () );
    ("integration-mesh", true, fun () -> Nectar_scenarios.integration_mesh ());
    ("integration-mixed", true, fun () -> Nectar_scenarios.integration_mixed ());
    ("cli-ping", true, fun () -> Demos.run_ping 2 4 64);
    ( "cli-latency-rmp",
      true,
      fun () -> Demos.run_latency Bench_world.Rmp 64 8 false );
    ( "cli-latency-rpc",
      true,
      fun () ->
        Demos.run_latency Bench_world.(Rpc Reqresp.Thread_server) 64 8 false );
    ( "cli-latency-host",
      true,
      fun () -> Demos.run_latency Bench_world.Dgram 64 8 true );
    ( "cli-throughput-rmp",
      true,
      fun () -> Demos.run_throughput Bench_world.(Rmp, true) 8192 256 );
    ( "cli-throughput-tcp",
      true,
      fun () -> Demos.run_throughput Bench_world.(Tcp, true) 8192 256 );
  ]

let vet_entry (name, quiesced, f) =
  {
    name = "vet/" ^ name;
    about =
      Printf.sprintf "the %s scenario under every vet runtime checker" name;
    run =
      (fun o ->
        Printf.printf "=== vet: %s ===\n%!" name;
        let result, findings = Vet.run ~quiesced f in
        (match result with
        | Ok () -> ()
        | Error e ->
            Printf.printf "  scenario raised: %s\n" (Printexc.to_string e));
        print_findings o.verbose findings;
        let bad =
          Result.is_error result
          || List.exists (fun fi -> fi.Vet.severity <> Vet.Info) findings
        in
        Printf.printf "--- %s: %s\n\n%!" name
          (if bad then "FINDINGS" else "clean");
        [ check (Printf.sprintf "vet %s: runs clean" name) (not bad) ]);
  }

(* ---------- chaos ---------- *)

(* Every campaign runs twice: the same seed must give identical faults,
   stats and findings. *)
let chaos_entry (c : Chaos.campaign) =
  {
    name = "chaos/" ^ c.cname;
    about = c.about;
    run =
      (fun o ->
        let o1 = Chaos.run_campaign ~seed:o.seed c in
        let o2 = Chaos.run_campaign ~seed:o.seed c in
        Printf.printf "=== chaos: %s (seed %d) ===\n" o1.name o1.seed;
        List.iter (fun (k, v) -> Printf.printf "  %-22s %d\n" k v) o1.stats;
        List.iter (fun f -> Printf.printf "  INVARIANT: %s\n" f) o1.failures;
        print_findings o.verbose o1.findings;
        let clean = Chaos.clean o1 and same = Chaos.outcome_equal o1 o2 in
        Printf.printf "--- %s: %s\n\n%!" c.cname
          (if not clean then "FAILURES"
           else if not same then "NONDETERMINISTIC"
           else "clean, deterministic");
        [
          check
            (Printf.sprintf "chaos %s: clean at seed %d" c.cname o.seed)
            clean;
          check
            (Printf.sprintf "chaos %s: deterministic at seed %d" c.cname
               o.seed)
            same;
        ]);
  }

(* ---------- check: schedule explorer and isolation audits ---------- *)

let print_counterexample (cx : Explore.counterexample) =
  Printf.printf "  counterexample schedule: [%s]\n"
    (Schedule.to_string cx.cx_schedule);
  List.iter
    (fun st -> Printf.printf "    %s\n" (Schedule.step_to_string st))
    cx.cx_steps;
  List.iter (fun v -> Printf.printf "    violation: %s\n" v) cx.cx_violations

let explore_entry (s : Explore.scenario) =
  let run o =
    Printf.printf "=== check: %s ===\n%!" s.name;
    Printf.printf "  %s\n" s.descr;
    (* the default-order run must be clean even for seeded bugs: the
       point of the explorer is catching what a single run cannot *)
    let default_run = Explore.run_one s [||] in
    let budget = if o.smoke then min 150 s.budget else s.budget in
    let x = Explore.explore ~max_runs:budget s in
    let st = x.stats in
    Printf.printf
      "  %d runs, %d choice points, %d distinct states, %d pruned, deepest \
       %d%s\n"
      st.runs st.choice_points st.distinct_states st.pruned st.deepest
      (if st.budget_exhausted then " (budget exhausted)" else "");
    let found =
      match (s.expect_bug, x.counterexamples) with
      | true, [] -> check "exploration finds the seeded bug" false
      | true, cx :: _ ->
          Printf.printf "  seeded bug found (default order clean):\n";
          print_counterexample cx;
          let r = Explore.replay s cx.cx_schedule in
          if r.violations <> [] then
            Printf.printf "  replay reproduces: %s\n" (List.hd r.violations);
          check "counterexample reproduces on replay" (r.violations <> [])
      | false, [] ->
          Printf.printf "  clean in every explored interleaving\n";
          check "clean in every explored interleaving" true
      | false, (cx :: _ as cxs) ->
          print_counterexample cx;
          check
            (Printf.sprintf "%d counterexample(s) in a scenario expected clean"
               (List.length cxs))
            false
    in
    if o.verbose && s.expect_bug then begin
      Printf.printf "  default-order decisions:\n";
      List.iter
        (fun st -> Printf.printf "    %s\n" (Schedule.step_to_string st))
        default_run.steps
    end;
    Printf.printf "\n%!";
    [
      check
        (match default_run.violations with
        | [] -> "default-order run clean"
        | vs -> "default-order run violated: " ^ String.concat "; " vs)
        (default_run.violations = []);
      found;
    ]
  in
  { name = "check/" ^ s.name; about = s.descr; run }

let audit_entry (a : Check_scenarios.audit_case) =
  let run o =
    Printf.printf "=== isolation: %s ===\n%!" a.a_name;
    Printf.printf "  %s\n" a.a_descr;
    let r = a.a_run () in
    if o.verbose || not (Isolation.clean r) then
      Printf.printf "%s" (Format.asprintf "%a" Isolation.pp_report r)
    else
      Printf.printf "  scanned %d blocks, %d boundary hits, clean\n"
        r.Isolation.blocks_scanned r.Isolation.boundary_hits;
    if a.a_expect_shared && not (Isolation.clean r) then
      Printf.printf "  planted alias reported, as expected\n";
    Printf.printf "\n%!";
    [
      (if a.a_expect_shared then
         check "planted alias reported" (not (Isolation.clean r))
       else check "no cross-node sharing" (Isolation.clean r));
    ]
  in
  { name = "check/" ^ a.a_name; about = a.a_descr; run }

(* ---------- failover/route-verify ---------- *)

(* The verifier gate: lawful policies must verify clean on every
   topology shape, and planted unlawful ones — a looping pinned route and
   a dead-end rule — must be rejected with the right typed error. *)
let route_verify _ =
  Printf.printf "route verifier (policy obligations):\n";
  let gate what errs ok =
    Printf.printf "  %-52s %s\n" what (if ok then "ok" else "FAIL");
    List.iter
      (fun e -> Printf.printf "      %s\n" (Router.string_of_error e))
      errs;
    check what ok
  in
  (* the default policy verifies on the one-path shapes (chain, ring)
     and the multipath ones: wrap trunks (torus) and parallel two-hop
     spines (fat tree) *)
  let lawful =
    List.map
      (fun (name, hubs, (trunks, seats)) ->
        let w = World.build ~hubs ~trunks ~seats () in
        let errs = Router.verify w.stacks.(0).Stack.router in
        gate (Printf.sprintf "default policy verifies on the %s" name) errs
          (errs = []))
      [
        ("chain", 4, Demos.route_layout ~ring:false ~hubs:4);
        ("ring", 4, Demos.route_layout ~ring:true ~hubs:4);
        ( "3x3 torus",
          9,
          (Topology.torus_trunks ~rows:3 ~cols:3, [ (0, 2); (4, 2) ]) );
        ( "4-leaf fat tree",
          6,
          (Topology.fat_tree_trunks ~leaves:4 ~spines:2, [ (0, 2); (3, 2) ]) );
      ]
  in
  let trunks, seats = Demos.route_layout ~ring:true ~hubs:4 in
  let w = World.build ~hubs:4 ~trunks ~seats () in
  let a = Stack.node_id w.stacks.(0) and b = Stack.node_id w.stacks.(1) in
  let planted what prefer expected =
    let where = Policy.And (Policy.Src a, Policy.Dst b) in
    let policy = [ { Policy.where; prefer; ecmp = false } ] in
    let errs = Router.verify (Router.create ~policy w.net) in
    gate what errs (List.exists expected errs)
  in
  (* hub0 -14-> hub3 -15-> hub0 -14-> hub3 -14-> hub2 -2-> node b: walks
     to the destination over live ports, but revisits two HUBs *)
  let looping =
    planted "planted looping Static route is rejected"
      [ Policy.Static [ 14; 15; 14; 14; 2 ] ]
      (function Router.Looping _ -> true | _ -> false)
  in
  (* avoiding both transit HUBs of the 4-ring leaves no path for a pair
     that is perfectly reachable in the live topology *)
  let unreachable =
    planted "planted unreachable policy is rejected"
      [ Policy.Avoid_hubs [ 1; 3 ] ]
      (function Router.Unreachable _ -> true | _ -> false)
  in
  lawful @ [ looping; unreachable ]

(* ---------- trace ---------- *)

(* Every stage of the fig6 path must appear as a matched begin/end pair. *)
let required_stages =
  [
    "host.begin_put";
    "host.write";
    "host.end_put";
    "host.begin_get";
    "host.read";
    "host.end_get";
    "vme.pio";
    "dl.tx";
    "tx.dma";
    "wire";
    "rx.dma";
  ]

(* Minimal JSON syntax checker (no external dependency): validates that the
   emitted trace is well-formed before CI trusts it. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let fail = ref false in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail := true
  in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> str ()
      | Some 't' -> lit "true"
      | Some 'f' -> lit "false"
      | Some 'n' -> lit "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail := true
    end
  and lit w =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then pos := !pos + String.length w
    else fail := true
  and number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && (match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail := true
  and str () =
    expect '"';
    let closed = ref false in
    while (not !closed) && not !fail do
      if !pos >= n then fail := true
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            closed := true
        | '\\' -> pos := !pos + 2
        | _ -> incr pos
    done
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let more = ref true in
      while !more && not !fail do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
            incr pos;
            more := false
        | _ -> fail := true
      done
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let more = ref true in
      while !more && not !fail do
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
            incr pos;
            more := false
        | _ -> fail := true
      done
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

(* The Figure 6 path under the tracer: its Chrome JSON parses, every
   data-path stage appears as a matched begin/end pair, and the ring did
   not overflow. *)
let trace_check _ =
  let iterations = 4 in
  let ((tracer, _) as traced) = Demos.run_trace_scenario ~iterations in
  Demos.print_trace ~iterations traced;
  let spans = Trace.spans tracer in
  let begins, ends =
    List.fold_left
      (fun (b, e) ev ->
        match ev.Trace.kind with
        | Trace.Span_begin -> (b + 1, e)
        | Trace.Span_end -> (b, e + 1)
        | Trace.Instant -> (b, e))
      (0, 0) (Trace.events tracer)
  in
  check "emitted Chrome JSON parses" (json_valid (Demos.chrome_json tracer))
  :: List.map
       (fun stage ->
         check
           (Printf.sprintf "matched begin/end pair for stage %s" stage)
           (List.exists (fun s -> s.Trace.s_label = stage) spans))
       required_stages
  @ [
      check
        (Printf.sprintf "span matching kept every pair (%d ends, %d matched)"
           ends (List.length spans))
        (List.length spans >= ends);
      check
        (Printf.sprintf "no more span ends (%d) than begins (%d)" ends begins)
        (begins >= ends);
      check
        (Printf.sprintf "ring did not overflow (%d dropped)"
           (Trace.dropped tracer))
        (Trace.dropped tracer = 0);
    ]

(* ---------- the list ---------- *)

let entries =
  List.map vet_entry vet_scenarios
  @ List.map chaos_entry Chaos.campaigns
  @ List.map explore_entry Check_scenarios.all
  @ List.map audit_entry Check_scenarios.audits
  @ [
      {
        name = "failover/route-verify";
        about =
          "lawful routing policies verify; planted looping and unreachable \
           ones are rejected";
        run = route_verify;
      };
      {
        name = "failover/blackout";
        about =
          "25 trunk flaps on a 4-HUB ring: full delivery, every blackout \
           inside its bound";
        run = (fun _ -> Failover.run ());
      };
      {
        name = "parallel";
        about =
          "64-CAB torus over 1/2 (smoke) or 1/2/4/8 domains: conservation, \
           handoffs, determinism";
        run = (fun o -> Fleet_bench.run_scaling ~smoke:o.smoke ());
      };
      {
        name = "fleet";
        about =
          "256-CAB incast (smoke) or 256-1024-CAB sweeps over the parallel \
           engine; footprint";
        run = (fun o -> Fleet_bench.run ~smoke:o.smoke ());
      };
      {
        name = "coll";
        about =
          "tree collectives vs host baseline on 64 (smoke) or 64-1024 CABs; \
           one wakeup per op";
        run =
          (fun o -> Coll_bench.run ~verbose:o.verbose ~smoke:o.smoke ());
      };
      {
        name = "perf";
        about =
          "deterministic perf counters; without --smoke, also writes \
           BENCH_perf.json";
        run = (fun o -> Perf.run ~smoke:o.smoke ());
      };
      {
        name = "trace";
        about =
          "fig6 path under the tracer: Chrome JSON parses, every stage \
           matched, no drops";
        run = trace_check;
      };
    ]

(* ---------- the runner ---------- *)

(* A name selects itself and, as a prefix, every entry below it:
   "check" selects every check/* entry. *)
let selects arg e =
  e.name = arg || String.starts_with ~prefix:(arg ^ "/") e.name

(* Run the entries the names select (all of them for no names) and
   return the exit status: 0 when every check passes, 1 on a failed
   check, 2 on a name that selects nothing. *)
let run ~opts ~list names =
  match
    List.filter (fun a -> not (List.exists (selects a) entries)) names
  with
  | _ :: _ as unknown ->
      Printf.printf "run: unknown entry %s (known: %s)\n"
        (String.concat ", " unknown)
        (String.concat ", " (List.map (fun e -> e.name) entries));
      2
  | [] ->
      let selected =
        if names = [] then entries
        else
          List.filter (fun e -> List.exists (fun a -> selects a e) names) entries
      in
      if list then begin
        List.iter (fun e -> Printf.printf "%-30s %s\n" e.name e.about) selected;
        0
      end
      else begin
        let results =
          List.map
            (fun e ->
              let checks =
                try e.run opts
                with ex ->
                  if Trace.installed () then Trace.uninstall ();
                  [ check ("raised " ^ Printexc.to_string ex) false ]
              in
              let failed = List.filter (fun c -> not c.ok) checks in
              List.iter (fun c -> Printf.printf "  FAIL: %s\n" c.msg) failed;
              Printf.printf "%!";
              (e.name, List.length checks, List.length failed))
            selected
        in
        let checks = List.fold_left (fun n (_, c, _) -> n + c) 0 results in
        match List.filter (fun (_, _, f) -> f > 0) results with
        | [] ->
            Printf.printf "run: %d of %d entries pass (%d checks)\n"
              (List.length selected) (List.length selected) checks;
            0
        | bad ->
            Printf.printf "run: %d of %d entries FAILED (%d of %d checks): %s\n"
              (List.length bad) (List.length selected)
              (List.fold_left (fun n (_, _, f) -> n + f) 0 bad)
              checks
              (String.concat ", " (List.map (fun (n, _, _) -> n) bad));
            1
      end
