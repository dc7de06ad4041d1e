(* Paper reproducer: regenerates every table and figure of the paper's
   evaluation (section 6) plus the design-choice ablations, the engine
   micro-benchmarks and the chaos degradation JSON.  The simulator's
   gates and the beyond-the-paper sweeps are entries of the scenario
   registry instead ([nectar_cli run --list]).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig7    -- one experiment
*)

open Nectar_bench

let experiments =
  [
    ("table1", Table1.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("ablations", Ablations.run);
    ("micro", Perf.run_micro);
    ("chaos", Chaos.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  Printf.printf
    "Nectar communication processor: reproduction of the SIGCOMM'90\n\
     evaluation (simulated hardware; see DESIGN.md and EXPERIMENTS.md)\n";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested
