(* Bench harness: regenerates every table and figure of the paper's
   evaluation (section 6) plus the design-choice ablations.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig7    -- one experiment
*)

let experiments =
  [
    ("table1", Table1.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("ablations", Ablations.run);
    ("micro", Micro.run);
    ("chaos", Chaos.run);
    (* beyond-the-paper experiments; not in the default list so the
       default run keeps producing exactly the paper tables *)
    ("failover", Failover.run);
    ("perf", Perf.run ~smoke:false);
    ("perf-smoke", Perf.run ~smoke:true);
    ("scaling", Fleet_bench.run_scaling ~smoke:false);
    ("scaling-smoke", Fleet_bench.run_scaling ~smoke:true);
    ("fleet", Fleet_bench.run ~smoke:false);
    ("fleet-smoke", Fleet_bench.run ~smoke:true);
    ("coll", Coll_bench.run ~smoke:false);
    ("coll-smoke", Coll_bench.run ~smoke:true);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> [ "table1"; "fig6"; "fig7"; "fig8"; "ablations"; "micro"; "chaos" ]
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
