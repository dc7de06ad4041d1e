(* Wall-clock micro-benchmarks (Bechamel) of the hot primitives of the
   implementation itself — the simulator and protocol machinery, not the
   simulated hardware.  Useful for keeping the reproduction fast. *)

open Bechamel
open Toolkit

let checksum_8k =
  let buf = Bytes.make 8192 '\x5a' in
  Test.make ~name:"inet_checksum 8KB" (Staged.stage (fun () ->
      ignore (Nectar_util.Inet_checksum.checksum buf ~pos:0 ~len:8192)))

let crc_8k =
  let buf = Bytes.make 8192 '\x5a' in
  Test.make ~name:"crc32 8KB" (Staged.stage (fun () ->
      ignore (Nectar_util.Crc32.digest buf ~pos:0 ~len:8192)))

let engine_1k_events =
  Test.make ~name:"engine: 1k timer events" (Staged.stage (fun () ->
      let eng = Nectar_sim.Engine.create () in
      for i = 1 to 1000 do
        ignore (Nectar_sim.Engine.at eng i (fun () -> ()))
      done;
      Nectar_sim.Engine.run eng))

let mailbox_cycle =
  Test.make ~name:"mailbox put+get cycle" (Staged.stage (fun () ->
      let eng = Nectar_sim.Engine.create () in
      let heap =
        Nectar_core.Buffer_heap.create (Nectar_util.Region.create 4096)
      in
      let mb = Nectar_core.Mailbox.create eng ~heap ~name:"m" () in
      let ctx : Nectar_core.Ctx.t =
        { eng; work = (fun _ -> ()); may_block = true; ctx_name = "b";
          on_cpu = None }
      in
      Nectar_sim.Engine.spawn eng (fun () ->
          for _ = 1 to 10 do
            let m = Nectar_core.Mailbox.begin_put ctx mb 64 in
            Nectar_core.Mailbox.end_put ctx mb m;
            let r = Nectar_core.Mailbox.begin_get ctx mb in
            Nectar_core.Mailbox.end_get ctx r
          done);
      Nectar_sim.Engine.run eng))

let run () =
  Bench_world.section "Micro-benchmarks (wall clock, Bechamel)";
  let tests = [ checksum_8k; crc_8k; engine_1k_events; mailbox_cycle ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let instance = Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name m ->
          let est = Analyze.one ols instance m in
          match Analyze.OLS.estimates est with
          | Some (t :: _) -> Printf.printf "  %-28s %12.0f ns/run\n" name t
          | Some [] | None -> Printf.printf "  %-28s (no estimate)\n" name)
        results)
    tests
