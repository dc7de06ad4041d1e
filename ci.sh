#!/bin/sh
# Full local CI: build, the test suite, the source lint, every entry of
# the scenario registry (bin/registry.ml) at CI sizes, then a one-second
# run of each perfbench workload, which must report correct output and
# no failed operations.  `nectar_cli run --list` names every entry.
#
# Old gate -> registry entry:
#   @vet      nectar_lint lib                 -> nectar_lint lib (below)
#   @vet      nectar_cli vet                  -> vet/*
#   @chaos    nectar_cli chaos --seed 1990    -> chaos/*
#   @check    nectar_cli check --smoke        -> check/*
#   @failover nectar_cli route --verify       -> failover/route-verify
#   @failover chaos --only flap-failover      -> chaos/flap-failover
#   @parallel bench scaling-smoke             -> parallel
#   @parallel check partitioned-2dom          -> check/partitioned-2dom
#   @parallel check planted-partition-alias   -> check/planted-partition-alias
#   @fleet    bench fleet-smoke               -> fleet
#   @coll     bench coll-smoke                -> coll
#   @coll     nectar_cli coll --baseline      -> coll
#   bench perf-smoke                          -> perf, failover/blackout
#                                                (its scaling, fleet and coll
#                                                re-runs: parallel, fleet, coll)
#   nectar_cli trace --check                  -> trace
set -eux

dune build @all
dune runtest
dune exec bin/nectar_lint.exe -- lib
dune exec bin/nectar_cli.exe -- run --smoke
for w in rpc_host_64 tcp_host_8k fleet_hotspot_256 coll_1024; do
  python3 perfbench/run.py --workload "$w" --seconds 1 | tail -n 1 |
    python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)'
done
