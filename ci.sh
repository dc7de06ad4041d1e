#!/bin/sh
# Full local CI: build everything, run the test suite, then the
# correctness gate (nectar-lint + every scenario under nectar-vet),
# then the seeded chaos campaigns, the model-checking gate (schedule
# explorer over the seeded-bug suite plus the node-isolation audit),
# the failover gate (route-policy verifier plus the bounded-blackout
# ring flap campaign), the parallel-engine gate (2-domain scaling
# smoke with built-in determinism double-run, plus the heap-level
# isolation audit of a partitioned world), the fleet-scale gate (a
# 256-CAB incast world over 2 domains with conservation, determinism
# and footprint pins), the collectives gate, the perf-harness smoke (its
# assertions are deterministic delivery/batch counts, exact zero-copy
# byte counters, and the recorded BENCH_perf.json throughputs with
# tracing compiled in but disabled — wall-clock numbers are never
# gated in CI), the trace self-check (Chrome JSON parses, every
# data-path stage appears as a matched begin/end pair, no ring drops),
# and a one-second run of each perfbench workload, which must report
# correct output and no failed operations.
set -eux

dune build @all
dune runtest
dune build @vet
dune build @chaos
dune build @check
dune build @failover
dune build @parallel
dune build @fleet
dune build @coll
dune exec bench/main.exe -- perf-smoke
dune exec bin/nectar_cli.exe -- trace --check --out /tmp/nectar_trace_ci.json
for w in rpc_host_64 tcp_host_8k fleet_hotspot_256 coll_1024; do
  python3 perfbench/run.py --workload "$w" --seconds 1 | tail -n 1 |
    python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)'
done
