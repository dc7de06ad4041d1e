#!/bin/sh
# Full local CI: build, the test suite, the source lint, every entry of
# the scenario registry (bin/registry.ml) at CI sizes, then a one-second
# run of each perfbench workload, which must report correct output and
# no failed operations; each prints its deterministic figures (the sim_*
# metrics and alloc_words_per_op), so two CI logs show whether anything
# simulated moved.  `nectar_cli run --list` names every entry.
# Ends by printing the .ml+.mli line counts of lib/bin/bench/test.
set -eux

# dune-workspace selects the release profile; the dev profile's -opaque
# would stop cross-module inlining without failing anything else.
if dune rules _build/default/lib/sim/.nectar_sim.objs/native/nectar_sim__Engine.cmx |
  grep -q -- -opaque; then
  echo "ci: libraries build with -opaque (dev profile); see dune-workspace" >&2
  exit 1
fi
dune build @all
dune runtest
dune exec bin/nectar_lint.exe -- lib
dune exec bin/nectar_cli.exe -- run --smoke
for w in rpc_host_64 tcp_host_8k fleet_hotspot_256 coll_1024; do
  python3 perfbench/run.py --workload "$w" --seconds 1 | tail -n 1 |
    python3 -c 'import json, sys
r = json.loads(sys.stdin.read()); m = r["metrics"]
print(sys.argv[1], " ".join("%s=%s" % (k, m[k]["value"]) for k in sorted(m)
      if k.startswith("sim_") or k == "alloc_words_per_op"))
sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)' "$w"
done
set +x
lines() { find "$@" -name '*.ml' -o -name '*.mli' | xargs cat | wc -l; }
for d in lib bin bench test; do echo "$d $(lines "$d")"; done
echo "total $(lines lib bin bench test)"
