#!/usr/bin/env python3
"""Build and run the benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe with dune,
runs it, and prints its report; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  The untraced run
(--trace 0) adds the benchmark process's peak RSS as peak_rss_mb.
Exits non-zero, without a result line, if the build or the run fails.
See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

WORKLOADS = ["rpc_host_64", "tcp_host_8k", "fleet_hotspot_256", "coll_1024"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    """Build the benchmark binary in the checkout; returns its path."""
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join("_build", "default", "perfbench", "bench.exe")


def run(exe, args, env):
    """Run the binary; returns (stdout text, exit code, peak RSS in MB)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    killer.start()
    # wait4, not wait: the rusage of this child alone, not of the build
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    killer.cancel()
    reader.join()
    proc.stdout.close()
    # ru_maxrss is in KiB on Linux
    return b"".join(chunks).decode(errors="replace"), proc.returncode, \
        usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1990)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # keep every build product inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    exe = build(env)
    text, code, rss_mb = run(exe, args, env)
    lines = text.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(text)
        fail("benchmark printed no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print(f"  {'peak_rss_mb':34s} {rss_mb:16.6f} MB")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
