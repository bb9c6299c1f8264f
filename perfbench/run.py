#!/usr/bin/env python3
"""Build and run the RCC benchmark for one workload (or all of them).

    python3 perfbench/run.py --workload multip-steady --seed 1 --seconds 10 --trace 0

    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds perfbench/rccbench.exe (and the
simulator libraries it links) with dune into the checkout's _build, runs
it, and passes its output through: a readable table, then one JSON line
{"correct", "attempted", "failed", "metrics"} as the last line of stdout.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--workload all runs every workload of BENCHMARK.json in turn, one process
each, and prints each one's output under a "== name" header.
Exits non-zero, without a result line, when the build fails, and with
correct = false when a correctness check fails or a workload overruns
--seconds by more than RUN_MARGIN_S.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "rccbench.exe")
# Beyond --seconds a run builds the cluster 31 times and finishes its
# fixed set of deployments (the multip-crash-restart set is ~15 s of CPU).
RUN_MARGIN_S = 150


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/rccbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    else:
        names = [args.workload]
    code = 0
    for name in names:
        if len(names) > 1:
            print("== " + name, flush=True)
        try:
            run = subprocess.run(
                [EXE, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=args.seconds + RUN_MARGIN_S)
        except subprocess.TimeoutExpired:
            # subprocess.run has killed the child and waited for it.
            print("perfbench: %s ran past %d s, killed"
                  % (name, args.seconds + RUN_MARGIN_S), file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}), flush=True)
            code = 1
            continue
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        code = code or run.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
