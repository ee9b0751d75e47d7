#!/usr/bin/env python3
"""Record the benchmark of one checkout in BENCH_<short sha>.json.

    python3 bench.py [--root CHECKOUT] [--seed 1] [--seconds 5]

Runs CHECKOUT's perfbench/run.py (default: this one) for every workload of
its BENCHMARK.json, at --trace 0 for the end-to-end metrics and at --trace 1
for the layers, and writes the last JSON line of each run, with the host,
Python, numpy, seed, seconds and each --trace 0 run's median speed probe, to
BENCH_<short sha>.json in the current directory.  A checkout with
uncommitted changes under src/ gets a "-dirty" suffix.  Compare two files
only when they come from the same host.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    args = ap.parse_args()
    git = ["git", "-C", args.root]
    sha = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                         capture_output=True, text=True).stdout.strip()
    if subprocess.run(git + ["status", "--porcelain", "--", "src"],
                      check=True, capture_output=True, text=True).stdout:
        sha += "-dirty"
    with open(os.path.join(args.root, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    doc = {"sha": sha, "seed": args.seed, "seconds": args.seconds,
           "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                    "platform": platform.platform()}, "runs": {}}
    for name in names:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=args.root, check=True,
                capture_output=True, text=True).stdout
            python, numpy = re.search(r"python=(\S+) numpy=(\S+)", out).groups()
            doc["host"].update(python=python, numpy=numpy)
            run = json.loads(out.strip().splitlines()[-1])
            speed = re.search(r"median speed ([0-9.]+)", out)
            run["speed_probe"] = float(speed.group(1)) if speed else None
            doc["runs"][f"{name} --trace {trace}"] = run
            print(name, trace, "correct" if run["correct"] else "NOT correct",
                  flush=True)
    path = f"BENCH_{sha}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
