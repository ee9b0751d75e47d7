#!/usr/bin/env python3
"""Record the benchmark of one checkout in BENCH_<short sha>.json, or
compare two checkouts in alternating pairs of runs.

    python3 bench.py [--root CHECKOUT] [--seed 1] [--seconds 5]
    python3 bench.py --against BASE --workload W --pairs N [--root CHECKOUT]
                     [--seed 1] [--seconds 5]

The first form runs CHECKOUT's perfbench/run.py (default: this one) for
every workload of its BENCHMARK.json, at --trace 0 for the end-to-end
metrics and at --trace 1 for the layers, and writes the last JSON line of
each run, with the host, Python, numpy, seed, seconds and each --trace 0
run's median speed probe, to BENCH_<short sha>.json in the current
directory.  A checkout with uncommitted changes under src/ gets a "-dirty"
suffix.  Compare two files only when they come from the same host.

The second form writes no file.  It makes N pairs of --trace 0 runs of
workload W, one run of BASE's perfbench/run.py and one of CHECKOUT's per
pair, BASE first in the odd pairs and CHECKOUT first in the even ones.  For
each end-to-end metric of CHECKOUT's BENCHMARK.json it prints each side's
median and quartiles, CHECKOUT's median relative to BASE's as a signed
percentage, and the number of pairs in which CHECKOUT reads better (ties
count for neither); a metric whose CHECKOUT median is worse than BASE's by
more than its bound (BENCHMARK.json, relative) is marked "beyond bound".
It exits 1 if any run was not correct.

Each checkout's runs compile to bytecode under a fresh temporary
PYTHONPYCACHEPREFIX of their own, with PYTHONDONTWRITEBYTECODE removed, so
no checkout's __pycache__ is read or written: a stale one cannot bias
setup_s or peak_rss_mb.  One unmeasured import of the harness fills that
directory before the first run, so every run reads bytecode of its own
source.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile

# the imports of a perfbench/run.py run, from the root of a checkout
WARM_UP = "import sys; sys.path[:0] = ['perfbench', 'src']; import harness"


def checkout_env(root: str, cache: str) -> dict[str, str]:
    """The environment of root's runs, bytecode under the directory cache,
    after one unmeasured import of the harness has written it there."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = cache
    subprocess.run([sys.executable, "-c", WARM_UP], cwd=root, env=env,
                   check=True)
    return env


def run_once(root: str, env: dict[str, str], workload: str, seed: int,
             seconds: float, trace: int) -> tuple[dict, str]:
    """One perfbench/run.py run of the checkout at root: its last JSON line
    and its whole output."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=root, env=env, check=True,
        capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1]), out


def record(args) -> int:
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
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = checkout_env(args.root, cache)
        for name in names:
            for trace in (0, 1):
                run, out = run_once(args.root, env, name, args.seed,
                                    args.seconds, trace)
                python, numpy = re.search(r"python=(\S+) numpy=(\S+)",
                                          out).groups()
                doc["host"].update(python=python, numpy=numpy)
                speed = re.search(r"median speed ([0-9.]+)", out)
                run["speed_probe"] = float(speed.group(1)) if speed else None
                doc["runs"][f"{name} --trace {trace}"] = run
                print(name, trace,
                      "correct" if run["correct"] else "NOT correct",
                      flush=True)
    path = f"BENCH_{sha}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


def _spread(values: list[float]) -> str:
    """median [lower quartile, upper quartile]"""
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def _relative(base: list[float], change: list[float], metric: dict) -> str:
    """change's median relative to base's as a signed percentage, marked
    when it is worse than base's by more than the metric's bound."""
    b, c = statistics.median(base), statistics.median(change)
    if b == 0:
        return "n/a"
    rel = c / b - 1.0
    worse = -rel if metric["better"] == "higher" else rel
    mark = f" beyond bound {metric['bound']:.0%}" if worse > metric["bound"] else ""
    return f"{rel:+.1%}{mark}"


def pairs(args) -> int:
    with open(os.path.join(args.root, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"base": args.against, "change": args.root}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        envs = {side: checkout_env(root, os.path.join(cache, side))
                for side, root in sides.items()}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                run, _ = run_once(sides[side], envs[side], args.workload,
                                  args.seed, args.seconds, 0)
                runs[side].append(run)
            print(f"pair {i + 1} of {args.pairs} ({order[0]} first):",
                  ", ".join(f"{side} {runs[side][-1]['metrics']['reports_per_s']['value']:.4g}"
                            for side in sides), "reports_per_s", flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s a run, "
          f"{args.pairs} pairs; base {args.against}, change {args.root}; "
          "median [quartiles]")
    for metric in metrics:
        name = metric["name"]
        base, change = ([run["metrics"][name]["value"] for run in runs[side]]
                        for side in ("base", "change"))
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        print(f"  {name:15} {metric['unit']:5} base {_spread(base):28} "
              f"change {_spread(change):28} "
              f"{_relative(base, change, metric):8} change wins {wins} of "
              f"{args.pairs}")
    wrong = [side for side in sides for run in runs[side] if not run["correct"]]
    for side in sorted(set(wrong)):
        print(f"  {wrong.count(side)} {side} run(s) NOT correct")
    return 1 if wrong else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--against", metavar="BASE",
                    help="compare --root against this checkout in pairs")
    ap.add_argument("--workload", help="the workload of the pairs")
    ap.add_argument("--pairs", type=int, help="the number of pairs")
    args = ap.parse_args()
    if args.against is None:
        if args.workload is not None or args.pairs is not None:
            ap.error("--workload and --pairs need --against")
        return record(args)
    if args.workload is None or args.pairs is None or args.pairs < 1:
        ap.error("--against needs --workload and --pairs N >= 1")
    return pairs(args)


if __name__ == "__main__":
    sys.exit(main())
