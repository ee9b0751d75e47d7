"""One benchmark run: setup time, measured passes, the oracle, the metrics.

Imported by run.py after it has pinned thread counts and put ./src on the
import path.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy

from oracle import compare, load_reference, summarize
from speed import SpeedProbe, timed
from tracer import ITEM, Tracer, install
from workloads import (WORKLOADS, Item, clear_caches, pass_order, run_item,
                       run_rng)

SETUP_RUNS = 9
# two passes give every tail percentile in workloads.py ten samples beyond it
MIN_PASSES = 2
SETUP_SNIPPET = "import siegelcert.cli as cli; cli.build_parser()"
WARM_UP = Item("cuspidal", (8,))


def measure_setup(root: str, probe: SpeedProbe) -> float:
    """Median scaled wall of SETUP_RUNS fresh interpreters that import
    siegelcert and build the CLI parser.  One unmeasured spawn goes first,
    so that bytecode compilation is not counted."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-c", SETUP_SNIPPET]

    def spawn():
        subprocess.run(cmd, env=env, cwd=root, check=True,
                       stdout=subprocess.DEVNULL)

    spawn()
    times = []
    for _ in range(SETUP_RUNS):
        dt, _, error = timed(probe, spawn, pad=3)
        if error is not None:
            raise error
        times.append(dt)
    return statistics.median(times)


def run_pass(order, probe=None, tracer=None):
    """One pass; returns (seconds, [(item, seconds, summary)]).

    With a tracer, each item runs inside an ITEM span.  Summaries are taken
    after each item's timer stops."""
    results = []
    for item in order:
        clear_caches()

        def call():
            if tracer is None:
                return run_item(item)
            idx = tracer.open(ITEM)
            try:
                return run_item(item)
            finally:
                tracer.close(idx)

        dt, doc, error = timed(probe, call)
        results.append((item, dt, summarize(doc, error)))
    return sum(r[1] for r in results), results


def percentile(sorted_values, pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Tally:
    """Outcomes of the items of one kind of pass, against the reference."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = self.failed = self.unfinished = 0
        self.errors: dict[str, int] = {}
        self.new: set[str] = set()
        self.latencies: list[float] = []

    def add(self, results):
        for item, dt, summary in results:
            self.attempted += 1
            ref = self.reference.get(item.key)
            if ref is None:
                verdict, diffs = "mismatch", ["no reference for this item"]
            else:
                verdict, diffs = compare(ref, summary)
            raised = summary["outcome"] == "error"
            if raised:
                self.errors[summary["error"]] = self.errors.get(summary["error"], 0) + 1
            if verdict == "mismatch":
                self.failed += 1
                print("MISMATCH %s: %s" % (item.key, "; ".join(diffs)))
            if raised or verdict == "mismatch":
                self.unfinished += 1
            else:
                self.latencies.append(dt)
                if verdict == "new":
                    self.new.add(item.key)


def end_to_end(workload, tally: Tally, busy: float, setup_s: float) -> dict:
    values = sorted(tally.latencies)
    tail, beyond = percentile(values, workload.tail_pct) if values else (0.0, 0)
    by_type = ", ".join("%s %d" % kv for kv in sorted(tally.errors.items()))
    print("  fail_frac %.4f: %d of %d items raised or mismatched%s"
          % (tally.unfinished / tally.attempted, tally.unfinished,
             tally.attempted, "; raised: " + by_type if by_type else ""))
    print("  report_tail_ms is p%d of %d completed reports, %d beyond it"
          % (workload.tail_pct, len(values), beyond))
    if tally.new:
        print("  newly completed: %s" % ", ".join(sorted(tally.new)))
    return {
        "setup_s": setup_s,
        "reports_per_s": len(values) / busy,
        "report_p50_ms": 1000.0 * statistics.median(values) if values else 0.0,
        "report_tail_ms": 1000.0 * tail,
        "report_frac": len(values) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def passes(workload, rng, seconds: float, one_pass, at_least: int) -> int:
    """Call one_pass(order) for at least `at_least` full passes, then while
    the last pass still fits in `seconds` of wall time; returns the count."""
    start = time.perf_counter()
    count = 0
    while True:
        t0 = time.perf_counter()
        one_pass(pass_order(workload.pool, rng))
        count += 1
        now = time.perf_counter()
        if count >= at_least and now - start + (now - t0) > seconds:
            return count


def untraced_run(workload, rng, seconds, reference, root) -> tuple[dict, Tally]:
    probe = SpeedProbe()
    setup_s = measure_setup(root, probe)
    tally = Tally(reference)
    busy = []

    def one_pass(order):
        dt, results = run_pass(order, probe)
        busy.append(dt)
        tally.add(results)

    with probe:
        n = passes(workload, rng, seconds, one_pass, MIN_PASSES)
    print("  passes %d, items %d, completed reports %d, scaled busy time %.3f s, "
          "%d speed samples (median speed %.3f)"
          % (n, tally.attempted, len(tally.latencies), sum(busy),
             len(probe.samples), statistics.median(s[2] for s in probe.samples)))
    return end_to_end(workload, tally, sum(busy), setup_s), tally


def traced_run(workload, rng, seconds, reference, names):
    """Pairs of an untraced and a traced pass over the same order; per-layer
    values are per traced pass.  Span times are plain wall time.  Pass times
    are scaled by speed samples taken between items only, since a sample
    inside an item would land in some layer's span."""
    tracer = Tracer()
    probe = SpeedProbe()
    plain, traced = Tally(reference), Tally(reference)
    overheads, problems = [], []

    def one_pass(order):
        wall, results = run_pass(order, probe)
        plain.add(results)
        undo = install(tracer)
        try:
            traced_wall, traced_results = run_pass(order, probe, tracer)
        finally:
            undo()
        traced.add(traced_results)
        overheads.append(traced_wall - wall)
        for (item, _, a), (_, _, b) in zip(results, traced_results):
            if a != b:
                problems.append("traced output differs for %s" % item.key)

    n = passes(workload, rng, seconds, one_pass, 1)
    print("  pass pairs %d, items per pass %d" % (n, len(workload.pool)))
    totals = tracer.totals()
    for layer in workload.expected_layers:
        if not totals.get((layer, "calls")):
            problems.append("%s recorded no calls on %s" % (layer, workload.name))
    values = {"trace_overhead_s": statistics.median(overheads),
              ITEM + ".unaccounted_s": totals.get((ITEM, "self_s"), 0.0) / n}
    for name in names:
        if name not in values:
            layer, counter = name.rsplit(".", 1)
            values[name] = totals.get((layer, counter), 0) / n
    return values, [plain, traced], problems, tracer


def write_spans(root, args, tracer, env):
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({"env": env, "columns": ["layer", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    print("  spans: %s (%d)" % (os.path.relpath(path, root), len(tracer.spans)))


def run(args, spec, root) -> int:
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "machine": platform.machine()}
    workload = WORKLOADS[args.workload]
    print("perfbench %s seed=%d seconds=%g trace=%d python=%s numpy=%s nproc=%s"
          % (workload.name, args.seed, args.seconds, args.trace, env["python"],
             env["numpy"], env["nproc"]))
    reference = load_reference()
    clear_caches()
    run_item(WARM_UP)   # untimed: first numpy calls and lazy imports
    rng = run_rng(workload.name, args.seed)
    problems = []
    if args.trace:
        wanted = spec["per_layer"]
        values, tallies, problems, tracer = traced_run(
            workload, rng, args.seconds, reference, [m["name"] for m in wanted])
        write_spans(root, args, tracer, env)
    else:
        wanted = spec["end_to_end"]
        values, plain = untraced_run(workload, rng, args.seconds, reference, root)
        tallies = [plain]
    for problem in problems:
        print("PROBLEM %s" % problem)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("  %-38s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    failed = sum(t.failed for t in tallies)
    correct = failed == 0 and not problems and all(t.latencies for t in tallies)
    print(json.dumps({"correct": correct,
                      "attempted": sum(t.attempted for t in tallies),
                      "failed": failed, "metrics": metrics}))
    return 0
