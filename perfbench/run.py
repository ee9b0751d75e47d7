#!/usr/bin/env python3
"""The siegelcert benchmark: certified reports per CPU second, end to end and
layer by layer.

    python3 perfbench/run.py --workload cuspidal-sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from ./src.
One run is one fresh interpreter, one process, no threads: BLAS and OpenMP
thread counts are pinned to 1 and SIEGELCERT_WORKERS is removed.  Before each
item the library's process-wide caches are emptied, because a CLI user fills
them again on every call.

A run visits the workload's pool (see workloads.py) in full passes, in a
seeded order: two passes, then more while the last one still fits in
--seconds.  Each item is one CLI-equivalent call: certify, report_to_dict,
render.  Its outcome is checked against perfbench/reference.json (see
oracle.py).

--trace 0 reports the end-to-end metrics:
    setup_s        median time of 9 fresh interpreters that import
                   siegelcert and build the CLI parser (every CLI call pays it)
    reports_per_s  completed reports per second of item time
    report_p50_ms  median latency of completed reports
    report_tail_ms latency at the workload's fixed tail percentile, chosen as
                   the highest with at least ten samples beyond it in two
                   passes; theorem1-search has two items a pass, so its tail
                   is the maximum.  The run prints the sample count.
    report_frac    completed reports / items attempted
    peak_rss_mb    peak resident memory of the run
--trace 1 alternates an untraced and a traced pass over the same order and
reports per-layer calls, self time and outcome counters per traced pass,
plus trace_overhead_s (traced minus untraced pass time, median over pairs).
Spans are written to .perfbench_out/ when the run ends.

Accounting.  An item that raises the same error type as its reference did
reproduces the CLI's output for that input (a JSON error, exit 1).  It counts
in fail_frac, which the run prints with every error type, and lowers
report_frac, but it is not a failed operation of the benchmark.  The JSON
field "failed" counts items whose outcome differs from the reference; each
prints a diff.  An item that raised at the reference and completes now is
reported as newly completed, not as a mismatch.

Item times are scaled to a reference machine speed by speed.py, because the
host's speed swings by about 1.65x within seconds.  Span times in --trace 1
runs are plain wall time.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Modules: workloads.py (pools, generators, the CLI-shaped call), oracle.py
(reference comparison), speed.py (speed scaling), tracer.py (layer spans),
harness.py (one run), record_reference.py (rewrites reference.json).
Tests: python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "siegelcert", "__init__.py")):
        sys.stderr.write("perfbench: no siegelcert source under %s\n" % SRC)
        return 2
    # before numpy is imported: one process, one thread
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SIEGELCERT_WORKERS", None)
    sys.path.insert(0, SRC)
    import harness
    return harness.run(args, spec, ROOT)


if __name__ == "__main__":
    sys.exit(main())
