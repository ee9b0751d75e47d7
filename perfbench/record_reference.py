#!/usr/bin/env python3
"""Record the reference summary of every pool item into reference.json.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are the accepted ones: the benchmark
treats any later difference in verdicts, counts or error types, and any
growth of a radius, as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from oracle import REFERENCE_PATH, summarize  # noqa: E402
from workloads import WORKLOADS, clear_caches, run_item  # noqa: E402


def main() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        for item in workload.pool:
            clear_caches()
            try:
                summary = summarize(run_item(item))
            except Exception as exc:  # the recorded outcome is the error type
                summary = summarize(None, exc)
            if "radii" in summary:
                # ten significant digits keep the file small; the oracle's
                # radius slack (1e-9 relative) absorbs the rounding
                summary["radii"] = [float("%.10g" % r) for r in summary["radii"]]
            reference[item.key] = summary
            print("%-40s %s" % (item.key, summary.get("error", "report")), flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
