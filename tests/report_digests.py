#!/usr/bin/env python3
"""SHA-256 digests of every benchmark pool item's rendered output.

    python3 tests/report_digests.py > digests.txt

For each item of the four pools in perfbench/workloads.py (read, not
edited) it runs the CLI-equivalent call of workloads.run_item and prints
one line: workload, item key and the SHA-256 of the rendered report, or of
the rendered CLI error object (its type and message) when the item raises.
Two checkouts whose outputs agree print the same lines, so `diff` of two
runs shows byte identity of every report and error over the pools.  The
last line gives the item count.  It takes a few seconds and is not
collected by pytest.  The digests depend on the machine: numpy's SIMD code
can change the last bits of a root enclosure (see perfbench/oracle.py's
RADIUS_SLACK), so compare runs made on the same machine.
"""

import hashlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402
from siegelcert.errors import SiegelcertError  # noqa: E402
from siegelcert.report import render  # noqa: E402


def digest(item) -> str:
    """The SHA-256 of what the CLI prints for item."""
    workloads.clear_caches()
    try:
        text = render(workloads.run_item(item))
    except (SiegelcertError, ValueError) as exc:
        text = render({"error": {"stage": type(exc).__name__,
                                 "message": str(exc)}})
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    count = 0
    for name, workload in workloads.WORKLOADS.items():
        for item in workload.pool:
            print(f"{name}\t{item.key}\t{digest(item)}", flush=True)
            count += 1
    print(f"{count} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
