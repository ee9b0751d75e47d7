#!/usr/bin/env python3
"""The 50-digit record and verdict checks over the benchmark's input pools.

    python3 tests/oracle_pool.py

Runs the checks of test_oracle_50_digits.py (oracles.point_failures,
enclosure_failures and verdict_failures) on every item of perfbench's
three-lines-sweep pool whose certification completes, and on its
cuspidal-sweep pool, cuspidal n = 4..60.  The pools are read from
perfbench/workloads.py, so both stay the same inputs.  Prints one line per
item, each violation under it, and last the totals; exits 1 when any
violation is found.  It is not collected by pytest: a run takes about a
minute.
"""

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402
from oracles import (enclosure_failures, point_failures,  # noqa: E402
                     records_at_50_digits, verdict_failures)
from siegelcert.cuspidal import certify_cuspidal  # noqa: E402
from siegelcert.errors import SiegelcertError  # noqa: E402
from siegelcert.pipeline import certify_three_lines  # noqa: E402
from siegelcert.threelines import OrbitData  # noqa: E402


def _certify(item):
    if item.kind == "cuspidal":
        return certify_cuspidal(*item.args)
    return certify_three_lines(OrbitData(*item.args))


def main() -> int:
    start = time.perf_counter()
    pool = (workloads.WORKLOADS["three-lines-sweep"].pool
            + workloads.WORKLOADS["cuspidal-sweep"].pool)
    checked = records = verdicts = violations = 0
    for item in pool:
        try:
            report = _certify(item)
        except SiegelcertError as exc:
            print(f"{item.key}: raised {type(exc).__name__}, not checked")
            continue
        try:
            rows = records_at_50_digits(report)
            failures = [f for row in rows for f in point_failures(row)]
            failures += [f for row in rows for f in enclosure_failures(row)]
            verdict_fails, certified = verdict_failures(report, rows)
            failures += verdict_fails
        except ValueError as exc:
            # by_stratum's count mismatch, or Newton failing to converge
            rows, certified, failures = [], 0, [f"ValueError: {exc}"]
        checked += 1
        records += len(rows)
        verdicts += certified
        violations += len(failures)
        print(f"{item.key}: {len(rows)} records, {certified} SiegelCertified, "
              f"{len(failures)} violation(s)")
        for failure in failures:
            print(f"    {failure}")
    print(f"{checked} of {len(pool)} items checked, {records} records, "
          f"{verdicts} SiegelCertified verdicts: {violations} violation(s) "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
