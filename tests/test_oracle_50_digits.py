"""Every fixed-point record against its fixed point recomputed at 50 digits.

The record path checks no fixed-point residual: fixed_points_tl and
cuspidal._records_for_delta state as lemmas that each point solves its
fixed-point equation and misses the indeterminacy set.  Here mpmath
recomputes, at 50 digits, each circle root (seeded at the section's center),
a_k and b_k, each stratum's fixed points from their defining equations and
the chart-map Jacobian, and the records must agree with them.  The verdicts
must hold for the 50-digit values too: each SiegelCertified point's s lies
in (0, 4), and its witness's s lies outside [0, 4].
"""

import pytest

from siegelcert.cuspidal import certify_cuspidal
from siegelcert.pipeline import certify_three_lines, theorem1_pipeline
from siegelcert.threelines import OrbitData

from oracles import (enclosure_failures, point_failures, records_at_50_digits,
                     verdict_failures)

RUNS = {
    "cuspidal --n 8": lambda: certify_cuspidal(8),
    "three-lines --m 2 --n 1": lambda: certify_three_lines(OrbitData((2,), (1,))),
    "three-lines --m 1,2 --n 1,1":
        lambda: certify_three_lines(OrbitData((1, 2), (1, 1))),
    "theorem1 --k 3": lambda: theorem1_pipeline(3),
    "theorem1 --k 4": lambda: theorem1_pipeline(4),
}


@pytest.fixture(scope="module", params=list(RUNS))
def report(request):
    return RUNS[request.param]()


@pytest.fixture(scope="module")
def rows(report):
    rows = records_at_50_digits(report)
    assert rows
    return rows


def test_each_point_is_fixed_and_determinate_at_50_digits(rows):
    assert [f for row in rows for f in point_failures(row)] == []


def test_each_record_encloses_its_50_digit_point(rows):
    assert [f for row in rows for f in enclosure_failures(row)] == []


def test_each_siegel_verdict_holds_at_50_digits(report, rows):
    failures, certified = verdict_failures(report, rows)
    assert failures == []
    assert certified >= 2
