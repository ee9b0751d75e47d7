"""Every fixed-point record against its fixed point recomputed at 50 digits.

The record path checks no fixed-point residual: fixed_points_tl and
cuspidal._records_for_delta state as lemmas that each point solves its
fixed-point equation and misses the indeterminacy set.  Here mpmath
recomputes, at 50 digits, each circle root (seeded at the section's center),
a_k and b_k, each stratum's fixed points from their defining equations and
the chart-map Jacobian, and the records must agree with them.
"""

import pytest

from siegelcert.cuspidal import certify_cuspidal
from siegelcert.pipeline import certify_three_lines, theorem1_pipeline
from siegelcert.threelines import OrbitData

from oracles import records_at_50_digits

RUNS = {
    "cuspidal --n 8": lambda: certify_cuspidal(8),
    "three-lines --m 2 --n 1": lambda: certify_three_lines(OrbitData((2,), (1,))),
    "three-lines --m 1,2 --n 1,1":
        lambda: certify_three_lines(OrbitData((1, 2), (1, 1))),
    "theorem1 --k 3": lambda: theorem1_pipeline(3),
    "theorem1 --k 4": lambda: theorem1_pipeline(4),
}


@pytest.fixture(scope="module", params=list(RUNS))
def rows(request):
    rows = records_at_50_digits(RUNS[request.param]())
    assert rows
    return rows


def test_each_point_is_fixed_and_determinate_at_50_digits(rows):
    for row in rows:
        assert row.fixed_residual < 1e-40, row.label
        assert row.image_size > 1e-20, row.label


def test_each_record_encloses_its_50_digit_point(rows):
    for row in rows:
        assert row.delta_error <= row.delta_radius, row.label
        assert row.distance < 1e-9, row.label
        assert row.s_error <= row.record.s.radius, row.label
