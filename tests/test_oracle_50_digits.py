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

from siegelcert.certifier import PointVerdict
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
def report(request):
    return RUNS[request.param]()


@pytest.fixture(scope="module")
def rows(report):
    rows = records_at_50_digits(report)
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


def test_each_siegel_verdict_holds_at_50_digits(report, rows):
    # the witness is the record at point_index in the witness root's section;
    # its certified margin bounds the 50-digit distance of its s from [0, 4]
    s_50 = {(row.section, id(row.record)): row.s for row in rows}
    section_of = {sec.delta: j for j, sec in enumerate(report.sections)}
    certified = 0
    for i, sec in enumerate(report.sections):
        for rec, v in zip(sec.records, sec.verdicts):
            if v.verdict is not PointVerdict.SIEGEL_CERTIFIED:
                continue
            s = s_50[(i, id(rec))]
            assert abs(s.imag) < 1e-30 and 0 < s.real < 4, (i, rec.coords)
            j = section_of[v.witness.delta]
            assert j != i
            witness = report.sections[j].records[v.witness.point_index]
            s_star = s_50[(j, id(witness))]
            distance = abs(s_star - min(max(s_star.real, 0), 4))
            assert distance > 0, (j, witness.coords)
            assert distance >= v.witness.margin - 1e-12, (j, witness.coords)
            certified += 1
    assert certified >= 2
