"""Certification logic: jacobians vs finite differences, verdict rules."""

import cmath
import random

import pytest

from siegelcert.balls import (ComplexBall, Verdict, ball_in_interval,
                              certified_out_margin)
from siegelcert.certifier import (FixedPointRecord, Location, PointVerdict,
                                  Witness, certify_fixed_point,
                                  certify_sections, record_from_jacobian)
from siegelcert.cuspidal import QuadMap, certify_cuspidal
from siegelcert.errors import CheckFailed, WitnessMismatch
from siegelcert.geometry import ProjectivePoint, chart_jacobian
from siegelcert.pipeline import certify_three_lines, theorem1_pipeline
from siegelcert.threelines import OrbitData, TLMap, ThreeLinesParams

from oracles import certify_sections_scan, fd_chart_jacobian


def _fd_match(family_map, pt, chart=None, tol=1e-6):
    jac = chart_jacobian(family_map, pt, chart)
    fd = fd_chart_jacobian(family_map, pt, chart)
    scale = 1 + max(abs(fd[i][j]) for i in range(2) for j in range(2))
    for i in range(2):
        for j in range(2):
            assert abs(jac[i][j].center - fd[i][j]) < tol * scale


def test_jacobian_vs_fd_cuspidal_random_points():
    rng = random.Random(31)
    qm = QuadMap(0.6098 + 0.7925j)
    checked = 0
    while checked < 100:
        pt = ProjectivePoint(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                             complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 1.0)
        comps = qm.components(*pt.coords)
        if min(abs(c) for c in comps) < 1e-3:
            continue
        _fd_match(qm, pt, chart=2)
        checked += 1


def test_jacobian_vs_fd_three_lines_random_points():
    rng = random.Random(32)
    par = ThreeLinesParams(cmath.rect(1.0, 1.1), (1.3, 2.2), (0.9, 1.7))
    tlm = TLMap.from_params(par)
    checked = 0
    while checked < 100:
        pt = ProjectivePoint(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                             complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 1.0)
        comps = tlm.components(*pt.coords)
        if min(abs(c) for c in comps) < 1e-2:
            continue
        _fd_match(tlm, pt, chart=2)
        checked += 1


def test_w0_eigenvalues_cube_root_pair():
    delta = cmath.rect(1.0, 0.77)
    par = ThreeLinesParams(delta, (1.5, 2.5), (1.1, 2.1))
    tlm = TLMap.from_params(par)
    jac = chart_jacobian(tlm, ProjectivePoint(0, 0, 1), chart=2)
    rec = record_from_jacobian(Location.CURVE_SINGULAR,
                               ProjectivePoint(0, 0, 1), jac)
    omega = cmath.exp(2j * cmath.pi / 3)
    want = {omega / delta, omega.conjugate() / delta}
    got = [e.center for e in rec.eigenvalues]
    for g in got:
        assert min(abs(g - w) for w in want) < 1e-6
    assert abs(rec.s.center - 1.0) < 1e-9


def _record(s_center, s_radius=1e-12, location=Location.AFFINE_DIAGONAL):
    one = ComplexBall.exact(1)
    s = ComplexBall(complex(s_center), s_radius)
    eig = (one, one)
    return FixedPointRecord(location, ProjectivePoint(0.5, 0.5, 1),
                            ComplexBall.exact(2), one, s, eig)


def _probe(cert, records):
    """certify_sections' verdict for an in-range point over circle root 0
    whose only conjugate root, circle root 2, carries records."""
    sections = certify_sections(cert, {cert.circle_roots[0]: [_record(2.0)],
                                       cert.circle_roots[2]: records}, None)
    return sections[0].verdicts[0]


def test_certify_verdict_table(salem8_cert):
    witness_delta = salem8_cert.circle_roots[2]
    out_w = _probe(salem8_cert, [_record(5.91)]).witness
    assert out_w.delta is witness_delta and out_w.point_index == 0

    assert certify_fixed_point(_record(5.91), out_w, salem8_cert,
                               True).verdict is PointVerdict.NOT_ROTATION
    v = certify_fixed_point(_record(2.0), out_w, salem8_cert, True)
    assert v.verdict is PointVerdict.SIEGEL_CERTIFIED
    assert v.witness is not None and v.witness.margin > 1.5
    # an in-range conjugate is no witness
    v = _probe(salem8_cert, [_record(1.0)])
    assert v.verdict is PointVerdict.INCONCLUSIVE and v.witness is None
    assert certify_fixed_point(_record(2.0), None, salem8_cert, True).verdict \
        is PointVerdict.INCONCLUSIVE
    # boundary-straddling rotation number
    assert certify_fixed_point(_record(4.0, 1e-3), out_w, salem8_cert,
                               True).verdict is PointVerdict.INCONCLUSIVE
    # strict-mode failure downgrades instead of blocking
    assert certify_fixed_point(_record(2.0), out_w, salem8_cert,
                               False).verdict is PointVerdict.INCONCLUSIVE
    # the singular point of the invariant curve is never a rotation
    assert certify_fixed_point(_record(1.0, location=Location.CURVE_SINGULAR),
                               out_w, salem8_cert, True).verdict \
        is PointVerdict.NOT_ROTATION


def test_witness_needs_a_certified_out_record(salem8_cert):
    # a conjugate s with a positive distance margin that ball_in_interval
    # still calls Unknown is no witness
    near = _record(4 + 1e-3 + 1e-15, 1e-3)
    assert certified_out_margin(near.s) > 0
    assert ball_in_interval(near.s) is Verdict.UNKNOWN
    v = _probe(salem8_cert, [near])
    assert v.verdict is PointVerdict.INCONCLUSIVE and v.witness is None
    # the curve-singular point is never a witness, whatever its s
    singular = _record(6.0, location=Location.CURVE_SINGULAR)
    assert _probe(salem8_cert, [singular]).witness is None
    v = _probe(salem8_cert, [singular, near, _record(5.0)])
    assert v.verdict is PointVerdict.SIEGEL_CERTIFIED
    assert v.witness.point_index == 2


def test_certify_picks_max_margin_witness(salem8_cert):
    d1 = salem8_cert.circle_roots[1]
    d2 = salem8_cert.circle_roots[2]
    probe = _record(2.0)
    sections = certify_sections(
        salem8_cert, {salem8_cert.circle_roots[0]: [probe],
                      d1: [_record(13.85)], d2: [_record(1.0), _record(31.78)]},
        None)
    v = sections[0].verdicts[0]
    assert v.witness.delta is d2 and v.witness.point_index == 1


def test_equal_margins_first_witness_wins(salem8_cert):
    d0, d1, d2 = salem8_cert.circle_roots[:3]
    # within one root the first record wins, across roots the first root
    sections = certify_sections(
        salem8_cert, {d0: [_record(2.0)],
                      d1: [_record(1.0), _record(7.0), _record(7.0)],
                      d2: [_record(7.0)]}, None)
    w = sections[0].verdicts[0].witness
    assert w.delta is d1 and w.point_index == 1
    assert w.margin == certified_out_margin(_record(7.0).s)
    # the points over d1 see only d0 and d2, so d2's record is theirs
    assert sections[1].verdicts[0].witness.delta is d2


def test_witness_outside_circle_roots_raises(salem8_cert):
    # a root of unity (cyclotomic(5)) is not a certified circle root
    z = ComplexBall.exact(cmath.exp(2j * cmath.pi / 5))
    witness = Witness(z, 0, certified_out_margin(_record(6.0).s))
    with pytest.raises(WitnessMismatch):
        certify_fixed_point(_record(2.0), witness, salem8_cert, True)
    with pytest.raises(WitnessMismatch):
        certify_sections(salem8_cert, {salem8_cert.circle_roots[0]:
                                       [_record(2.0)], z: [_record(6.0)]},
                         None)
    # a point that would not use the witness does not check it
    assert certify_fixed_point(_record(5.0), witness, salem8_cert,
                               True).verdict is PointVerdict.NOT_ROTATION


@pytest.mark.parametrize("run", [
    lambda: certify_cuspidal(8),
    lambda: certify_three_lines(OrbitData((2,), (1,))),
    lambda: certify_three_lines(OrbitData((1, 2), (1, 1))),
    lambda: theorem1_pipeline(3),
], ids=["cuspidal-8", "three-lines-2-1", "three-lines-12-11", "theorem1-3"])
def test_witness_resolves_in_its_own_section(run):
    rep = run()
    certified = 0
    for sec in rep.sections:
        for v in sec.verdicts:
            if v.verdict is not PointVerdict.SIEGEL_CERTIFIED:
                continue
            home = [s for s in rep.sections if s.delta == v.witness.delta]
            assert len(home) == 1 and home[0] is not sec
            rec = home[0].records[v.witness.point_index]
            assert rec.location is not Location.CURVE_SINGULAR
            assert ball_in_interval(rec.s) is Verdict.CERTIFIED_OUT
            assert v.witness.margin == certified_out_margin(rec.s)
            certified += 1
    assert certified > 0


def _reports_for_scan():
    for n in range(4, 41):
        yield f"cuspidal-{n}", certify_cuspidal(n)
    for m, n, strict in (((1, 2), (1, 1), False), ((2, 3), (2, 3), False),
                         ((5,), (5,), False), ((2,), (1,), True)):
        yield f"three-lines-{m}-{n}", certify_three_lines(OrbitData(m, n),
                                                          strict=strict)
    yield "theorem1-3", theorem1_pipeline(3)


def test_certify_sections_matches_the_conjugate_scan():
    """One witness per root gives the verdicts, notes and witnesses of
    scanning every conjugate record for every point."""
    certified = 0
    for name, rep in _reports_for_scan():
        records = {sec.delta: sec.records for sec in rep.sections}
        want = certify_sections_scan(rep.salem_cert, records,
                                     rep.strict_evidence)
        assert len(want) == len(rep.sections), name
        for sec, verdicts in zip(rep.sections, want):
            assert len(sec.verdicts) == len(verdicts), name
            for got, ref in zip(sec.verdicts, verdicts):
                assert (got.verdict, got.note) == (ref.verdict, ref.note), name
                if ref.witness is None:
                    assert got.witness is None, name
                    continue
                certified += 1
                assert got.witness.delta is ref.witness.delta, name
                assert got.witness.point_index == ref.witness.point_index, name
                assert got.witness.margin == ref.witness.margin, name
    assert certified > 800


def test_report_counts_sum(salem8_cert):
    from siegelcert.cuspidal import certify_cuspidal
    rep = certify_cuspidal(8)
    for sec in rep.sections:
        total = (sec.count(PointVerdict.SIEGEL_CERTIFIED)
                 + sec.count(PointVerdict.NOT_ROTATION)
                 + sec.count(PointVerdict.INCONCLUSIVE))
        assert total == len(sec.records) == 2


def test_chart_failure_when_denominator_vanishes():
    from siegelcert.errors import ChartFailure
    par = ThreeLinesParams(1j, (2.0,), (1.0,))
    tlm = TLMap.from_params(par)
    # points of the contracted curve map to the line at infinity, so the
    # affine-chart denominator vanishes there: h(y) x = delta g1(y)
    y = 0.3
    x = 1j * (1 - y / 2.0) / (-1.0 + 0.5)
    with pytest.raises(ChartFailure):
        chart_jacobian(tlm, ProjectivePoint(x, y, 1.0), chart=2)


def test_eigenvalue_trace_det_consistency(salem8_cert):
    from siegelcert.cuspidal import _records_for_delta
    d0 = salem8_cert.circle_roots[0]
    for rec in _records_for_delta(d0):
        e1, e2 = rec.eigenvalues
        assert not (e1 + e2).disjoint(rec.trace)
        assert not (e1 * e2).disjoint(rec.det)
        s_check = rec.trace * rec.trace / rec.det
        assert not s_check.disjoint(rec.s)


def test_record_with_inconsistent_eigenvalues_fails_its_check():
    """Eigenvalues whose sum misses the trace, or whose product misses the
    det, are a failed consistency check of the construction."""
    one, two = ComplexBall.exact(1), ComplexBall.exact(2)
    s = ComplexBall(2.0 + 0j, 1e-12)
    pt = ProjectivePoint(0.5, 0.5, 1)
    FixedPointRecord(Location.GENERIC, pt, two, one, s, (one, one))
    with pytest.raises(CheckFailed, match="inconsistent"):
        FixedPointRecord(Location.GENERIC, pt, two, one, s, (one, two))
    with pytest.raises(CheckFailed, match="inconsistent"):
        FixedPointRecord(Location.GENERIC, pt, two, two, s, (one, one))


def test_zero_discriminant_takes_the_sqrt_fallback():
    """A discriminant ball that contains 0 has no analytic square root; one
    disk around 0 encloses both branches.  Two exact double roots reach it:
    the eigenvalue 1 of [[1, 1], [0, 1]] (trace 2, det 1) and the root t = 1
    of t^2 - 2t + 1 behind the ratio 4 at infinity."""
    from siegelcert.threelines import _infinity_numerators
    one, zero = ComplexBall.exact(1), ComplexBall.exact(0)
    # building the record runs its own eigenvalue trace/det check
    rec = record_from_jacobian(Location.GENERIC, ProjectivePoint(0.5, 0.5, 1),
                               ((one, one), (zero, one)))
    assert rec.trace.contains(2) and rec.det.contains(1)
    assert all(e.contains(1) for e in rec.eigenvalues)
    nums = _infinity_numerators(ComplexBall.exact(4.0))
    assert len(nums) == 2
    assert all(num.contains(2) for num in nums)
