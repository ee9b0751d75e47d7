"""Certification logic: jacobians vs finite differences, verdict rules."""

import cmath
import random

import pytest

from siegelcert.balls import (ComplexBall, Verdict, ball_in_interval,
                              certified_out_margin)
from siegelcert.certifier import (FixedPointRecord, Location, PointVerdict,
                                  certify_fixed_point, not_root_of_unity,
                                  record_from_jacobian)
from siegelcert.cuspidal import CuspidalParams, QuadMap, certify_cuspidal
from siegelcert.errors import WitnessMismatch
from siegelcert.geometry import (ProjectivePoint, chart_jacobian,
                                 fd_chart_jacobian)
from siegelcert.intpoly import cyclotomic
from siegelcert.pipeline import certify_three_lines, theorem1_pipeline
from siegelcert.threelines import OrbitData, TLMap, ThreeLinesParams


def _fd_match(family_map, pt, chart=None, tol=1e-6):
    jac = chart_jacobian(family_map, pt, chart)
    fd = fd_chart_jacobian(family_map, pt, chart)
    scale = 1 + max(abs(fd[i][j]) for i in range(2) for j in range(2))
    for i in range(2):
        for j in range(2):
            assert abs(jac[i][j].center - fd[i][j]) < tol * scale


def test_jacobian_vs_fd_cuspidal_random_points():
    rng = random.Random(31)
    par = CuspidalParams(0.6098 + 0.7925j)
    qm = QuadMap(par.delta)
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


def test_not_root_of_unity(salem8, salem8_cert):
    assert not_root_of_unity(salem8_cert.circle_roots[0], salem8) is True
    z6 = ComplexBall.exact(cmath.exp(2j * cmath.pi / 6))
    assert not_root_of_unity(z6, cyclotomic(6)) is False
    with pytest.raises(WitnessMismatch):
        not_root_of_unity(ComplexBall.exact(0.5 + 0.5j), salem8)


def _record(s_center, s_radius=1e-12, location=Location.AFFINE_DIAGONAL):
    one = ComplexBall.exact(1)
    s = ComplexBall(complex(s_center), s_radius)
    eig = (one, one)
    return FixedPointRecord(location, ProjectivePoint(0.5, 0.5, 1),
                            ComplexBall.exact(2), one, s, eig)


def test_certify_verdict_table(salem8_cert):
    witness_delta = salem8_cert.circle_roots[2]
    out_conj = [(witness_delta, 0, _record(5.91))]
    in_conj = [(witness_delta, 0, _record(1.0))]

    assert certify_fixed_point(_record(5.91), out_conj, salem8_cert).verdict \
        is PointVerdict.NOT_ROTATION
    v = certify_fixed_point(_record(2.0), out_conj, salem8_cert)
    assert v.verdict is PointVerdict.SIEGEL_CERTIFIED
    assert v.witness is not None and v.witness.margin > 1.5
    assert certify_fixed_point(_record(2.0), in_conj, salem8_cert).verdict \
        is PointVerdict.INCONCLUSIVE
    assert certify_fixed_point(_record(2.0), [], salem8_cert).verdict \
        is PointVerdict.INCONCLUSIVE
    # boundary-straddling rotation number
    assert certify_fixed_point(_record(4.0, 1e-3), out_conj, salem8_cert).verdict \
        is PointVerdict.INCONCLUSIVE
    # a conjugate s with a positive distance margin that ball_in_interval
    # still calls Unknown is no witness
    near_conj = [(witness_delta, 0, _record(4 + 1e-3 + 1e-15, 1e-3))]
    assert certify_fixed_point(_record(2.0), near_conj, salem8_cert).verdict \
        is PointVerdict.INCONCLUSIVE
    # strict-mode failure downgrades instead of blocking
    assert certify_fixed_point(_record(2.0), out_conj, salem8_cert,
                               strict_ok=False).verdict \
        is PointVerdict.INCONCLUSIVE
    # the singular point of the invariant curve is never a rotation
    assert certify_fixed_point(_record(1.0, location=Location.CURVE_SINGULAR),
                               out_conj, salem8_cert).verdict \
        is PointVerdict.NOT_ROTATION


def test_certify_picks_max_margin_witness(salem8_cert):
    d1 = salem8_cert.circle_roots[1]
    d2 = salem8_cert.circle_roots[2]
    conj = [(d1, 0, _record(13.85)), (d2, 1, _record(31.78))]
    v = certify_fixed_point(_record(2.0), conj, salem8_cert)
    assert v.witness.delta is d2 and v.witness.point_index == 1


def test_witness_outside_circle_roots_raises(salem8_cert):
    # a root of unity (cyclotomic(5)) is not a certified circle root
    z = ComplexBall.exact(cmath.exp(2j * cmath.pi / 5))
    with pytest.raises(WitnessMismatch):
        certify_fixed_point(_record(2.0), [(z, 0, _record(6.0))], salem8_cert)


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
            assert ball_in_interval(rec.s, 0.0, 4.0) is Verdict.CERTIFIED_OUT
            assert v.witness.margin == certified_out_margin(rec.s, 0.0, 4.0)
            certified += 1
    assert certified > 0


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
    for rec in _records_for_delta(d0, (d0 + d0.inverse()).realize_real()):
        e1, e2 = rec.eigenvalues
        assert not (e1 + e2).disjoint(rec.trace)
        assert not (e1 * e2).disjoint(rec.det)
        s_check = rec.trace * rec.trace / rec.det
        assert not s_check.disjoint(rec.s)
