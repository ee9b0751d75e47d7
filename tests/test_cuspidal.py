"""Cuspidal-cubic family: map identities, orbit closure, fixed-point data."""

import cmath
import random

import pytest

from siegelcert import cuspidal
from siegelcert.balls import ComplexBall, Verdict, ball_in_interval
from siegelcert.certifier import PointVerdict
from siegelcert.cuspidal import (CurvePoint, CuspidalParams, QuadMap,
                                 certify_cuspidal, closure_residual,
                                 curve_restriction, fixed_points_cuspidal,
                                 orbit_polynomial, quad_map_eval, s_value,
                                 _records_for_delta)
from siegelcert.errors import (CheckFailed, DegenerateTau, Indeterminate,
                               NoSalemFactor, PoleAtTau)
from siegelcert.geometry import ProjectivePoint, chart_jacobian, fd_chart_jacobian
from siegelcert.intpoly import IntPolynomial
from siegelcert.roots import ComplexPolynomial, poly_roots

DELTA0 = 0.6098 + 0.7925j


def _oracle_components(delta, pt):
    """Independent term-by-term evaluation of the three homogeneous forms."""
    d = (1 - delta) / (3 * delta)
    x, y, z = pt
    fx = delta * (x * y - 2 * d * y * z + 2 * d**3 * x * z - d**4 * z**2)
    fy = delta**3 * (y**2 - 3 * d**2 * x * y + 3 * d**4 * x**2 - d**6 * z**2)
    fz = y * z - 3 * d * x**2 + 3 * d**2 * x * z - d**3 * z**2
    return (fx, fy, fz)


def test_params_derived_quantities():
    p = CuspidalParams(2.0 + 0j)
    assert p.d == (1 - 2) / 6
    assert p.tau == 2.5
    with pytest.raises(ValueError):
        CuspidalParams(1.0)
    with pytest.raises(ValueError):
        CuspidalParams(0.0)


def test_origin_maps_to_curve_point():
    par = CuspidalParams(DELTA0)
    img = quad_map_eval(par, ProjectivePoint(0, 0, 1))
    expect = CurvePoint(par.delta * par.d).embed()
    assert img.distance(expect) < 1e-12


def test_curve_equivariance_at_listed_root():
    par = CuspidalParams(DELTA0)
    t = CurvePoint(1.0)
    img = quad_map_eval(par, t.embed())
    assert img.distance(curve_restriction(par, t).embed()) < 1e-12


def test_direct_formula_oracle():
    par = CuspidalParams(1j)
    img = quad_map_eval(par, ProjectivePoint(1, 1, 1))
    assert img.distance(ProjectivePoint(*_oracle_components(1j, (1, 1, 1)))) < 1e-14


def test_indeterminacy_at_forward_point():
    par = CuspidalParams(DELTA0)
    with pytest.raises(Indeterminate):
        quad_map_eval(par, CurvePoint(par.d).embed())


def test_equivariance_property_random():
    rng = random.Random(3)
    for _ in range(10):
        delta = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0, 2 * cmath.pi))
        if abs(delta - 1) < 0.1:
            continue
        par = CuspidalParams(delta)
        for _ in range(20):
            t = CurvePoint(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            try:
                img = quad_map_eval(par, t.embed())
            except Indeterminate:
                continue
            assert img.distance(curve_restriction(par, t).embed()) < 1e-9


def test_curve_restriction_total_at_indeterminacy():
    par = CuspidalParams(DELTA0)
    out = curve_restriction(par, CurvePoint(par.d))
    assert abs(out.t - par.delta * 2 * par.d) < 1e-15


def test_orbit_polynomial_instances(salem8):
    assert orbit_polynomial(8) == IntPolynomial((1, 1)) * salem8
    assert orbit_polynomial(1) == IntPolynomial((1, -1, 1))
    with pytest.raises(ValueError):
        orbit_polynomial(0)


def test_orbit_polynomial_n2_closure_oracle():
    p = orbit_polynomial(2)
    roots = poly_roots(ComplexPolynomial(tuple(map(float, p.coeffs))))
    for b in roots:
        assert closure_residual(b.center, 2) < 1e-10


def test_backward_orbit_parameter_reaches_forward(salem8):
    """Eight curve-restriction steps from the backward abscissa hit d."""
    roots = poly_roots(ComplexPolynomial(tuple(map(float, salem8.coeffs))))
    for b in roots:
        par = CuspidalParams(b.center)
        t = CurvePoint(-par.delta * par.d)
        for _ in range(8):
            t = curve_restriction(par, t)
        assert abs(t.t - par.d) < 1e-10


def test_fixed_points_at_tau0_intervals(salem8_cert):
    d0 = salem8_cert.circle_roots[0]
    recs = _records_for_delta(d0, (d0 + d0.inverse()).realize_real())
    xs = sorted(r.coords.x.real for r in recs)
    assert -0.283 <= xs[0] <= -0.282
    assert 0.022 <= xs[1] <= 0.023


def test_fixed_point_at_tau_star_interval(salem8_cert):
    dstar = salem8_cert.circle_roots[2]
    tau = (dstar + dstar.inverse()).realize_real()
    assert -1.496 <= tau.center.real <= -1.495
    recs = _records_for_delta(dstar, tau)
    xs = sorted(r.coords.x.real for r in recs)
    assert -0.711 <= xs[0] <= -0.710


def test_degenerate_tau_rejected():
    # delta a primitive cube root of unity gives tau = -1
    omega = cmath.exp(2j * cmath.pi / 3)
    with pytest.raises(DegenerateTau):
        fixed_points_cuspidal(CuspidalParams(omega))


def test_fixed_point_records_verified(salem8_cert):
    par = CuspidalParams(salem8_cert.circle_roots[0].center)
    recs = fixed_points_cuspidal(par)
    assert len(recs) == 2
    for rec in recs:
        img = quad_map_eval(par, rec.coords)
        assert rec.coords.distance(img) < 1e-9
        assert rec.det.contains(par.delta)


def test_fixed_point_residual_check_raises_typed_error(salem8_cert,
                                                       monkeypatch):
    monkeypatch.setattr(cuspidal, "RESIDUAL_TOL", 1e-300)
    par = CuspidalParams(salem8_cert.circle_roots[0].center)
    with pytest.raises(CheckFailed, match="fixed-point residual"):
        fixed_points_cuspidal(par)


def test_certify_cuspidal_checks_fixed_point_residuals(monkeypatch):
    monkeypatch.setattr(cuspidal, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(CheckFailed, match="fixed-point residual"):
        certify_cuspidal(8)


def test_s_value_reference_endpoints():
    cases = [
        ((1.219, 0.022), 2.05, Verdict.CERTIFIED_IN),
        ((1.220, -0.283), 3.12, Verdict.CERTIFIED_IN),
        ((-1.495, -0.710), 5.91, Verdict.CERTIFIED_OUT),
    ]
    for (tau, x), bound, want in cases:
        s = s_value(tau, x)
        if want is Verdict.CERTIFIED_IN:
            assert s.center.real + s.radius < bound
        else:
            assert s.center.real - s.radius > bound
        assert ball_in_interval(s, 0.0, 4.0) is want


def test_s_value_pole():
    with pytest.raises(PoleAtTau):
        s_value(-2.0, 0.1)


def test_s_value_matches_record_ball(salem8_cert):
    d0 = salem8_cert.circle_roots[0]
    tau = (d0 + d0.inverse()).realize_real()
    for rec in _records_for_delta(d0, tau):
        via_formula = s_value(tau, ComplexBall.exact(rec.coords.x))
        assert abs(via_formula.center - rec.s.center) < 1e-9


def test_cusp_eigenvalues_closed_form_and_fd(salem8_cert):
    d0 = salem8_cert.circle_roots[0].center
    qm = QuadMap(d0)
    cusp = ProjectivePoint(0, 1, 0)
    jac = chart_jacobian(qm, cusp, chart=1)
    fd = fd_chart_jacobian(qm, cusp, chart=1)
    for i in range(2):
        for j in range(2):
            assert abs(jac[i][j].center - fd[i][j]) < 1e-6
    tr = jac[0][0] + jac[1][1]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    assert abs(tr.center - (1 / d0**2 + 1 / d0**3)) < 1e-6
    assert abs(det.center - 1 / d0**5) < 1e-8


def test_certify_cuspidal_main_instance():
    rep = certify_cuspidal(8)
    assert abs(rep.entropy - 0.6901) < 1e-3
    principal = rep.principal_section
    assert abs(principal.delta.center - DELTA0) < 5e-4
    assert principal.count(PointVerdict.SIEGEL_CERTIFIED) == 2
    for v in principal.verdicts:
        assert v.verdict is PointVerdict.SIEGEL_CERTIFIED
        assert abs(v.witness.delta.center - (-0.7478 + 0.6640j)) < 5e-4
    # the hard cap from the four-point bound: never more than 2 per root
    for sec in rep.sections:
        assert sec.count(PointVerdict.SIEGEL_CERTIFIED) <= 2
    assert not rep.has_inconclusive


def test_certify_cuspidal_conjugation_stability():
    rep = certify_cuspidal(8)
    by_delta = {sec.delta.center: [v.verdict for v in sec.verdicts]
                for sec in rep.sections}
    for delta, verdicts in by_delta.items():
        partner = min(by_delta, key=lambda z: abs(z - delta.conjugate()))
        assert abs(partner - delta.conjugate()) < 1e-9
        assert sorted(v.value for v in by_delta[partner]) == \
            sorted(v.value for v in verdicts)


def test_certify_cuspidal_rejects_cyclotomic_orbit():
    with pytest.raises(NoSalemFactor):
        certify_cuspidal(1)


def test_certify_cuspidal_strict_evidence():
    rep = certify_cuspidal(8, strict=True)
    ev = rep.strict_evidence
    assert ev is not None
    assert ev.resultant_degree == 16
    # the raw resultant is a square; the minimal-polynomial candidate is its
    # squarefree part, which the mod-p search certifies irreducible
    assert ev.candidate_degree == 8
    assert ev.irreducible and ev.prime == 7
    assert not rep.has_inconclusive


def test_fixed_points_sampled_tau_residuals():
    rng = random.Random(5)
    checked = 0
    while checked < 10:
        theta = rng.uniform(0.3, 2.8)
        delta = cmath.rect(1.0, theta)
        tau = 2 * cmath.cos(theta)
        if min(abs(tau - 2), abs(tau + 1), abs(tau + 2)) < 0.2:
            continue
        recs = fixed_points_cuspidal(CuspidalParams(delta))
        assert len(recs) == 2
        checked += 1
