"""Cuspidal-cubic family: map identities, orbit closure, fixed-point data."""

import cmath
import dataclasses
import math
import random

import pytest

from siegelcert import certifier, cohomology, cuspidal, salem
from siegelcert.balls import ComplexBall, Verdict, ball_in_interval
from siegelcert.certifier import Location, PointVerdict
from siegelcert.cuspidal import (QuadMap, certify_cuspidal, orbit_polynomial,
                                 s_value, _records_for_delta)
from siegelcert.errors import DegenerateTau, NoSalemFactor, PoleAtTau
from siegelcert.geometry import ProjectivePoint, chart_jacobian
from siegelcert.intpoly import IntPolynomial
from siegelcert.roots import ComplexPolynomial, poly_roots
from siegelcert.salem import is_salem
from siegelcert.threelines import OrbitData, salem_from_orbit

from oracles import (QuadIndeterminate, closure_residual, conjugate_leaders,
                     fd_chart_jacobian, quad_map_eval, r_tau_reference,
                     records_for_delta_reference,
                     tau_quadratic_roots_reference)

DELTA0 = 0.6098 + 0.7925j


def _d(delta):
    return (1 - delta) / (3 * delta)


def _curve_point(t) -> ProjectivePoint:
    """The smooth-locus point [t : t^3 : 1]."""
    return ProjectivePoint(t, t ** 3, 1.0)


def _oracle_components(delta, pt):
    """Independent term-by-term evaluation of the three homogeneous forms."""
    d = (1 - delta) / (3 * delta)
    x, y, z = pt
    fx = delta * (x * y - 2 * d * y * z + 2 * d**3 * x * z - d**4 * z**2)
    fy = delta**3 * (y**2 - 3 * d**2 * x * y + 3 * d**4 * x**2 - d**6 * z**2)
    fz = y * z - 3 * d * x**2 + 3 * d**2 * x * z - d**3 * z**2
    return (fx, fy, fz)


def test_origin_maps_to_curve_point():
    img = quad_map_eval(DELTA0, ProjectivePoint(0, 0, 1))
    assert img.distance(_curve_point(DELTA0 * _d(DELTA0))) < 1e-12


def test_curve_equivariance_at_listed_root():
    # the restriction to the smooth locus is t -> delta (t + d)
    t = 1.0
    img = quad_map_eval(DELTA0, _curve_point(t))
    assert img.distance(_curve_point(DELTA0 * (t + _d(DELTA0)))) < 1e-12


def test_direct_formula_oracle():
    img = quad_map_eval(1j, ProjectivePoint(1, 1, 1))
    assert img.distance(ProjectivePoint(*_oracle_components(1j, (1, 1, 1)))) < 1e-14


def test_indeterminacy_at_forward_point():
    with pytest.raises(QuadIndeterminate):
        quad_map_eval(DELTA0, _curve_point(_d(DELTA0)))


def test_equivariance_property_random():
    rng = random.Random(3)
    for _ in range(10):
        delta = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0, 2 * cmath.pi))
        if abs(delta - 1) < 0.1:
            continue
        for _ in range(20):
            t = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                img = quad_map_eval(delta, _curve_point(t))
            except QuadIndeterminate:
                continue
            assert img.distance(_curve_point(delta * (t + _d(delta)))) < 1e-9


def test_orbit_polynomial_instances(salem8):
    assert orbit_polynomial(8) == IntPolynomial((1, 1)) * salem8
    assert orbit_polynomial(1) == IntPolynomial((1, -1, 1))
    with pytest.raises(ValueError):
        orbit_polynomial(0)


def test_orbit_polynomial_times_t_minus_one_is_the_cleared_identity():
    # the closed-form quotient: (t - 1) q = t^(n+2) - 2 t^(n+1) + 2 t - 1
    for n in range(1, 61):
        cleared = IntPolynomial(tuple([-1, 2] + [0] * (n - 1) + [-2, 1]))
        assert IntPolynomial((-1, 1)) * orbit_polynomial(n) == cleared, n


def test_orbit_polynomial_n2_closure_oracle():
    p = orbit_polynomial(2)
    roots = poly_roots(ComplexPolynomial(tuple(map(float, p.coeffs))))
    for b in roots:
        assert closure_residual(b.center, 2) < 1e-10


def test_backward_orbit_parameter_reaches_forward(salem8):
    """Eight curve-restriction steps from the backward abscissa hit d."""
    roots = poly_roots(ComplexPolynomial(tuple(map(float, salem8.coeffs))))
    for b in roots:
        delta, d = b.center, _d(b.center)
        t = -delta * d
        for _ in range(8):
            t = delta * (t + d)
        assert abs(t - d) < 1e-10


def test_fixed_points_at_tau0_intervals(salem8_cert):
    recs = _records_for_delta(salem8_cert.circle_roots[0])
    xs = sorted(r.coords.x.real for r in recs)
    assert -0.283 <= xs[0] <= -0.282
    assert 0.022 <= xs[1] <= 0.023


def test_fixed_point_at_tau_star_interval(salem8_cert):
    dstar = salem8_cert.circle_roots[2]
    tau = (dstar + dstar.inverse()).realize_real()
    assert -1.496 <= tau.center.real <= -1.495
    recs = _records_for_delta(dstar)
    xs = sorted(r.coords.x.real for r in recs)
    assert -0.711 <= xs[0] <= -0.710


def test_degenerate_tau_rejected():
    # delta a primitive cube root of unity gives tau = -1
    omega = cmath.exp(2j * cmath.pi / 3)
    with pytest.raises(DegenerateTau):
        _records_for_delta(ComplexBall.exact(omega))


def test_fixed_point_records_verified(salem8_cert):
    root = salem8_cert.circle_roots[0]
    recs = _records_for_delta(root)
    assert len(recs) == 2
    for rec in recs:
        img = quad_map_eval(root.center, rec.coords)
        assert rec.coords.distance(img) < 1e-9
        assert rec.det.contains(root.center)


@pytest.mark.parametrize("n", [8, 12, 30])
def test_record_det_from_the_two_form_lemma_meets_the_chart_record(n):
    # det Df = delta off the cubic: each record's det is its root ball, and
    # meets the det of the full chart-Jacobian record; its eigenvalues meet
    # that record's and are no wider
    for root in is_salem(orbit_polynomial(n)).circle_roots:
        qm = QuadMap(root)
        tau = 2 * ComplexBall(complex(root.center.real, 0.0), root.radius)
        xs = tau_quadratic_roots_reference(tau)
        for x, rec in zip(xs, _records_for_delta(root)):
            assert rec.det == root
            y = r_tau_reference(tau, x)
            jac = chart_jacobian(qm, rec.coords, chart=2,
                                 point_radius=max(x.radius, y.radius))
            chart = certifier.record_from_jacobian(Location.GENERIC,
                                                   rec.coords, jac)
            assert chart.trace == rec.trace
            assert not chart.det.disjoint(rec.det)
            for mine, theirs in zip(rec.eigenvalues, chart.eigenvalues):
                assert not mine.disjoint(theirs)
                assert mine.radius <= theirs.radius


@pytest.mark.parametrize("n", [4, 8, 12, 30, 60])
def test_records_equal_the_per_point_reference_bit_for_bit(n):
    # the tau-only balls formed once per root, and the chart Jacobian from
    # one jet, give the records that r_tau, s and the full partial matrix
    # formed per point give: every coordinate, trace, det, s and eigenvalue
    # ball compares equal
    for root in is_salem(orbit_polynomial(n)).circle_roots:
        assert _records_for_delta(root) == records_for_delta_reference(root)


def _balls(rec) -> tuple:
    return (rec.trace, rec.det, rec.s) + rec.eigenvalues


def test_conjugate_roots_pair_exact_float_conjugates():
    for n in (5, 8, 17, 40):
        cert = is_salem(orbit_polynomial(n))
        pairs = cert.conjugate_roots
        assert pairs is cert.conjugate_roots
        for a, b in pairs.items():
            assert b.center == a.center.conjugate() and pairs[b] is a
        unpaired = [r for r in cert.circle_roots if r not in pairs]
        centers = {r.center for r in cert.circle_roots}
        assert all(r.center.conjugate() not in centers for r in unpaired)


def test_derived_records_are_the_direct_records_at_the_smaller_disk():
    # over n = 4..60 every pair of exactly conjugate circle roots: the
    # leader's records are _records_for_delta's at its own ball, and the
    # other member's records equal _records_for_delta at its own center and
    # the leader's radius in coords, trace and s, with its own root ball as
    # det; against the records at its own ball every center is equal and no
    # radius is larger
    derived = 0
    for n in range(4, 61):
        report = certify_cuspidal(n)
        sections = {sec.delta: sec.records for sec in report.sections}
        for lead, other in conjugate_leaders(report.salem_cert):
            assert sections[lead] == _records_for_delta(lead)
            smaller = _records_for_delta(ComplexBall(other.center, lead.radius))
            own = _records_for_delta(other)
            for got, want, direct in zip(sections[other], smaller, own,
                                         strict=True):
                assert (got.coords, got.trace, got.s) == \
                    (want.coords, want.trace, want.s)
                assert got.det == other == direct.det
                for mine, theirs in zip(_balls(got), _balls(direct)):
                    assert mine.center == theirs.center
                    assert mine.radius <= theirs.radius
                derived += 1
    assert derived == 1450


def _counted_records(monkeypatch) -> list:
    """Patch cuspidal._records_for_delta so that each root it runs at is
    appended to the list returned."""
    calls = []
    real = cuspidal._records_for_delta

    def records_for_delta(delta):
        calls.append(delta)
        return real(delta)

    monkeypatch.setattr(cuspidal, "_records_for_delta", records_for_delta)
    return calls


def test_records_for_delta_runs_once_per_conjugate_pair(monkeypatch):
    # at the leader of each pair only.  Each n here has pairs of equal
    # radius (the tie rule), n = 9 and 40 have unpaired roots, and n = 17
    # has 16 circle roots, all paired
    calls = _counted_records(monkeypatch)
    for n in (8, 9, 17, 40):
        calls.clear()
        cert = certify_cuspidal(n).salem_cert
        others = {other for _, other in conjugate_leaders(cert)}
        assert len(others) == len(cert.conjugate_roots) // 2
        assert len(calls) == len(set(calls))
        assert set(calls) == set(cert.circle_roots) - others
        if n == 17:
            assert len(calls) == 8


def test_a_pair_one_ulp_apart_is_computed_directly(monkeypatch):
    # a circle root whose center is one ulp off its partner's conjugate has
    # no partner: both members run _records_for_delta
    cert = is_salem(orbit_polynomial(17))
    a, b = next(iter(cert.conjugate_roots.items()))
    nudged = ComplexBall(complex(b.center.real,
                                 math.nextafter(b.center.imag, math.inf)),
                         b.radius)
    off = dataclasses.replace(cert, circle_roots=tuple(
        nudged if r is b else r for r in cert.circle_roots))
    assert off.conjugate_roots.keys() == cert.conjugate_roots.keys() - {a, b}
    calls = _counted_records(monkeypatch)
    monkeypatch.setattr(cuspidal, "is_salem", lambda p: off)
    report = certify_cuspidal(17)
    assert calls.count(a) == calls.count(nudged) == 1
    assert len(calls) == len(off.circle_roots) // 2 + 1
    sections = {sec.delta: sec.records for sec in report.sections}
    assert sections[nudged] == records_for_delta_reference(nudged)
    assert sections[a] == records_for_delta_reference(a)


def test_certify_cuspidal_certifies_the_salem_factor_once(monkeypatch):
    # dim 124: the action matrix is cross-checked against the run's
    # certificate, and that certificate is the only is_salem call; each
    # polynomial's cyclotomic factors are stripped once: the certificate's,
    # and the spectral check's quotient of the char poly by cert.poly
    salem_calls, spectral_calls, strip_calls = [], [], []
    real_is_salem, real_spectral = salem.is_salem, certifier.spectral_data
    real_strip = salem.strip_cyclotomic

    def counted_is_salem(p):
        salem_calls.append(p)
        return real_is_salem(p)

    def counted_spectral(m, cert):
        spectral_calls.append(cert)
        return real_spectral(m, cert)

    def counted_strip(p):
        strip_calls.append(p)
        return real_strip(p)

    for module in (salem, certifier, cuspidal):
        monkeypatch.setattr(module, "is_salem", counted_is_salem)
    for module in (salem, cohomology):
        monkeypatch.setattr(module, "strip_cyclotomic", counted_strip)
    monkeypatch.setattr(certifier, "spectral_data", counted_spectral)
    report = certify_cuspidal(40)
    assert report.matrix_info["dim"] == 124
    assert len(salem_calls) == 1
    assert len(spectral_calls) == 1
    assert spectral_calls[0] is report.salem_cert
    assert len(strip_calls) == 2

    strip_calls.clear()
    salem_from_orbit(OrbitData((2,), (1,)))
    assert len(strip_calls) == 1


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
        assert ball_in_interval(s) is want


def test_s_value_pole():
    with pytest.raises(PoleAtTau):
        s_value(-2.0, 0.1)


def test_s_value_matches_record_ball(salem8_cert):
    d0 = salem8_cert.circle_roots[0]
    tau = (d0 + d0.inverse()).realize_real()
    for rec in _records_for_delta(d0):
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


def test_every_section_holds_the_two_generic_records():
    # the two fixed points off the cubic are all a section holds, so no
    # section can certify more than two Siegel centers
    for n in range(4, 61):
        for sec in certify_cuspidal(n).sections:
            assert [rec.location for rec in sec.records] == \
                [Location.GENERIC] * 2, n


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
    # tau sampled at the circle roots of the orbit polynomials n = 8..10
    checked = 0
    for n in (8, 9, 10):
        for root in is_salem(orbit_polynomial(n)).circle_roots:
            assert len(_records_for_delta(root)) == 2
            checked += 1
    assert checked >= 10
