"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.
"""

import cmath
import json
import math
import random
import time

import pytest

from siegelcert.balls import ComplexBall, Verdict, ball_in_interval
from siegelcert.certifier import Location, PointVerdict
from siegelcert.cli import main
from siegelcert.cohomology import (fixed_point_bound, quad_action_matrix,
                                   tl_action_matrix)
from siegelcert.cuspidal import QuadMap, s_value
from siegelcert.geometry import ProjectivePoint, chart_jacobian
from siegelcert.intpoly import strip_cyclotomic
from siegelcert.pipeline import theorem1_pipeline
from siegelcert.roots import ComplexPolynomial, poly_roots
from siegelcert.salem import is_salem
from siegelcert.threelines import (OrbitData, TLMap, ab_from_delta,
                                   fixed_points_tl, orbit_verify,
                                   salem_from_orbit)

from oracles import (FormulaPole, closure_residual, fd_chart_jacobian,
                     h_iterate, infinity_eigen_data, lambda_by_bisection)


def _report(n: int, text: str):
    print(f"\ncriterion {n:02d}: PASS  {text}")


def test_criterion_01_salem_roots_and_tau(salem8):
    t0 = time.time()
    rs = poly_roots(ComplexPolynomial(tuple(map(float, salem8.coeffs))))
    listed = (1.9940 + 0j, 0.5015 + 0j,
              0.6098 + 0.7925j, 0.6098 - 0.7925j,
              -0.1098 + 0.9939j, -0.1098 - 0.9939j,
              -0.7478 + 0.6640j, -0.7478 - 0.6640j)
    for target in listed:
        assert min(abs(b.center - target) for b in rs.balls) < 5e-4
    taus = sorted({round((b.center + 1 / b.center).real, 6)
                   for b in rs.balls if abs(abs(b.center) - 1) < 1e-9})
    for target in (-1.4955, -0.2197, 1.2197):
        assert min(abs(t - target) for t in taus) < 5e-4
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"8 listed roots and 3 tau values within 5e-4 in {elapsed:.3f}s")


def test_criterion_02_entropy_and_exact_charpoly(salem8):
    m = quad_action_matrix(8, 8, 8)
    cert = is_salem(m.char_poly)
    assert abs(cert.entropy - 0.6901) < 1e-3
    rest, _ = strip_cyclotomic(m.char_poly)
    assert rest == salem8
    _report(2, f"entropy {cert.entropy:.6f} within 1e-3 of 0.6901; "
               "stripped char poly equals the Salem polynomial exactly")


def test_criterion_03_interval_certification():
    s1 = s_value(1.219, 0.022)
    assert s1.center.real + s1.radius < 2.05
    v1 = ball_in_interval(s1)
    s2 = s_value(1.220, -0.283)
    assert s2.center.real + s2.radius < 3.12
    v2 = ball_in_interval(s2)
    s3 = s_value(-1.495, -0.710)
    assert s3.center.real - s3.radius > 5.91
    v3 = ball_in_interval(s3)
    assert v1 is Verdict.CERTIFIED_IN
    assert v2 is Verdict.CERTIFIED_IN
    assert v3 is Verdict.CERTIFIED_OUT
    assert Verdict.UNKNOWN not in (v1, v2, v3)
    _report(3, f"s < 2.05 ({s1.center.real:.4f}), s < 3.12 ({s2.center.real:.4f}), "
               f"s > 5.91 ({s3.center.real:.4f}); verdicts In/In/Out")


def test_criterion_04_cuspidal_certification(capsys):
    code = main(["cuspidal", "--n", "8"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    principal = doc["principal"]
    d0 = complex(*doc["sections"][principal]["delta"]["center"])
    assert abs(d0 - (0.6098 + 0.7925j)) < 5e-4
    vs = [v for v in doc["verdicts"] if v["section"] == principal]
    certified = [v for v in vs if v["verdict"] == "SiegelCertified"]
    assert len(certified) == 2
    for v in certified:
        w = complex(*v["witness"]["delta"]["center"])
        assert abs(w - (-0.7478 + 0.6640j)) < 5e-4
    # hard cap from the four-fixed-point bound
    per_section = {}
    for v in doc["verdicts"]:
        if v["verdict"] == "SiegelCertified":
            per_section[v["section"]] = per_section.get(v["section"], 0) + 1
    assert all(c <= 2 for c in per_section.values())
    _report(4, "exactly 2 SiegelCertified at delta_0 with the expected witness; "
               "cap 2 never exceeded")


def test_criterion_05_orbit_closure(salem8):
    rs = poly_roots(ComplexPolynomial(tuple(map(float, salem8.coeffs))))
    worst = max(closure_residual(b.center, 8) for b in rs.balls)
    assert worst < 1e-10
    _report(5, f"orbit-closure residual at all 8 roots < 1e-10 (max {worst:.2e})")


def test_criterion_06_three_lines_consistency():
    t0 = time.time()
    for orbit in (OrbitData((2,), (1,)), OrbitData((1, 2), (1, 1))):
        cert = salem_from_orbit(orbit)
        for root in cert.circle_roots:
            params = ab_from_delta(root.center, orbit)
            assert abs(params.c - 1) < 1e-10                      # (a)
            rep = orbit_verify(params, orbit)
            assert rep.passed and rep.max_residual < 1e-8          # (b)
            recs = fixed_points_tl(root, orbit)
            assert len(recs) == orbit.N + 3                        # (d) count
        m = tl_action_matrix(orbit)
        lam = is_salem(m.char_poly).lam
        assert abs(lam.center.real - lambda_by_bisection(orbit)) < 1e-9  # (c)
        assert fixed_point_bound(m) == orbit.N + 3                 # (d) bound
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(6, f"sum 1/b - sum 1/a = 1, orbits verified < 1e-8, spectral radius "
               f"matches bisection < 1e-9, count = bound = N+3; {elapsed:.1f}s")


def test_criterion_07_eigenvalue_formulas(salem8_cert):
    # cusp eigenvalues 1/delta^2, 1/delta^3 vs finite differences
    d0 = salem8_cert.circle_roots[0].center
    qm = QuadMap(d0)
    cusp = ProjectivePoint(0, 1, 0)
    jac = chart_jacobian(qm, cusp, chart=1)
    fd = fd_chart_jacobian(qm, cusp, chart=1)
    for i in range(2):
        for j in range(2):
            assert abs(jac[i][j].center - fd[i][j]) < 1e-6
    from siegelcert.certifier import record_from_jacobian
    rec = record_from_jacobian(Location.CURVE_SINGULAR, cusp, jac)
    want = {1 / d0 ** 2, 1 / d0 ** 3}
    for e in rec.eigenvalues:
        assert min(abs(e.center - w) for w in want) < 1e-6

    # three-lines w0 eigenvalues {omega/delta, conj(omega)/delta}
    orbit = OrbitData((2,), (1,))
    cert = salem_from_orbit(orbit)
    droot = cert.circle_roots[0]
    params = ab_from_delta(droot.center, orbit)
    tlm = TLMap.from_params(params)
    jac0 = chart_jacobian(tlm, ProjectivePoint(0, 0, 1), chart=2)
    fd0 = fd_chart_jacobian(tlm, ProjectivePoint(0, 0, 1), chart=2)
    for i in range(2):
        for j in range(2):
            assert abs(jac0[i][j].center - fd0[i][j]) < 1e-6
    rec0 = record_from_jacobian(Location.CURVE_SINGULAR,
                                ProjectivePoint(0, 0, 1), jac0)
    omega = cmath.exp(2j * cmath.pi / 3)
    want0 = {omega / droot.center, omega.conjugate() / droot.center}
    for e in rec0.eigenvalues:
        assert min(abs(e.center - w) for w in want0) < 1e-6

    # Det Df = delta at every isolated fixed point off the invariant curve
    from siegelcert.cuspidal import _records_for_delta
    db = salem8_cert.circle_roots[0]
    for rec in _records_for_delta(db):
        assert abs(rec.det.center - db.center) < 1e-8
    recs = fixed_points_tl(droot, orbit)
    for rec in recs:
        if rec.location is not Location.CURVE_SINGULAR:
            assert abs(rec.det.center - droot.center) < 1e-8
    _report(7, "cusp and w0 eigenvalue formulas match finite differences to "
               "1e-6; Det Df = delta off the curve to 1e-8")


def test_criterion_08_infinity_equivalence():
    rng = random.Random(88)
    contradictions = 0
    decided_pairs = 0
    for _ in range(200):
        theta = rng.uniform(0.02, 2 * math.pi - 0.02)
        delta = cmath.rect(1.0, theta)
        ratio_val = rng.uniform(-2.0, 8.0)
        ratio = ComplexBall.exact(ratio_val)
        v_ratio = ball_in_interval(ratio)
        for s in infinity_eigen_data(delta, ratio):
            ve = ball_in_interval(s)
            if {v_ratio, ve} == {Verdict.CERTIFIED_IN, Verdict.CERTIFIED_OUT}:
                contradictions += 1
            if Verdict.UNKNOWN not in (v_ratio, ve):
                decided_pairs += 1
        # boundary handling: exactly 4 must stay consistent (never contradict)
    b4 = ball_in_interval(ComplexBall.exact(4.0))
    assert b4 in (Verdict.UNKNOWN, Verdict.CERTIFIED_IN)
    assert contradictions == 0
    assert decided_pairs > 200
    _report(8, f"200 samples, {decided_pairs} decided verdict pairs, "
               "0 contradictions; boundary 4 consistent")


def test_criterion_09_g_function():
    prev = None
    for n in range(1, 10001):
        g = (4 ** (2 / n) - 4 ** (-2 / n)) + (4 ** (1 / n) - 4 ** (-1 / n)) - 7 / n
        assert g > 0
        if prev is not None:
            assert g < prev
        prev = g
    for n in (1, 2, 3, 5, 8, 13, 50):
        g = (4 ** (2 / n) - 4 ** (-2 / n)) + (4 ** (1 / n) - 4 ** (-1 / n)) - 7 / n
        want = (2 + n * g / 4) ** 2
        d = 1 / 16
        lam = d ** (1 / n)
        a0, b0 = 4 ** (1 / n), 1.0
        direct = d * (1 - n * (a0 + b0 - a0 / lam - b0 * lam) / (a0 - b0)) ** 2
        assert abs(direct - want) < 1e-9 * want
    _report(9, "g(N) > 0 and strictly decreasing for N = 1..10^4; "
               "equal-parameter value matches (2 + (N/4) g(N))^2 to 1e-9")


@pytest.mark.parametrize("k", [3, 4])
def test_criterion_10_theorem1_desk_scale(k):
    t0 = time.time()
    rep = theorem1_pipeline(k)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    # the orbit data and Salem degree the fixed search budget accepts
    m, n, degree = {3: ([14], [3], 50), 4: ([4, 11], [4, 5], 70)}[k]
    assert (rep.parameters["m"], rep.parameters["n"]) == (m, n)
    assert rep.salem_cert.poly.degree == degree
    sec = rep.principal_section
    assert sec.count(PointVerdict.SIEGEL_CERTIFIED) == k
    w0 = [v for rec, v in zip(sec.records, sec.verdicts)
          if rec.location is Location.CURVE_SINGULAR]
    assert len(w0) == 1 and w0[0].verdict is PointVerdict.NOT_ROTATION
    # every witness is a non-singular fixed point over delta* whose s is
    # CertifiedOut of [0,4]
    star = rep.sections[1]
    for v in sec.verdicts:
        if v.verdict is PointVerdict.SIEGEL_CERTIFIED:
            assert v.witness.delta == star.delta
            conj = star.records[v.witness.point_index]
            assert conj.location is not Location.CURVE_SINGULAR
            assert ball_in_interval(conj.s) is Verdict.CERTIFIED_OUT
    assert rep.entropy > 0
    _report(10, f"k={k}: exactly {k} SiegelCertified, w0 NotRotation, "
                f"entropy {rep.entropy:.4f} > 0, {elapsed:.1f}s < 300s")


def test_criterion_11_property_suites(capsys):
    # (i) ball inclusion monotonicity, 1000 cases (delegated implementation)
    from test_balls import test_inclusion_monotonicity_1000_cases
    test_inclusion_monotonicity_1000_cases()

    # (ii) J-orthogonality and char-poly reciprocity for constructed matrices
    rng = random.Random(99)
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)]
    mats = [quad_action_matrix(rng.randint(0, 6), rng.randint(0, 6),
                               rng.randint(0, 6), perms[rng.randrange(6)])
            for _ in range(6)]
    mats += [tl_action_matrix(OrbitData((2,), (1,))),
             tl_action_matrix(OrbitData((1, 2), (1, 1)))]
    for m in mats:
        assert m.preserves_form()
        cp = m.char_poly
        assert cp.reversed() in (cp, -cp)

    # (iii) Moebius semigroup law, 200 cases
    from siegelcert.threelines import ThreeLinesParams
    par = ThreeLinesParams(0.4 + 1.1j, (1.7,), (0.6,))
    checked = 0
    while checked < 200:
        k = rng.randint(0, 6)
        el = rng.randint(0, 6)
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            lhs = h_iterate(par, k + el, x)
            rhs = h_iterate(par, k, h_iterate(par, el, x))
        except FormulaPole:
            continue
        assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))
        checked += 1

    # (iv) byte-identical report reruns
    capsys.readouterr()  # drain prints from the property parts above
    code1 = main(["cuspidal", "--n", "8"])
    out1 = capsys.readouterr().out
    code2 = main(["cuspidal", "--n", "8"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1 == out2
    _report(11, "ball monotonicity (1000), J-orthogonality + reciprocity, "
                "semigroup law (200), byte-identical reruns")
