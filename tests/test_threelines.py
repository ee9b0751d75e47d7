"""Three-lines family: map identities, parameter formulas, constructions."""

import cmath
import math
import random

import pytest

from siegelcert.balls import ComplexBall, Verdict, ball_in_interval
from siegelcert.certifier import Location
from siegelcert.errors import (BudgetExhausted, Indeterminate,
                               PoleAtParameter, PoleInFormula, SearchFailed)
from siegelcert.geometry import ProjectivePoint
from siegelcert.threelines import (OrbitData, ThreeLinesParams,
                                   a_value, ab_from_delta, approx_parameters,
                                   b_value, chi,
                                   construct_c0, construct_cstar,
                                   design_rotation_numbers,
                                   equidistribution_stat, fixed_points_tl,
                                   h_iterate, indeterminacy,
                                   infinity_criterion, infinity_eigen_data,
                                   lambda_by_bisection, orbit_verify,
                                   salem_from_orbit, tl_map_eval, trace_affine)


def _oracle_affine(params, x, y):
    """Independent term-by-term evaluation of the displayed affine formula."""
    g1 = 1.0
    for ai in params.a:
        g1 *= 1 - y / ai
    g2 = 1.0
    for bj in params.b:
        g2 *= 1 - y / bj
    delta = params.delta
    return (y, g1 * (x + delta * y) / (delta * ((g2 - g1) * x / y - delta * g1)))


def test_orbit_data_validation():
    with pytest.raises(ValueError):
        OrbitData((1,), (1,))
    with pytest.raises(ValueError):
        OrbitData((0,), (2,))
    with pytest.raises(ValueError):
        OrbitData((1, 2), (1,))
    orb = OrbitData((2,), (1,))
    assert orb.N == 1 and orb.blowup_count == 3 + 5 + 4


def test_line_images():
    par = ThreeLinesParams(1j, (2,), (1,))
    x, y = tl_map_eval(par, (0.0, 0.7))
    assert abs(x - 0.7) < 1e-14 and abs(y - (-0.7 / 1j)) < 1e-14
    assert tl_map_eval(par, (0.0, 0.0)) == (0, 0)
    x, y = tl_map_eval(par, (-1j * 0.3, 0.3))
    assert abs(x - 0.3) < 1e-14 and abs(y) < 1e-14
    x0 = 0.45
    x, y = tl_map_eval(par, (x0, 0.0))
    assert abs(x) < 1e-14
    assert abs(y - (-x0 / (1j ** 2 + 1j * par.c * x0))) < 1e-14


def test_affine_formula_oracle():
    par = ThreeLinesParams(1j, (2,), (1,))
    got = tl_map_eval(par, (1.0, 1.0))
    want = _oracle_affine(par, 1.0, 1.0)
    assert abs(got[0] - want[0]) < 1e-12 and abs(got[1] - want[1]) < 1e-12


def test_line_cycle_property():
    rng = random.Random(1)
    for _ in range(10):
        par = ThreeLinesParams(
            cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0.1, 6.0)),
            tuple(rng.uniform(0.5, 3) for _ in range(2)),
            tuple(rng.uniform(0.5, 3) for _ in range(2)))
        for _ in range(20):
            y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                # L1 -> L2
                x1, y1 = tl_map_eval(par, (0.0, y))
                assert abs(x1 + par.delta * y1) < 1e-9 * (1 + abs(x1))
                # L2 -> L3
                x2, y2 = tl_map_eval(par, (-par.delta * y, y))
                assert abs(y2) < 1e-9 * (1 + abs(x2))
            except (Indeterminate, Exception):
                continue


def test_indeterminacy_table():
    par = ThreeLinesParams(1j, (2,), (1,))
    ind = indeterminacy(par)
    assert ind.forward_a[0].distance(ProjectivePoint(0, 2, 1)) < 1e-15
    assert ind.backward_a[0].distance(ProjectivePoint(2, 0, 1)) < 1e-15
    assert ind.forward_0.distance(ProjectivePoint(1, 0, 0)) < 1e-15
    assert ind.backward_0.distance(ProjectivePoint(0, 1, 0)) < 1e-15
    # b = 1, delta = i: forward [-i : 1 : 1], backward [1 : i : 1]
    assert ind.forward_b[0].distance(ProjectivePoint(-1j, 1, 1)) < 1e-15
    assert ind.backward_b[0].distance(ProjectivePoint(1, 1j, 1)) < 1e-15


def test_indeterminate_eval_raises():
    par = ThreeLinesParams(1j, (2,), (1,))
    with pytest.raises(Indeterminate):
        tl_map_eval(par, ProjectivePoint(0, 2, 1))


def test_h_iterate_identity_and_semigroup():
    rng = random.Random(9)
    par = ThreeLinesParams(0.4 + 1.1j, (1.7,), (0.6,))
    assert h_iterate(par, 0, 0.37 + 0.2j) == 0.37 + 0.2j
    checked = 0
    while checked < 200:
        k = rng.randint(0, 5)
        el = rng.randint(0, 5)
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            lhs = h_iterate(par, k + el, x)
            rhs = h_iterate(par, k, h_iterate(par, el, x))
        except Exception:
            continue
        assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))
        checked += 1


def test_h_iterate_matches_direct_iteration():
    rng = random.Random(13)
    checked = 0
    while checked < 8:
        par = ThreeLinesParams(
            cmath.rect(rng.uniform(0.6, 1.4), rng.uniform(0.2, 6.0)),
            (rng.uniform(0.5, 2.5),), (rng.uniform(0.5, 2.5),))
        y = complex(rng.uniform(0.2, 1.5), rng.uniform(-1, 1))
        for k in range(1, 5):
            try:
                pt = (0.0, y)
                for _ in range(3 * k):
                    pt = tl_map_eval(par, pt)
                hk = h_iterate(par, k, y)
            except Exception:
                break
            assert abs(pt[0]) < 1e-8 * (1 + abs(pt[1]))
            assert abs(pt[1] - hk) < 1e-8 * (1 + abs(hk))
        else:
            checked += 1


def test_ab_formulas_k1_closed_forms():
    rng = random.Random(4)
    for _ in range(20):
        d = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.1, 6.2))
        if abs(d ** 3 - 1) < 0.05 or abs(d ** 2 + 1) < 0.05 or abs(d ** 4 + 1) < 0.05:
            continue
        assert abs(a_value(d, 1) - (-(d + 1 / d))) < 1e-10 * (1 + abs(d) ** 2)
        assert abs(b_value(d, 1) - (d ** 4 + 1) / d ** 2) < 1e-10 * (1 + abs(d) ** 4)


def test_ab_real_form_on_circle():
    """For delta = exp(2 pi i nu) the parameter values are the displayed real
    trigonometric expressions."""
    nu = 0.2137846
    d = cmath.exp(2j * cmath.pi * nu)
    for k in (1, 2, 3, 5, 8):
        got_a = a_value(d, k)
        want_a = -2 * math.sin(3 * math.pi * nu) * (
            math.cos(math.pi * nu) / math.tan(3 * k * math.pi * nu)
            + math.sin(math.pi * nu))
        assert abs(got_a.imag) < 1e-10
        assert abs(got_a.real - want_a) < 1e-9
        got_b = b_value(d, k)
        want_b = 2 * math.sin(3 * math.pi * nu) * (
            math.cos(math.pi * nu) / math.tan(3 * k * math.pi * nu)
            - math.sin(math.pi * nu))
        assert abs(got_b.imag) < 1e-10
        assert abs(got_b.real - want_b) < 1e-9


def test_ab_from_delta_pole_detection():
    with pytest.raises(PoleInFormula):
        ab_from_delta(1.0, OrbitData((2,), (1,)))
    with pytest.raises(PoleInFormula):
        # delta^5 = -1 kills the first a-denominator for m = 2
        ab_from_delta(cmath.exp(1j * cmath.pi / 5), OrbitData((2,), (1,)))


def test_chi_limits_and_roots():
    orb = OrbitData((2,), (1,))
    assert abs(chi(1 + 1e-6, orb).center.real - 1.5) < 1e-3
    assert abs(chi(1e6, orb).center) < 1e-5
    cert = salem_from_orbit(orb)
    for b in (cert.lam,) + cert.circle_roots:
        assert abs(chi(b.center, orb).center - 1) < 1e-9


def test_params_satisfy_chi_identity():
    orb = OrbitData((2,), (1,))
    d = 0.37 + 1.21j
    par = ab_from_delta(d, orb)
    assert abs(par.c - chi(d, orb).center) < 1e-10


def test_salem_from_orbit_cases():
    for orb in (OrbitData((2,), (1,)), OrbitData((1,), (2,))):
        cert = salem_from_orbit(orb)
        assert cert and cert.poly.degree >= 4
        lam = lambda_by_bisection(orb)
        assert abs(cert.lam.center.real - lam) < 1e-9


def test_lambda_monotone_convergence_in_m():
    """lambda_(m),(1) approaches its finite limit monotonically (increasing)."""
    lams = [lambda_by_bisection(OrbitData((m,), (1,))) for m in range(2, 11)]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert lams[-1] < 1.7475  # bounded by the m -> infinity constraint root


def test_orbit_verify_hand_checked_infinity_orbit():
    orb = OrbitData((2,), (1,))
    cert = salem_from_orbit(orb)
    d = cert.circle_roots[0].center
    par = ab_from_delta(d, orb)
    # [0:1:0] -> [-delta:1:0] -> [1:0:0] via the infinity-line formula
    p = ProjectivePoint(0, 1, 0)
    p1 = tl_map_eval(par, p)
    assert p1.distance(ProjectivePoint(-d, 1, 0)) < 1e-12
    p2 = tl_map_eval(par, p1)
    assert p2.distance(ProjectivePoint(1, 0, 0)) < 1e-12


def test_orbit_verify_at_real_salem_root():
    """f^4 sends (a1, 0) to (0, a1) and f^3 closes the b-orbit (m=2, n=1)."""
    orb = OrbitData((2,), (1,))
    cert = salem_from_orbit(orb)
    lam = cert.lam.center.real
    par = ab_from_delta(lam, orb)
    a1 = par.a[0]
    pt = ProjectivePoint(a1, 0, 1)
    for _ in range(4):
        pt = tl_map_eval(par, pt)
    assert pt.distance(ProjectivePoint(0, a1, 1)) < 1e-8
    rep = orbit_verify(par, orb)
    assert rep.passed and rep.max_residual < 1e-8


def test_orbit_verify_negative_control():
    orb = OrbitData((2,), (1,))
    par = ab_from_delta(0.83 + 0.61j, orb)  # not a chi-root
    rep = orbit_verify(par, orb)
    assert not rep.passed


def test_fixed_points_count_and_w0():
    orb = OrbitData((1, 2), (1, 1))
    cert = salem_from_orbit(orb)
    par = ab_from_delta(cert.circle_roots[0].center, orb)
    recs = fixed_points_tl(par)
    assert len(recs) == orb.N + 3
    assert recs[0].location is Location.CURVE_SINGULAR
    assert sum(1 for r in recs if r.location is Location.AFFINE_DIAGONAL) == orb.N
    assert sum(1 for r in recs if r.location is Location.INFINITY) == 2


def test_fixed_points_n1_linear_oracle():
    par = ThreeLinesParams(0.3 + 1.1j, (1.4,), (0.8,))
    d = par.d
    x1 = (d - 1) / (d / par.a[0] - 1 / par.b[0])
    recs = fixed_points_tl(par)
    aff = [r for r in recs if r.location is Location.AFFINE_DIAGONAL]
    assert len(aff) == 1
    assert abs(aff[0].coords.x / aff[0].coords.z - x1) < 1e-9


def test_fixed_points_equal_parameter_closed_form():
    n = 3
    a0, b0 = 2.0, 1.0
    delta = cmath.rect(1.0, 1.9)
    d = (1 + delta) ** 2 / delta
    par = ThreeLinesParams(delta, (a0,) * n, (b0,) * n)
    lam = d ** (1.0 / n)
    eps_n = cmath.exp(2j * cmath.pi / n)
    want = sorted(
        (a0 * b0 * (1 - lam * eps_n ** el) / (a0 - b0 * lam * eps_n ** el)
         for el in range(1, n + 1)),
        key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    recs = fixed_points_tl(par)
    got = sorted((r.coords.x / r.coords.z
                  for r in recs if r.location is Location.AFFINE_DIAGONAL),
                 key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    # the closed form uses one branch of d^(1/N); match as sets
    for g in got:
        assert min(abs(g - w) for w in want) < 1e-8


def test_trace_affine_formula_and_fd():
    rng = random.Random(21)
    checked = 0
    while checked < 6:
        par = ThreeLinesParams(
            cmath.rect(rng.uniform(0.7, 1.3), rng.uniform(0.3, 6.0)),
            tuple(rng.uniform(0.8, 3) for _ in range(2)),
            tuple(rng.uniform(0.8, 3) for _ in range(2)))
        try:
            recs = fixed_points_tl(par)
        except Exception:
            continue
        for rec in recs:
            if rec.location is not Location.AFFINE_DIAGONAL:
                continue
            x = rec.coords.x / rec.coords.z
            tr = trace_affine(par, x)
            if abs(tr.center) > 50:
                continue  # fixed point grazing a parameter pole
            assert abs(tr.center - rec.trace.center) < 1e-8 * (1 + abs(tr.center))
            # Richardson-refined central differences of f2 in y
            def f2(xx, yy):
                return tl_map_eval(par, (xx, yy))[1]
            def diff(h):
                return (f2(x, x + h) - f2(x, x - h)) / (2 * h)
            fd = (4 * diff(5e-6) - diff(1e-5)) / 3
            assert abs(fd - tr.center) < 1e-6 * (1 + abs(tr.center))
        checked += 1


def test_trace_affine_formal_zero_value():
    par = ThreeLinesParams(0.5 + 0.8j, (1.0, 2.0), (0.7, 1.5))
    tr = trace_affine(par, 0.0)
    assert abs(tr.center - (par.delta + 1)) < 1e-12


def test_trace_affine_pole():
    par = ThreeLinesParams(1j, (2.0,), (1.0,))
    with pytest.raises(PoleAtParameter):
        trace_affine(par, 2.0)


def test_infinity_criterion_examples():
    # ratio = a/b = 5 with delta = i: certified outside
    par = ThreeLinesParams(1j, (1.0,), (0.2,))
    assert infinity_criterion(par) is Verdict.CERTIFIED_OUT
    # ratio = 1.6: inside
    par = ThreeLinesParams(1j, (0.8,), (0.5,))
    assert infinity_criterion(par) is Verdict.CERTIFIED_IN
    # boundary ratio = 4: unknown, never a contradiction
    par = ThreeLinesParams(1j, (2.0,), (0.5,))
    assert infinity_criterion(par) is Verdict.UNKNOWN
    from siegelcert.errors import OffUnitCircle
    with pytest.raises(OffUnitCircle):
        infinity_criterion(ThreeLinesParams(2.0, (1.0,), (0.5,)))


def test_infinity_ratio_matches_eigen_route_sampled():
    """beta0/alpha0 verdict vs the explicit eigenvalue route, 200 samples."""
    rng = random.Random(42)
    contradictions = 0
    agreements = 0
    for _ in range(200):
        theta = rng.uniform(0.05, 2 * math.pi - 0.05)
        delta = cmath.rect(1.0, theta)
        ratio_val = rng.uniform(-2.0, 8.0)
        ratio = ComplexBall.exact(ratio_val)
        v_ratio = ball_in_interval(ratio, 0.0, 4.0)
        svals = infinity_eigen_data(delta, ratio)
        v_eigen = [ball_in_interval(s, 0.0, 4.0) for s in svals]
        for ve in v_eigen:
            if {v_ratio, ve} == {Verdict.CERTIFIED_IN, Verdict.CERTIFIED_OUT}:
                contradictions += 1
            elif v_ratio is ve is not Verdict.UNKNOWN:
                agreements += 1
    assert contradictions == 0
    assert agreements > 100


def test_construct_c0_reference_case():
    par = construct_c0(2, 0.99)
    assert par.N == 2
    assert abs(par.c - 1) < 1e-12
    assert abs(abs(par.delta) - 1) < 1e-12
    # interleaving in the raw (pre-normalization) scale survives rescaling
    ratios = [a.real / b.real for a, b in zip(par.a, par.b)]
    for r in ratios:
        assert 1.0 < r < 2.0 ** 0.5


def test_construct_c0_b_approaches_a_with_d():
    gaps = []
    for d in (0.9, 0.95, 0.99):
        par = construct_c0(1, d)
        gaps.append(abs(par.a[0] / par.b[0]) - 1.0)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_construct_c0_rejects_far_d():
    with pytest.raises((SearchFailed, ValueError)):
        construct_c0(2, 0.5)
    with pytest.raises(ValueError):
        construct_c0(1, 1.5)


def test_construct_cstar_all_outside():
    for n in (1, 2, 3):
        par = construct_cstar(n)
        assert abs(par.c - 1) < 1e-12
        svals, ratio = design_rotation_numbers(
            [v / par.c for v in par.a], [v / par.c for v in par.b], 1.0 / 16.0)
        for s in svals:
            assert ball_in_interval(s, 0.0, 4.0) is Verdict.CERTIFIED_OUT
        assert ball_in_interval(ratio, 0.0, 4.0) is Verdict.CERTIFIED_OUT


def test_g_function_identity_small_n():
    """Equal-parameter rotation number at the real direction equals
    (2 + (N/4) g(N))^2."""
    for n in (1, 2, 3, 7, 20):
        g = (4 ** (2 / n) - 4 ** (-2 / n)) + (4 ** (1 / n) - 4 ** (-1 / n)) - 7 / n
        want = (2 + n * g / 4) ** 2
        d = 1 / 16
        lam = d ** (1 / n)
        r = 4 ** (1 / n)  # a0/b0
        # first displayed form of the equal-parameter rotation number at l = N
        a0, b0 = r, 1.0
        val = d * (1 - n * (a0 + b0 - a0 / lam - b0 * lam) / (a0 - b0)) ** 2
        assert abs(val - want) < 1e-9 * want


def test_approx_parameters_n1():
    c0 = construct_c0(1, 0.96)
    cs = construct_cstar(1)
    res = approx_parameters(c0, cs, eps=1.6, mN_cap=18)
    assert abs(res.delta0.center - c0.delta) < 1.6
    assert abs(res.delta_star.center - cs.delta) < 1.6
    assert abs(res.params0.c - 1) < 1e-9
    assert abs(res.params_star.c - 1) < 1e-9
    # returned roots satisfy the constraint
    assert abs(chi(res.delta0.center, res.orbit).center - 1) < 1e-9


def test_approx_parameters_budget_exhausted():
    c0 = construct_c0(1, 0.96)
    cs = construct_cstar(1)
    with pytest.raises(BudgetExhausted):
        approx_parameters(c0, cs, eps=1e-9, mN_cap=3)


def test_equidistribution_statistic_decreases():
    stats = [equidistribution_stat(OrbitData((m,), (1,))) for m in (10, 20, 40)]
    assert stats[0] > stats[1] > stats[2]
