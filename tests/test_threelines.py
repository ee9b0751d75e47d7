"""Three-lines family: map identities, parameter formulas, constructions."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from siegelcert import threelines
from siegelcert.balls import ComplexBall, Verdict, ball_in_interval
from siegelcert.certifier import Location, record_from_jacobian
from siegelcert.errors import (BoundaryUndecidable, BudgetExhausted,
                               NoSalemFactor, PerturbationFailed,
                               PoleAtParameter, SearchFailed)
from siegelcert.geometry import (ProjectivePoint, chart_jacobian,
                                 divide_by_pivot)
from siegelcert.pipeline import certify_three_lines
from siegelcert.threelines import (COLLISION_TOL, OrbitCheck, OrbitData,
                                   OrbitReport, ThreeLinesParams, TLMap,
                                   _vanishes, a_value, ab_from_delta,
                                   approx_parameters, b_value, construct_c0,
                                   construct_cstar, design_c0,
                                   design_rotation_numbers,
                                   fixed_points_tl, indeterminacy,
                                   infinity_eigen_data, orbit_verify,
                                   param_balls, salem_from_orbit,
                                   trace_affine)

from oracles import (FormulaPole, OffUnitCircle, chi, equidistribution_stat,
                     h_iterate, infinity_criterion, lambda_by_bisection,
                     orbit_verify_reference)


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


def _image(params, pt: ProjectivePoint) -> ProjectivePoint:
    """f(pt) from the homogeneous components."""
    return ProjectivePoint(*TLMap.from_params(params).components(*pt.coords))


def _affine_image(params, x, y):
    """The affine coordinates of f(x, y), from the homogeneous components."""
    fx, fy, fz = TLMap.from_params(params).components(x, y, 1)
    return fx / fz, fy / fz


def test_orbit_data_validation():
    with pytest.raises(ValueError):
        OrbitData((1,), (1,))
    with pytest.raises(ValueError):
        OrbitData((0,), (2,))
    with pytest.raises(ValueError):
        OrbitData((1, 2), (1,))
    with pytest.raises(ValueError):
        OrbitData((2.7,), (1,))
    with pytest.raises(ValueError):
        OrbitData((2, 3), (1, 1.5))
    orb = OrbitData((2,), (1,))
    assert orb.N == 1 and orb.blowup_count == 3 + 5 + 4


def test_orbit_data_takes_integers_as_intpolynomial_does():
    # each entry goes through operator.index: integral floats and strings
    # are rejected, numpy integers pass
    for m, n in (((2.0,), (1,)), ((2,), (1.0,)), (("2",), (1,))):
        with pytest.raises(ValueError, match="orbit data must be integers"):
            OrbitData(m, n)
    orb = OrbitData((np.int64(2),), (np.int32(1),))
    assert orb == OrbitData((2,), (1,)) and type(orb.m[0]) is int


def test_line_images():
    par = ThreeLinesParams(1j, (2,), (1,))
    x, y = _affine_image(par, 0.0, 0.7)
    assert abs(x - 0.7) < 1e-14 and abs(y - (-0.7 / 1j)) < 1e-14
    assert _affine_image(par, 0.0, 0.0) == (0, 0)
    x, y = _affine_image(par, -1j * 0.3, 0.3)
    assert abs(x - 0.3) < 1e-14 and abs(y) < 1e-14
    x0 = 0.45
    x, y = _affine_image(par, x0, 0.0)
    assert abs(x) < 1e-14
    assert abs(y - (-x0 / (1j ** 2 + 1j * par.c * x0))) < 1e-14


def test_affine_formula_oracle():
    par = ThreeLinesParams(1j, (2,), (1,))
    got = _affine_image(par, 1.0, 1.0)
    want = _oracle_affine(par, 1.0, 1.0)
    assert abs(got[0] - want[0]) < 1e-12 and abs(got[1] - want[1]) < 1e-12


def test_line_cycle_property():
    rng = random.Random(1)
    for _ in range(10):
        par = ThreeLinesParams(
            cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0.1, 6.0)),
            tuple(rng.uniform(0.5, 3) for _ in range(2)),
            tuple(rng.uniform(0.5, 3) for _ in range(2)))
        tlm = TLMap.from_params(par)
        for _ in range(20):
            y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            # L1 -> L2: x + delta y = 0 on the image
            x1, y1, z1 = tlm.components(0.0, y, 1)
            assert abs(x1 + par.delta * y1) < 1e-9 * (abs(z1) + abs(x1))
            # L2 -> L3: y = 0 on the image
            x2, y2, z2 = tlm.components(-par.delta * y, y, 1)
            assert abs(y2) < 1e-9 * (abs(z2) + abs(x2))


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


def test_components_vanish_at_forward_indeterminacy():
    # the indeterminacy test orbit_verify relies on
    for par in (ThreeLinesParams(1j, (2,), (1,)),
                ThreeLinesParams(cmath.rect(1.0, 1.1), (1.3, 2.2), (0.9, 1.7))):
        tlm = TLMap.from_params(par)
        assert all(_vanishes(tlm.components(*q.coords))
                   for q in indeterminacy(par).forward)


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
                pt = ProjectivePoint(0.0, y, 1)
                for _ in range(3 * k):
                    pt = _image(par, pt)
                pt = (pt.x / pt.z, pt.y / pt.z)
                hk = h_iterate(par, k, y)
            except FormulaPole:
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


def test_chi_guards_its_own_poles():
    with pytest.raises(FormulaPole, match=r"delta\^3 - 1"):
        chi(1.0, OrbitData((2,), (1,)))
    with pytest.raises(FormulaPole, match=r"delta\^\(3\*2-1\) \+ 1"):
        # delta^5 = -1 kills the a-denominator for m = 2
        chi(cmath.exp(1j * cmath.pi / 5), OrbitData((2,), (1,)))


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
    p1 = _image(par, p)
    assert p1.distance(ProjectivePoint(-d, 1, 0)) < 1e-12
    p2 = _image(par, p1)
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
        pt = _image(par, pt)
    assert pt.distance(ProjectivePoint(0, a1, 1)) < 1e-8
    rep = orbit_verify(par, orb)
    assert rep.passed and rep.max_residual < 1e-8


def test_orbit_verify_negative_control():
    orb = OrbitData((2,), (1,))
    par = ab_from_delta(0.83 + 0.61j, orb)  # not a chi-root
    rep = orbit_verify(par, orb)
    assert not rep.passed


def test_orbit_verify_reports_a_collision():
    par, orbit = _collision_case()
    assert abs(par.c - 1) < 1e-14
    rep = orbit_verify(par, orbit)
    assert not rep.passed and rep.max_residual == math.inf
    checks = {c.label: c for c in rep.checks}
    assert rep.collisions == (checks["a2"],)
    assert checks["a2"].collision_step == 1
    for label in ("a1", "p0"):
        assert checks[label].collision_step is None
        assert checks[label].residual < 1e-14


def _collision_case():
    # a_1 = a_2 makes the a2 orbit pass a1's forward point after one step,
    # one step short of its own schedule; b = 2 / (1 + 2/a_1) keeps c = 1
    delta = 0.6 + 0.3j
    a1 = a_value(delta, 1)
    b = 2 / (1 + 2 / a1)
    return ThreeLinesParams(delta, (a1, a1), (b, b)), OrbitData((1, 2), (1, 1))


def _tie_collision_case(x):
    """A b-orbit that passes within 1e-8 of a forward_b point, |delta| = 1.

    delta = x + i sqrt(1 - x^2) (no libm call, so the bits are the same on
    every IEEE machine).  The b2 orbit's third iterate is a point
    [-delta g : g : 1] of the line x = -delta y; b_1 = g (1 + 1e-8) puts
    forward_b[0] = [-b_1 delta : b_1 : 1] next to it, and a_1 = a_2 keep
    c = 1.  Both points have |x| = |y| up to rounding: the modulus tie.
    Returns the parameters, the orbit data and that third iterate with the
    index it was divided by."""
    delta = complex(x, math.sqrt(1 - x * x))
    b2 = b_value(delta, 2)

    def params(b1):
        a = 2 / (1 / b1 + 1 / b2 - 1)
        return ThreeLinesParams(delta, (a, a), (b1, b2))

    def third_iterate(par):
        start = indeterminacy(par).backward_b[1]
        components = TLMap.from_params(par).components
        pt, i = start.coords, start.divided_by
        for _ in range(3):
            pt, i = divide_by_pivot(components(*pt))
        return pt, i

    pt, _ = third_iterate(params(b2))
    par = params(pt[1] / pt[2] * (1 + 1e-8))
    return par, OrbitData((1, 1), (1, 2)), third_iterate(par)


def _check_bits(rep):
    return [(c.label, c.steps, c.residual.hex(), c.collision_step)
            for c in rep.checks]


@pytest.mark.parametrize("x, indices", [
    (-25 / 64, (0, 0, 0)),  # same divisor index: the q_k - p_k branch
    (6 / 64, (0, 0, 1)),    # different divisor indices: the moduli branch
    # pivot_index of q's normalized coordinates is not the index q was
    # divided by; taking it for q's index would skip this collision
    (-7 / 64, (0, 1, 1)),
    (2 / 64, (1, 0, 0)),
])
def test_orbit_verify_screen_at_a_forward_b_tie(x, indices):
    """Each branch of orbit_verify's collision screen, where the b2 orbit
    meets forward_b[0] at step 3 with components that do not vanish: only
    the distance check can report it.  indices = (the index forward_b[0] was
    divided by, pivot_index of its coordinates, the iterate's index)."""
    par, orbit, (pt, i) = _tie_collision_case(x)
    q = indeterminacy(par).forward_b[0]
    assert (q.divided_by, q.pivot_index, i) == indices
    assert 1e-10 < q.distance(ProjectivePoint(*pt)) < COLLISION_TOL
    assert not _vanishes(TLMap.from_params(par).components(*pt))
    rep = orbit_verify(par, orbit)
    assert _check_bits(rep) == _check_bits(orbit_verify_reference(par, orbit))
    checks = {c.label: c for c in rep.checks}
    assert checks["b2"] in rep.collisions and checks["b2"].collision_step == 3


def test_orbit_verify_equals_the_per_point_reference():
    """Every report field, residual bits included, equals the loop that
    iterates ProjectivePoints: at every circle root of the acceptance orbit
    data, of ((6,5),(5,7)), whose residuals of 1.18e-8 and 1.15e-8 fail, of
    the N = 3 data ((3,4,5),(2,3,4)) and of two N = 3 data of the benchmark's
    three-lines pool, at the collision case and at the negative control."""
    cases = []
    for orbit in (OrbitData((2,), (1,)), OrbitData((1, 2), (1, 1)),
                  OrbitData((6, 5), (5, 7)), OrbitData((3, 4, 5), (2, 3, 4)),
                  OrbitData((6, 3, 1), (2, 2, 1)),
                  OrbitData((2, 5, 6), (2, 2, 4))):
        cases += [(ab_from_delta(root.center, orbit), orbit)
                  for root in salem_from_orbit(orbit).circle_roots]
    cases.append(_collision_case())
    orb = OrbitData((2,), (1,))
    cases.append((ab_from_delta(0.83 + 0.61j, orb), orb))
    reports = [orbit_verify(par, orbit) for par, orbit in cases]
    assert ([_check_bits(rep) for rep in reports]
            == [_check_bits(orbit_verify_reference(par, orbit))
                for par, orbit in cases])
    outcomes = [rep.passed for rep in reports]
    # the conjugate pair of (6,5),(5,7), two roots of (3,4,5),(2,3,4), one
    # of (2,5,6),(2,2,4), the collision and the control fail
    assert outcomes.count(False) == 7
    assert max(rep.max_residual for rep, ok in zip(reports, outcomes)
               if ok) < 1e-8


def test_max_residual_is_nan_when_a_residual_is_nan():
    checks = tuple(OrbitCheck(f"a{k}", 1, r)
                   for k, r in enumerate((1e-9, math.nan, 2e-9)))
    rep = OrbitReport(checks)
    assert not rep.passed and math.isnan(rep.max_residual)
    assert OrbitReport(checks[::2]).max_residual == 2e-9


def _complex_bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("orbit", [OrbitData((2,), (1,)),
                                   OrbitData((1, 2), (1, 1)),
                                   OrbitData((3, 4, 5), (2, 3, 4))])
def test_components_equal_the_jet_bit_for_bit(orbit):
    """TLMap.components has its own path; it gives jet(x, y, z, ())[0] bit
    for bit, signed zeros included, on complex, float and int inputs and on
    balls."""
    root = salem_from_orbit(orbit).circle_roots[0]
    tlm = TLMap.from_params(ab_from_delta(root.center, orbit))
    rng = random.Random(30)
    values = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
              0.0, -0.0, 1, 1.0, -2.5 + 1e-300j]
    values += [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
               for _ in range(4)]
    for x, y, z in itertools.product(values, repeat=3):
        got = [complex(c) for c in tlm.components(x, y, z)]
        want = [complex(c) for c in tlm.jet(x, y, z, ())[0]]
        assert _complex_bits(got) == _complex_bits(want), (x, y, z)
    balls = TLMap.ball_map(*param_balls(root, orbit))
    for _ in range(20):
        hom = [ComplexBall(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                           rng.choice((0.0, 1e-12))) for _ in range(3)]
        got = balls.components(*hom)
        want = balls.jet(*hom, ())[0]
        assert (_complex_bits(c.center for c in got)
                == _complex_bits(c.center for c in want))
        assert [c.radius.hex() for c in got] == [c.radius.hex() for c in want]


def test_fixed_points_count_and_w0():
    orb = OrbitData((1, 2), (1, 1))
    cert = salem_from_orbit(orb)
    recs = fixed_points_tl(cert.circle_roots[0], orb)
    assert len(recs) == orb.N + 3
    assert recs[0].location is Location.CURVE_SINGULAR
    assert sum(1 for r in recs if r.location is Location.AFFINE_DIAGONAL) == orb.N
    assert sum(1 for r in recs if r.location is Location.INFINITY) == 2


@pytest.mark.parametrize("orb", [OrbitData((2,), (1,)),
                                 OrbitData((1, 2), (1, 1))])
def test_singular_record_lemma_meets_the_chart_jacobian_record(orb):
    # the record from the chart-map Jacobian at [0:0:1] is the oracle: each
    # lemma ball meets it and is no wider
    w0 = ProjectivePoint(0, 0, 1)
    roots = salem_from_orbit(orb).circle_roots
    assert roots
    for root in roots:
        lemma = fixed_points_tl(root, orb)[0]
        assert lemma.location is Location.CURVE_SINGULAR
        tlm = TLMap.ball_map(*param_balls(root, orb))
        chart = record_from_jacobian(Location.CURVE_SINGULAR, w0,
                                     chart_jacobian(tlm, w0, chart=2))
        pairs = [(lemma.trace, chart.trace), (lemma.det, chart.det),
                 (lemma.s, chart.s)]
        for e in lemma.eigenvalues:
            pairs.append((e, min(chart.eigenvalues,
                                 key=lambda c: abs(c.center - e.center))))
        for got, want in pairs:
            assert not got.disjoint(want)
            assert got.radius <= want.radius
        assert lemma.s.contains(1.0)


def test_certify_three_lines_jacobians_only_off_the_singular_point(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return chart_jacobian(*args, **kwargs)

    monkeypatch.setattr(threelines, "chart_jacobian", counting)
    orb = OrbitData((1, 2), (1, 1))
    certify_three_lines(orb)
    roots = salem_from_orbit(orb).circle_roots
    assert len(calls) == (orb.N + 2) * len(roots)


def test_fixed_points_n1_linear_oracle():
    # d (1 - x/a) = 1 - x/b at every circle root of (2),(1)
    orb = OrbitData((2,), (1,))
    roots = salem_from_orbit(orb).circle_roots
    assert roots
    for root in roots:
        par = ab_from_delta(root.center, orb)
        d = (1 + par.delta) ** 2 / par.delta
        x1 = (d - 1) / (d / par.a[0] - 1 / par.b[0])
        recs = fixed_points_tl(root, orb)
        aff = [r for r in recs if r.location is Location.AFFINE_DIAGONAL]
        assert len(aff) == 1
        assert abs(aff[0].coords.x / aff[0].coords.z - x1) < 1e-9


def test_fixed_points_equal_parameter_closed_form():
    # equal orbit lengths give equal parameters a_i = a0, b_i = b0, at each
    # of the 6 circle roots of (2,2,2),(1,1,1)
    n = 3
    orb = OrbitData((2,) * n, (1,) * n)
    roots = salem_from_orbit(orb).circle_roots
    assert len(roots) == 6
    for root in roots:
        par = ab_from_delta(root.center, orb)
        a0, b0 = par.a[0], par.b[0]
        lam = ((1 + par.delta) ** 2 / par.delta) ** (1.0 / n)
        eps_n = cmath.exp(2j * cmath.pi / n)
        want = [a0 * b0 * (1 - lam * eps_n ** el) / (a0 - b0 * lam * eps_n ** el)
                for el in range(1, n + 1)]
        recs = fixed_points_tl(root, orb)
        got = [r.coords.x / r.coords.z
               for r in recs if r.location is Location.AFFINE_DIAGONAL]
        assert len(got) == n
        # the closed form uses one branch of d^(1/N); match as sets
        for g in got:
            assert min(abs(g - w) for w in want) < 1e-8


def test_strict_evidence_n2_cross_terms():
    """N = 2 reaches the cross terms of the x-product in the cleared
    fixed-point equation.  The eliminated polynomial must vanish at every
    certified diagonal fixed abscissa, an oracle independent of the
    elimination code."""
    from siegelcert.certifier import StrictEvidence
    from siegelcert.strictmode import (abscissa_resultant_tl,
                                       three_lines_strict_evidence)
    orb = OrbitData((2, 3), (2, 3))
    cert = salem_from_orbit(orb)
    assert three_lines_strict_evidence(cert.poly, orb) == \
        StrictEvidence(56, 28, 43, True)
    elim = abscissa_resultant_tl(cert.poly, orb)
    scale = sum(abs(c) for c in elim.coeffs)
    assert len(cert.circle_roots) == 26
    for root in cert.circle_roots:
        recs = fixed_points_tl(root, orb)
        aff = [r for r in recs if r.location is Location.AFFINE_DIAGONAL]
        assert len(aff) == orb.N
        for r in aff:
            x = r.coords.x / r.coords.z
            rel = abs(elim.eval_complex(x)) / (scale * max(1.0, abs(x)) ** elim.degree)
            assert rel < 1e-9


def test_trace_affine_formula_and_fd():
    # at the circle roots of pool orbit data with N = 2
    checked = 0
    for orb in (OrbitData((1, 2), (1, 1)), OrbitData((2, 3), (2, 3))):
        for root in salem_from_orbit(orb).circle_roots:
            par = ab_from_delta(root.center, orb)
            for rec in fixed_points_tl(root, orb):
                if rec.location is not Location.AFFINE_DIAGONAL:
                    continue
                x = rec.coords.x / rec.coords.z
                tr = trace_affine(par, x)
                if abs(tr.center) > 50:
                    continue  # fixed point grazing a parameter pole
                assert abs(tr.center - rec.trace.center) < 1e-8 * (1 + abs(tr.center))
                # Richardson-refined central differences of f2 in y
                def f2(xx, yy):
                    return _affine_image(par, xx, yy)[1]
                def diff(h):
                    return (f2(x, x + h) - f2(x, x - h)) / (2 * h)
                fd = (4 * diff(5e-6) - diff(1e-5)) / 3
                assert abs(fd - tr.center) < 1e-6 * (1 + abs(tr.center))
                checked += 1
    assert checked >= 12


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
        v_ratio = ball_in_interval(ratio)
        svals = infinity_eigen_data(delta, ratio)
        v_eigen = [ball_in_interval(s) for s in svals]
        for ve in v_eigen:
            if {v_ratio, ve} == {Verdict.CERTIFIED_IN, Verdict.CERTIFIED_OUT}:
                contradictions += 1
            elif v_ratio is ve is not Verdict.UNKNOWN:
                agreements += 1
    assert contradictions == 0
    assert agreements > 100


def test_construct_c0_reference_case():
    par = design_c0(2, 0.99)
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
        par = design_c0(1, d)
        gaps.append(abs(par.a[0] / par.b[0]) - 1.0)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_construct_c0_rejects_far_d():
    with pytest.raises((SearchFailed, ValueError)):
        design_c0(2, 0.5)
    with pytest.raises(ValueError):
        design_c0(1, 1.5)


def test_construct_c0_walks_the_determinant_ladder(monkeypatch):
    # a failed design moves to the next rung, halving 1 - d; the first design
    # that certifies is returned, and after nine rungs the walk gives up
    tried = []
    failing = 3

    def design(N, d):
        tried.append(d)
        if len(tried) <= failing:
            raise NoSalemFactor("injected")
        return design_c0(N, d)

    monkeypatch.setattr(threelines, "design_c0", design)
    assert construct_c0(1) == design_c0(1, tried[-1])
    assert tried[0] == threelines.D0_TARGET and len(tried) == failing + 1
    for d, nxt in zip(tried, tried[1:]):
        assert nxt == 1.0 - 0.5 * (1.0 - d)
    tried.clear()
    failing = 100
    with pytest.raises(SearchFailed, match="no design determinant worked "
                                           "for N=1: injected"):
        construct_c0(1)
    assert len(tried) == 9 and 1.0 - tried[-1] >= 1e-4


@pytest.mark.parametrize("N, d", [(2, 0.96), (3, 0.98)])
def test_construct_c0_certified_where_sufficient_bounds_fail(N, d):
    # the paper's correction bound fails at these designs; the In-pattern
    # certificate of all N+2 rotation numbers holds
    par = design_c0(N, d)
    assert par.N == N and abs(par.c - 1) < 1e-12
    svals, ratio = design_rotation_numbers(par.a, par.b, d)
    assert len(svals) == N
    for s in svals + [ratio]:
        assert ball_in_interval(s) is Verdict.CERTIFIED_IN


def test_construct_cstar_all_outside():
    for n in (1, 2, 3):
        par = construct_cstar(n)
        assert abs(par.c - 1) < 1e-12
        svals, ratio = design_rotation_numbers(
            [v / par.c for v in par.a], [v / par.c for v in par.b], 1.0 / 16.0)
        for s in svals:
            assert ball_in_interval(s) is Verdict.CERTIFIED_OUT
        assert ball_in_interval(ratio) is Verdict.CERTIFIED_OUT


def test_construct_cstar_names_the_ladder_when_every_spread_fails():
    # at N = 7 the small spreads stop converging in the abscissa root
    # iteration; that error moves to the next rung like any other, so the
    # failure names the ladder
    with pytest.raises(PerturbationFailed,
                       match="no spread size worked for N=7: "):
        construct_cstar(7)


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
    c0 = construct_c0(1)
    cs = construct_cstar(1)
    res = approx_parameters(c0, cs, accept=lambda r: True)
    assert abs(res.delta0.center - c0.delta) < 1.6
    assert abs(res.delta_star.center - cs.delta) < 1.6
    assert abs(ab_from_delta(res.delta0.center, res.orbit).c - 1) < 1e-9
    assert abs(ab_from_delta(res.delta_star.center, res.orbit).c - 1) < 1e-9
    # returned roots satisfy the constraint
    assert abs(chi(res.delta0.center, res.orbit).center - 1) < 1e-9


def test_approx_parameters_budget_exhausted(monkeypatch):
    # no root lies within eps of both targets, so accept is never called
    c0 = construct_c0(1)
    cs = construct_cstar(1)
    offered = []
    monkeypatch.setattr(threelines, "DEFAULT_EPS", 1e-9)
    monkeypatch.setattr(threelines, "DEFAULT_MN_CAP", 3)
    with pytest.raises(BudgetExhausted,
                       match=r"at eps=1e-09: 12 orbit data tried$"):
        approx_parameters(c0, cs, accept=offered.append)
    assert offered == []


def test_approx_parameters_counts_skipped_orbit_data(monkeypatch):
    # the counts are totals over the four density ranks: each rank sweeps
    # m_N = 1..cap (rank 0 passes over the excluded ((1,), (1,)))
    c0 = construct_c0(1)
    cs = construct_cstar(1)
    errors = {2: NoSalemFactor, 3: BoundaryUndecidable, 5: NoSalemFactor}
    real = threelines.salem_from_orbit

    def salem(orbit):
        if orbit.m[-1] in errors:
            raise errors[orbit.m[-1]]("injected")
        return real(orbit)

    def reject(candidate):
        offered.append(candidate)
        return False

    offered = []
    monkeypatch.setattr(threelines, "salem_from_orbit", salem)
    with pytest.raises(BudgetExhausted, match=(
            r"over 4 density ranks with m_N <= 18 at eps=1.6: 71 orbit data "
            r"tried \(12 skipped: 8 NoSalemFactor, 4 BoundaryUndecidable\)$")):
        approx_parameters(c0, cs, accept=reject)
    # no delta0 root is taken, so no delta* root is offered; each delta0
    # root near c0 is offered once
    assert offered and {side for _, _, side in offered} == {"delta0"}
    assert len(set(offered)) == len(offered)
    offered.clear()
    monkeypatch.setattr(threelines, "DEFAULT_EPS", 1e-9)
    monkeypatch.setattr(threelines, "DEFAULT_MN_CAP", 5)
    with pytest.raises(BudgetExhausted, match=(
            r"at eps=1e-09: 20 orbit data tried \(13 skipped: 8 NoSalemFactor, "
            r"5 BoundaryUndecidable\)$")):
        approx_parameters(c0, cs, accept=reject)
    assert offered == []


def test_equidistribution_statistic_decreases():
    stats = [equidistribution_stat(OrbitData((m,), (1,))) for m in (10, 20, 40)]
    assert stats[0] > stats[1] > stats[2]
