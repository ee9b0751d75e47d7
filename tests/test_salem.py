"""Salem certificates: the degree-8 instance, cyclotomic rejections, oracles."""

import cmath
import math
import random

import pytest

from siegelcert import salem
from siegelcert.balls import _EPS, _TINY, ComplexBall
from siegelcert.errors import BallDomainError, BoundaryUndecidable, NoSalemFactor
from siegelcert.intpoly import IntPolynomial, cyclotomic
from siegelcert.roots import RootSet, sort_roots
from siegelcert.salem import SalemCertificate, is_salem

from oracles import salem_pattern_reference


def test_salem8_certificate(salem8, salem8_cert):
    cert = salem8_cert
    assert isinstance(cert, SalemCertificate)
    assert len(cert.circle_roots) == 6 == salem8.degree - 2
    assert cert.lam.contains(1.994004199185754)
    assert abs(cert.lam.center.real - 1.9940) < 5e-4
    assert cert.lam.center.real - cert.lam.radius > 1
    assert abs(cert.inv_lam.center.real - 0.5015) < 5e-4
    assert abs(cert.entropy - 0.6901) < 1e-3


def test_circle_roots_certified_on_circle(salem8_cert):
    for b in salem8_cert.circle_roots:
        lo, hi = b.abs_bounds()
        assert lo <= 1.0 <= hi
        assert hi - lo < 1e-9


def test_rejects_every_cyclotomic_up_to_30():
    for k in range(1, 31):
        with pytest.raises(NoSalemFactor, match="degree|cyclotomic"):
            is_salem(cyclotomic(k))


def test_failed_pattern_names_a_proof_or_a_straddler(monkeypatch):
    # two disks certified on one side of the unit circle prove the
    # polynomial is not Salem, straddlers or not; with at most one on each
    # side, a straddling disk may hold lambda or 1/lambda, which double
    # precision cannot decide
    lehmer = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))

    def circle(n):
        return [ComplexBall(cmath.rect(1.0, 0.3 * (k + 1)), 1e-9)
                for k in range(n)]

    for balls, want in (
            ([ComplexBall(3.0, 1e-9), ComplexBall(-3.0, 1e-9),
              ComplexBall(0.3, 1e-9), ComplexBall(-0.3, 1e-9)] + circle(6),
             NoSalemFactor),
            ([ComplexBall(3.0, 1e-9)] + circle(9), BoundaryUndecidable),
            (circle(10), BoundaryUndecidable)):
        monkeypatch.setattr(salem, "poly_roots",
                            lambda p, coeff_radii=None, bs=tuple(balls):
                            RootSet(bs, True))
        with pytest.raises(want):
            is_salem(lehmer)
        with pytest.raises(want):
            salem_pattern_reference(balls)


def test_inexact_coefficients_widen_the_disks(monkeypatch):
    # a coefficient beyond 2^53 rounds on its way to a float: poly_roots
    # gets each exact conversion error, rounded up, as its coefficient
    # radius, so the disks hold for the integer polynomial itself
    seen = []
    real = salem.poly_roots

    def poly_roots(p, coeff_radii=None):
        seen.append((p.coeffs, coeff_radii))
        return real(p, coeff_radii=coeff_radii)

    monkeypatch.setattr(salem, "poly_roots", poly_roots)
    for c, radius in ((2 ** 60 + 1, 1.0), (2 ** 120 + 2 ** 54 + 1, None)):
        try:
            is_salem(IntPolynomial((1, c, 3, c, 1)))
        except (BoundaryUndecidable, NoSalemFactor):
            pass
        (coeffs, radii), = seen
        seen.clear()
        assert coeffs == (1, float(c), 3, float(c), 1)
        assert radii[0] == radii[2] == radii[4] == 0.0
        assert radii[1] == radii[3] >= abs(c - int(float(c)))
        if radius is not None:
            assert radii[1] == radius
    # exact conversions pass no radii
    is_salem(IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)))
    assert seen[-1][1] is None


def test_coefficient_beyond_double_range_is_a_domain_error():
    with pytest.raises(BallDomainError, match="out of double range"):
        is_salem(IntPolynomial((1, 10 ** 400, 3, 10 ** 400, 1)))


def test_rejects_structural_defects(salem8):
    with pytest.raises(NoSalemFactor, match="zero"):
        is_salem(IntPolynomial(()))
    with pytest.raises(NoSalemFactor, match="monic"):
        is_salem(2 * salem8)
    with pytest.raises(NoSalemFactor, match="degree"):
        is_salem(IntPolynomial((1, -3, 1)))
    with pytest.raises(NoSalemFactor, match="odd degree 5"):
        is_salem(IntPolynomial((-1, -1, 0, 0, 0, 1)))  # t^5 - t - 1
    with pytest.raises(NoSalemFactor, match="reciprocal"):
        is_salem(IntPolynomial((2, -2, 1, -2, 1, -2, 1, -2, 1)))


def test_rejects_cyclotomic_multiple(salem8):
    # Salem times Phi_4 has the right outside/inside pattern but roots of
    # unity +-i; certifying them would break the not-a-root-of-unity
    # conclusion, so no circle-root disk of the certificate may hold them
    cert = is_salem(salem8 * cyclotomic(4))
    assert len(cert.circle_roots) == salem8.degree - 2
    for b in cert.circle_roots:
        assert not b.contains(1j) and not b.contains(-1j)


def test_salem_factor_strips_cyclotomic_part(salem8):
    cert = is_salem(salem8 * cyclotomic(4))
    assert isinstance(cert, SalemCertificate)
    assert cert.poly == salem8
    # repeated factors, and an odd-degree multiple, strip the same way
    cert = is_salem(salem8 * cyclotomic(1) * cyclotomic(6) * cyclotomic(6))
    assert cert.poly == salem8


def test_rejects_cyclotomic_product():
    with pytest.raises(NoSalemFactor, match="degree 0 < 4"):
        is_salem(cyclotomic(1) * cyclotomic(4) * cyclotomic(12))


def test_lehmer_degree_case_vs_chi_bisection():
    from oracles import lambda_by_bisection
    from siegelcert.threelines import OrbitData, salem_from_orbit
    orbit = OrbitData((2,), (1,))
    cert = salem_from_orbit(orbit)
    assert isinstance(cert, SalemCertificate)
    lam = lambda_by_bisection(orbit)
    assert abs(cert.lam.center.real - lam) < 1e-9


def test_salem_certificate_implies_not_root_of_unity(salem8_cert):
    # every unit-circle root ball is far from every root of unity of small order
    import cmath
    for b in salem8_cert.circle_roots:
        for k in range(1, 13):
            for j in range(k):
                assert abs(b.center - cmath.exp(2j * cmath.pi * j / k)) > 1e-3


def test_double_roots_are_boundary_undecidable():
    lehmer = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    assert isinstance(is_salem(lehmer), SalemCertificate)
    # L^2 passes every exact check; its double roots give overlapping disks,
    # which the one classification pass cannot resolve
    with pytest.raises(BoundaryUndecidable):
        is_salem(lehmer * lehmer)


def _bits(b: ComplexBall):
    return (b.center.real.hex(), b.center.imag.hex(), b.radius.hex())


def _pattern_outcome(check, balls):
    try:
        lam, inv_lam, circle = check(balls)
    except (BallDomainError, BoundaryUndecidable, NoSalemFactor) as exc:
        return type(exc).__name__, str(exc)
    return _bits(lam), _bits(inv_lam), [_bits(b) for b in sort_roots(circle)]


def _edge_disk(rng, modulus_edge: bool) -> ComplexBall:
    """A disk whose abs_bounds lower (or upper) bound sits within a few
    ulps of 1, on either side."""
    step = rng.randint(-3, 3) * 2.0 ** -52
    if modulus_edge:
        c = cmath.rect(1.0 + 10.0 ** rng.uniform(-12, -4),
                       rng.uniform(0.0, 2 * math.pi))
        r = abs(c) - (1.0 / (1.0 - _EPS) + step)
    else:
        c = cmath.rect(1.0 - 10.0 ** rng.uniform(-12, -4),
                       rng.uniform(0.0, 2 * math.pi))
        r = (1.0 - _TINY) / (1.0 + _EPS) + step - abs(c)
    return ComplexBall(c, max(0.0, r))


def test_pattern_checks_decide_as_the_per_ball_checks(monkeypatch, salem8):
    """is_salem's array split and pairing against the per-ball checks
    (oracles.salem_pattern_reference) on crafted simple root sets of the
    degree-8 Salem polynomial: disks at the abs_bounds edges, a disk that
    holds 0, a second disk outside, crowded circle disks, a complex lam."""
    rng = random.Random(5)
    outcomes = set()
    for trial in range(400):
        circle = []
        for _ in range(3):
            z = cmath.rect(1.0, rng.uniform(0.1, 3.0))
            r = 10.0 ** rng.uniform(-13, -3)
            circle += [ComplexBall(z, r), ComplexBall(z.conjugate(), r)]
        balls = [ComplexBall(1.994004199185754, 1e-12),
                 ComplexBall(0.5015, 1e-12)] + circle
        mode = rng.randrange(7)
        if mode == 1:
            balls[rng.randrange(2, 8)] = _edge_disk(rng, True)
        elif mode == 2:
            balls[rng.randrange(2, 8)] = _edge_disk(rng, False)
        elif mode == 3:
            balls[1] = ComplexBall(complex(rng.uniform(-0.1, 0.1),
                                           rng.uniform(-0.1, 0.1)), 0.2)
        elif mode == 4:
            balls[2] = ComplexBall(3.0, 1e-9)
        elif mode == 5:  # a neighbour inside the image of disk 2
            balls[3] = ComplexBall(balls[2].center * cmath.rect(
                1.0, 10.0 ** rng.uniform(-9, -5)), balls[2].radius)
        elif mode == 6:
            balls[0] = ComplexBall(1.99 + rng.choice([1e-3, 1e-13]) * 1j, 1e-12)
        rng.shuffle(balls)
        monkeypatch.setattr(salem, "poly_roots",
                            lambda p, coeff_radii=None, bs=tuple(balls):
                            RootSet(bs, True))
        want = _pattern_outcome(salem_pattern_reference, balls)

        def through_is_salem(_):
            cert = is_salem(salem8)
            return cert.lam, cert.inv_lam, cert.circle_roots

        assert _pattern_outcome(through_is_salem, balls) == want
        outcomes.add(want[0] if isinstance(want[0], str) and len(want) == 2
                     else "certified")
    assert outcomes == {"certified", "BallDomainError", "BoundaryUndecidable",
                        "NoSalemFactor"}
