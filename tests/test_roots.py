"""Root isolation: reference instances, cluster handling, re-expansion."""

import random

import pytest

from siegelcert.balls import ComplexBall
from siegelcert.errors import ClusterUnresolved
from siegelcert.roots import (ComplexPolynomial, poly_roots, self_paired,
                              sort_roots)

LISTED_ROOTS = (
    1.9940 + 0.0j,
    0.5015 + 0.0j,
    0.6098 + 0.7925j, 0.6098 - 0.7925j,
    -0.1098 + 0.9939j, -0.1098 - 0.9939j,
    -0.7478 + 0.6640j, -0.7478 - 0.6640j,
)


def test_symmetric_quadratic():
    rs = poly_roots(ComplexPolynomial((-1.0, 0.0, 1.0)))
    got = sorted(b.center.real for b in rs.balls)
    assert abs(got[0] + 1) < 1e-14 and abs(got[1] - 1) < 1e-14
    assert rs.is_simple


def test_salem8_roots_match_listed_values(salem8):
    rs = poly_roots(ComplexPolynomial(tuple(map(float, salem8.coeffs))))
    assert len(rs) == 8 and rs.is_simple
    for target in LISTED_ROOTS:
        best = min(abs(b.center - target) for b in rs.balls)
        assert best < 5e-4, f"no root within 5e-4 of {target}"
    for b in rs.balls:
        assert b.radius < 1e-10


def test_triple_root_cluster_flagged():
    p = ComplexPolynomial((-27.0, 27.0, -9.0, 1.0))  # (t-3)^3
    rs = poly_roots(p)
    assert len(rs.clusters) == 1 and len(rs.clusters[0]) == 3
    for b in rs.balls:
        assert abs(b.center - 3.0) < 1e-3


def test_triple_root_require_simple_raises():
    p = ComplexPolynomial((-27.0, 27.0, -9.0, 1.0))
    with pytest.raises(ClusterUnresolved):
        poly_roots(p, require_simple=True)


def test_reexpansion_matches_coefficients():
    """prod (t - root_center) re-expanded matches the input within degree*tol."""
    rng = random.Random(7)
    for trial in range(25):
        deg = rng.randint(2, 9)
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg)]
        coeffs.append(complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))
        p = ComplexPolynomial(tuple(coeffs))
        rs = poly_roots(p)
        if not rs.is_simple:
            continue
        prod = [p.coeffs[-1]]
        for b in rs.balls:
            prod = [0j] + prod
            for i in range(len(prod) - 1):
                prod[i] = prod[i] - b.center * prod[i + 1]
        scale = max(abs(c) for c in p.coeffs)
        for got, want in zip(prod, p.coeffs):
            assert abs(got - want) < p.degree * 1e-9 * scale


def test_degree_and_tol_validation():
    with pytest.raises(ValueError):
        poly_roots(ComplexPolynomial((1.0,)))


def test_coeff_radii_widen_certificates():
    p = ComplexPolynomial((-1.0, 0.0, 1.0))
    tight = poly_roots(p)
    loose = poly_roots(p, coeff_radii=(1e-6, 0.0, 0.0))
    assert loose.balls[0].radius > tight.balls[0].radius
    # true roots of every nearby polynomial stay enclosed
    for b in loose.balls:
        assert b.radius > 4e-7


def test_large_reciprocal_polynomial_converges():
    from siegelcert.threelines import OrbitData, cleared_chi_polynomial
    from siegelcert.intpoly import strip_cyclotomic
    rest, _ = strip_cyclotomic(cleared_chi_polynomial(OrbitData((37, 5), (16, 24))))
    assert rest.degree > 200
    rs = poly_roots(ComplexPolynomial(tuple(map(float, rest.coeffs))))
    assert rs.is_simple
    assert max(b.radius for b in rs.balls) < 1e-6


def test_sort_roots_deterministic_order():
    rs = poly_roots(ComplexPolynomial((-1.0, 0.0, 0.0, 0.0, 1.0)))  # 4th roots of 1
    args = [b.center for b in sort_roots(rs.balls)]
    assert abs(args[0] - 1) < 1e-12
    assert abs(args[1] - 1j) < 1e-12
    assert abs(args[2] + 1) < 1e-12
    assert abs(args[3] + 1j) < 1e-12


def test_self_paired_under_conjugation():
    balls = [
        ComplexBall(0.5 + 1e-12j, 1e-10),   # a real root
        ComplexBall(1 + 2j, 1e-10),         # a conjugate pair: each disk's
        ComplexBall(1 - 2j, 1e-10),         # image is the other disk
        ComplexBall(3 + 1e-3j, 1e-2),       # two overlapping disks on the
        ComplexBall(3.005 - 1e-3j, 1e-2),   # axis: each image meets both
    ]
    assert self_paired(balls, ComplexBall.conjugate) == {0}


def test_self_paired_under_conjugate_inverse():
    balls = [ComplexBall(2.0, 1e-10), ComplexBall(0.5, 1e-10),
             ComplexBall(0.6 + 0.8j, 1e-10), ComplexBall(0.6 - 0.8j, 1e-10)]
    assert self_paired(balls, lambda b: b.conjugate().inverse()) == {2, 3}
