"""Root isolation: reference instances, cluster handling, re-expansion."""

import math
import random

import pytest

from siegelcert.balls import _EPS, ComplexBall
from siegelcert.intpoly import strip_cyclotomic
from siegelcert.roots import (ComplexPolynomial, _undecided_pairs,
                              pairwise_disjoint, poly_roots, self_paired,
                              sort_roots)
from siegelcert.threelines import OrbitData, cleared_chi_polynomial

from oracles import pairwise_disjoint_reference, self_paired_reference

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
    assert len(rs) == 3 and not rs.is_simple
    for b in rs.balls:
        assert abs(b.center - 3.0) < 1e-3


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


# -- the sorted pair sweep against the loops over every pair ----------------

def _conjugate_inverse(b):
    return b.conjugate().inverse()


def _assert_sweep_matches(balls):
    """pairwise_disjoint and self_paired equal their all-pairs references,
    and every pair the sweep leaves out is disjoint."""
    assert pairwise_disjoint(balls) == pairwise_disjoint_reference(balls)
    images = [ComplexBall.conjugate]
    if not any(b.contains_zero() for b in balls):
        images.append(_conjugate_inverse)
    for image in images:
        assert self_paired(balls, image) == self_paired_reference(balls, image)
    for queries in (balls, [image(b) for b in balls for image in images]):
        for q, near in zip(queries, _undecided_pairs(queries, balls)):
            for j, b in enumerate(balls):
                if j not in near:
                    assert q.disjoint(b), (q, b)


def _random_disks(rng: random.Random, n: int) -> list[ComplexBall]:
    """Real disks and conjugate pairs (equal real parts) around the unit
    circle, with radii from 1e-14 to 1e-1."""
    out = []
    while len(out) < n:
        z = rng.uniform(0.3, 2.0) * complex(rng.gauss(0, 1), rng.gauss(0, 1))
        z /= abs(z)
        r = 10.0 ** rng.uniform(-14, -1)
        if rng.random() < 0.2:
            out.append(ComplexBall(complex(z.real * 1.5, 0.0), r))
        else:
            out += [ComplexBall(z, r), ComplexBall(z.conjugate(), r)]
    rng.shuffle(out)
    return out[:n]


def test_pair_sweep_matches_the_full_loops_on_random_disks():
    rng = random.Random(19)
    for trial in range(200):
        _assert_sweep_matches(_random_disks(rng, rng.randint(4, 40)))


def test_pair_sweep_matches_the_full_loops_on_disks_touching_within_ulps():
    # the second radius sits where disjoint's float gap crosses its
    # tolerance, moved by a few ulps either way, for several directions
    rng = random.Random(7)
    verdicts = set()
    for trial in range(200):
        c1 = complex(rng.uniform(-2, 2), rng.choice([0.0, rng.uniform(-2, 2)]))
        u = complex(1.0, rng.choice([0.0, 1e-9, rng.uniform(-1, 1)]))
        c2 = c1 + u / abs(u) * 10.0 ** rng.uniform(-12, -1)
        dist = abs(c2 - c1)
        tol = _EPS * (abs(c1) + abs(c2) + 1.0)
        r1 = (dist - tol) * rng.uniform(0.0, 0.99)
        edge = dist - tol - r1
        balls = [ComplexBall(c1, r1)]
        for ulps in range(-4, 5):
            balls.append(ComplexBall(c2, edge + ulps * math.ulp(edge)))
            pair = [balls[0], balls[-1]]
            verdicts.add(pairwise_disjoint(pair))
            _assert_sweep_matches(pair)
        _assert_sweep_matches(balls)
    assert verdicts == {True, False}


def test_pair_sweep_matches_the_full_loops_with_one_huge_disk():
    rng = random.Random(3)
    for trial in range(20):
        balls = _random_disks(rng, 30)
        balls.insert(rng.randrange(31), ComplexBall(
            complex(rng.uniform(-5, 5), 0.0), 10.0 ** rng.uniform(0, 2)))
        _assert_sweep_matches(balls)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_sweep_matches_the_full_loops_on_few_disks(n):
    rng = random.Random(n)
    for trial in range(100):
        _assert_sweep_matches(_random_disks(rng, n))
    assert pairwise_disjoint([ComplexBall(1.0, 0.5)] * n) == (n == 1)


def test_pair_sweep_matches_the_full_loops_on_the_degree_250_root_set():
    # the Salem candidate of (20,25),(18,22): 250 roots crowding the unit
    # circle, some of whose disks overlap
    salem = strip_cyclotomic(cleared_chi_polynomial(
        OrbitData((20, 25), (18, 22))))[0]
    rs = poly_roots(ComplexPolynomial(tuple(map(float, salem.coeffs))))
    assert len(rs) == 250
    assert rs.is_simple == pairwise_disjoint_reference(rs.balls)
    _assert_sweep_matches(list(rs.balls))
