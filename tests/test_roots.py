"""Root isolation: reference instances, cluster handling, re-expansion."""

import cmath
import math
import random

import numpy as np
import pytest

from siegelcert.balls import _EPS, ComplexBall
from siegelcert.errors import BallDomainError
from siegelcert.intpoly import strip_cyclotomic
from siegelcert.roots import (ComplexPolynomial, _undecided_pairs,
                              pairwise_disjoint, poly_roots, self_paired,
                              sort_roots)
from siegelcert.threelines import OrbitData, cleared_chi_polynomial

from oracles import (conjugate_inverse, pairwise_disjoint_reference,
                     self_paired_reference)

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


def test_coefficients_must_be_numbers():
    # complex() would parse "1+2j"; strings, bytes and other non-numbers are
    # rejected with the coefficients named
    for bad in (("3", "1+2j"), (1.0, b"2"), (None, 1.0), (1, [2])):
        with pytest.raises(ValueError, match="coefficients must be numbers"):
            ComplexPolynomial(bad)
    p = ComplexPolynomial((1, 2.0, 3j, True, np.int64(4), np.float64(5.0),
                           np.complex128(6j)))
    assert p.coeffs == (1, 2, 3j, 1, 4, 5, 6j)
    assert all(type(c) is complex for c in p.coeffs)


def test_coeff_radii_widen_certificates():
    p = ComplexPolynomial((-1.0, 0.0, 1.0))
    tight = poly_roots(p)
    loose = poly_roots(p, coeff_radii=(1e-6, 0.0, 0.0))
    assert loose.balls[0].radius > tight.balls[0].radius
    # true roots of every nearby polynomial stay enclosed
    for b in loose.balls:
        assert b.radius > 4e-7


def test_coeff_radii_need_one_finite_radius_per_coefficient():
    # (1, 1, 0) trims to 1 + x: a radius on the trimmed x^2 would admit
    # 1 + x + eps x^2, whose second root near -1/eps lies in no disk
    p = ComplexPolynomial((1, 1, 0))
    for radii in ((0.0, 0.0, 0.5), (0.0,), (0.0, -1e-9), (0.0, math.nan),
                  (math.inf, 0.0)):
        with pytest.raises(ValueError, match="one finite radius"):
            poly_roots(p, coeff_radii=radii)
    assert len(poly_roots(p, coeff_radii=(0.0, 0.5)).balls) == 1


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


def _self_paired_set(balls) -> set[int]:
    """roots.self_paired over every disk, as the set of self-paired ones."""
    centers = np.array([b.center for b in balls], dtype=complex)
    radii = np.array([b.radius for b in balls])
    rows = list(range(len(balls)))
    return {i for i, ok in zip(rows, self_paired(centers, radii, rows)) if ok}


def _pairing_outcome(pairing, balls):
    """The self-paired set, or the BallDomainError message raised."""
    try:
        return pairing(balls)
    except BallDomainError as exc:
        return f"BallDomainError: {exc}"


def test_self_paired_under_conjugate_inverse():
    balls = [ComplexBall(2.0, 1e-10), ComplexBall(0.5, 1e-10),
             ComplexBall(0.6 + 0.8j, 1e-10), ComplexBall(0.6 - 0.8j, 1e-10)]
    assert _self_paired_set(balls) == {2, 3}
    centers = np.array([b.center for b in balls])
    radii = np.array([b.radius for b in balls])
    assert self_paired(centers, radii, [3, 0]).tolist() == [True, False]
    assert self_paired(centers, radii, []).tolist() == []


# -- the sorted pair sweep and the array pairing against the loops ----------

def _assert_sweep_matches(balls):
    """pairwise_disjoint and self_paired equal their per-ball, all-pairs
    references (self_paired raising the same BallDomainError for a disk
    whose image is undefined), and every pair the sweep leaves out is
    disjoint."""
    assert pairwise_disjoint(balls) == pairwise_disjoint_reference(balls)
    want = _pairing_outcome(
        lambda bs: self_paired_reference(bs, conjugate_inverse), balls)
    assert _pairing_outcome(_self_paired_set, balls) == want
    images = [ComplexBall.conjugate]
    if isinstance(want, set):  # every image is defined
        images.append(conjugate_inverse)
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


def test_self_paired_matches_the_per_ball_images_touching_within_ulps():
    # a circle disk and a second disk whose gap to the first one's image
    # under 1/conj(z) sits at disjoint's tolerance, moved by a few ulps
    # either way; then single disks off the circle whose own image they
    # nearly touch
    rng = random.Random(23)
    verdicts = set()
    for trial in range(200):
        c = cmath.rect(1.0, rng.uniform(0.0, 2 * math.pi))
        b0 = ComplexBall(c, 10.0 ** rng.uniform(-12, -2))
        im = conjugate_inverse(b0)
        u = cmath.rect(1.0, rng.uniform(0.0, 2 * math.pi))
        c2 = im.center + u * 10.0 ** rng.uniform(-10, -1)
        dist = abs(im.center - c2)
        edge = dist - im.radius - _EPS * (abs(im.center) + abs(c2) + 1.0)
        if edge <= 0.0:
            continue
        for ulps in range(-4, 5):
            balls = [b0, ComplexBall(c2, edge + ulps * math.ulp(edge))]
            verdicts.add(0 in self_paired_reference(balls, conjugate_inverse))
            _assert_sweep_matches(balls)
    assert verdicts == {True, False}
    # disks off the circle whose own image they just touch or miss
    for trial in range(200):
        c = cmath.rect(1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-9, -3),
                       rng.uniform(0.0, 2 * math.pi))
        gap = abs(c - 1.0 / c.conjugate())
        balls = [ComplexBall(c, gap * f) for f in (0.4999999, 0.5, 0.5000001)]
        for b in balls:
            _assert_sweep_matches([b])
    # exact ties: a point disk on the circle and a second disk whose gap to
    # its image equals disjoint's tolerance to the last bit, so the two meet
    ties = 0
    for trial in range(200):
        b0 = ComplexBall(cmath.rect(1.0, rng.uniform(0.0, 2 * math.pi)), 0.0)
        im = conjugate_inverse(b0)
        c2 = im.center + cmath.rect(10.0 ** rng.uniform(-12.5, -11),
                                    rng.uniform(0.0, 2 * math.pi))
        dist = abs(im.center - c2)
        tol = _EPS * (abs(im.center) + abs(c2) + 1.0)
        edge = dist - im.radius - tol
        for ulps in range(-64, 65):
            r2 = edge + ulps * math.ulp(edge)
            if r2 >= 0.0 and dist - (im.radius + r2) == tol:
                ties += 1
                _assert_sweep_matches([b0, ComplexBall(c2, r2)])
    assert ties > 0


def test_self_paired_raises_the_per_ball_error_for_a_disk_that_holds_zero():
    ring = [ComplexBall(cmath.rect(1.0, 0.7 * k), 1e-9) for k in range(6)]
    for bad in (ComplexBall(0.01 + 0.02j, 0.05),    # holds 0: |c| <= r
                ComplexBall(1e-150 + 0j, 0.0),       # |c|^2 - r^2 <= _TINY
                ComplexBall(-0.3 - 0.0j, 0.3)):      # 0 on its boundary
        for at in (0, 3, 6):
            balls = ring[:at] + [bad] + ring[at:]
            with pytest.raises(BallDomainError) as got:
                _self_paired_set(balls)
            with pytest.raises(BallDomainError) as want:
                conjugate_inverse(bad)
            assert str(got.value) == str(want.value)
            _assert_sweep_matches(balls)
    # the first disk that fails raises, as the loop over the disks does
    first, second = ComplexBall(0.1j, 0.2), ComplexBall(-0.1, 0.2)
    with pytest.raises(BallDomainError, match=r"0\.1j"):
        _self_paired_set(ring[:2] + [first, second])
