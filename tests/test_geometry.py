"""Projective normalization, chordal distance and chart Jacobians."""

import itertools
import math
import random

import pytest

from siegelcert.cuspidal import QuadMap, orbit_polynomial
from siegelcert.geometry import (ProjectivePoint, chart_jacobian,
                                 chordal_distance, divide_by_pivot, norm,
                                 pivot_index)
from siegelcert.salem import is_salem
from siegelcert.threelines import (OrbitData, TLMap, param_balls,
                                   salem_from_orbit)

from oracles import (chart_jacobian_reference, distance_reference,
                     normalize_reference, quad_reference, tl_reference)


def _bits(values):
    """Exact bits of complex or float values; tells -0.0 from 0.0."""
    out = []
    for v in values:
        v = complex(v)
        out.append((v.real.hex(), v.imag.hex()))
    return out


def _triples():
    rng = random.Random(16)

    def z():
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

    triples = [(z(), z(), z()) for _ in range(300)]
    # the line at infinity, and its coordinate points
    triples += [(z(), z(), 0) for _ in range(50)]
    triples += [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0j, -2.5)]
    # tied largest moduli, exact in binary: the first index must be the pivot
    triples += [(1, 1j, 0.5), (0.25, -1, 1), (3 + 4j, 5, 4j - 3),
                (2, -2, 2j), (-1j, 0, 1j), (0, 0.5, -0.5j)]
    # ints and floats as well as complex entries, and tiny and huge scales
    triples += [(1, 2, 3), (1e-200 + 1e-200j, 3e-200, 0), (1e200, -1e200j, 1)]
    return triples


def test_normalize_matches_the_reference_bits():
    """divide_by_pivot gives the reference's bits and the index it divided
    by; ProjectivePoint keeps both."""
    for t in _triples():
        got, i = divide_by_pivot(t)
        assert _bits(got) == _bits(normalize_reference(t)), t
        mags = [abs(complex(c)) for c in t]
        assert i == mags.index(max(mags)), t
        point = ProjectivePoint(*t)
        assert _bits(point.coords) == _bits(got) and point.divided_by == i


def test_the_divisor_index_is_not_read_off_the_result():
    # |x| = |y| = 2 at |delta| = 1, divided by x; the quotient y/x = -1/delta
    # is a phase whose computed modulus exceeds the 1 at x by rounding
    delta = complex(0.0625, math.sqrt(1 - 0.0625 ** 2))
    coords, i = divide_by_pivot((-2 * delta, 2, 1))
    assert i == 0 and pivot_index(coords) == 1
    assert ProjectivePoint(-2 * delta, 2, 1).divided_by == 0


def test_pivot_index_scan_equals_max_and_index():
    nan = float("nan")
    values = (0, 0.0, -0.0, 1, -1, 1j, 0.5, 2, 3 + 4j, 5, nan,
              complex(nan, 0), float("inf"), 1e-300)
    for t in itertools.product(values, repeat=3):
        mags = list(map(abs, t))
        assert pivot_index(t) == mags.index(max(mags)), t


def test_pivot_is_the_first_coordinate_of_largest_modulus():
    assert pivot_index((1, 1j, 0.5)) == 0
    assert pivot_index((0.25, -1, 1)) == 1
    assert pivot_index((3 + 4j, 5, 4j - 3)) == 0
    assert pivot_index((0, 0.5, -0.5j)) == 1
    assert divide_by_pivot((0, 0.5, -0.5j)) == ((0, 1, -1j), 1)
    assert ProjectivePoint(0.25, -1, 1).pivot_index == 1
    with pytest.raises(ValueError):
        divide_by_pivot((0, 0j, 0.0))


def test_chordal_distance_matches_the_reference_bits():
    pts = [ProjectivePoint(*t) for t in _triples()]
    rng = random.Random(7)
    pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(600)]
    # a point against itself and against its coordinate neighbours
    pairs += [(p, p) for p in pts[-13:]] + list(zip(pts[-13:], pts[-12:]))
    for pp, qq in pairs:
        p, q = pp.coords, qq.coords
        want = distance_reference(p, q).hex()
        assert chordal_distance(p, q, norm(p), norm(q)).hex() == want, (p, q)
        assert pp.distance(qq).hex() == want


def _ball_map(family):
    """A map with ball coefficients at a certified circle root: the
    cuspidal map at n = 8, or the three-lines map at N = 1, 2 or 3."""
    if family == "quad":
        return QuadMap(is_salem(orbit_polynomial(8)).circle_roots[0]), quad_reference
    orbit = {"tl1": OrbitData((2,), (1,)), "tl2": OrbitData((1, 2), (1, 1)),
             "tl3": OrbitData((2, 2, 2), (1, 1, 1))}[family]
    root = salem_from_orbit(orbit).circle_roots[0]
    return TLMap.ball_map(*param_balls(root, orbit)), tl_reference


@pytest.mark.parametrize("family", ["quad", "tl1", "tl2", "tl3"])
def test_chart_jacobian_is_the_quotient_rule_over_the_full_partials(family):
    # one jet per call must give, bit for bit, the Jacobian that the full
    # 3x3 partial matrix gives, at each chart and for ball points
    fmap, reference = _ball_map(family)
    rng = random.Random(28)

    def z():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    for _ in range(40):
        pt = ProjectivePoint(z(), z(), z())
        for radius in (0.0, 1e-9):
            for chart in (0, 1, 2):
                got = chart_jacobian(fmap, pt, chart, radius)
                want = chart_jacobian_reference(fmap, reference, pt, chart,
                                                radius)
                for g_row, w_row in zip(got, want):
                    for g, w in zip(g_row, w_row):
                        assert _bits([g.center]) == _bits([w.center])
                        assert g.radius.hex() == w.radius.hex()
