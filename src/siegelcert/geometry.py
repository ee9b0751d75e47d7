"""Projective points, chordal distance, and affine-chart Jacobians.

A family map object has one evaluator, `jet(x, y, z, cols)`: the three
homogeneous components and, for each coordinate index in cols (0, 1, 2 for
x, y, z), their partials in it, every shared product formed once.  The
components are the same bits for every cols, so `jet(x, y, z, ())[0]` (the
orbit check's image) and the chart Jacobian evaluate one map.  The
formulas are evaluated with either plain complex scalars (fast paths,
finite-difference oracles) or ComplexBall operands (certified paths); only
+, -, * and integer powers are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .balls import ComplexBall
from .errors import ChartFailure


def pivot_index(coords) -> int:
    """Index of the first coordinate of largest modulus of a triple, as
    max() and list.index pick it (NaN moduli included)."""
    m0, m1, m2 = map(abs, coords)
    i, top = (1, m1) if m1 > m0 else (0, m0)
    return 2 if m2 > top else i


def divide_by_pivot(coords) -> tuple[tuple[complex, complex, complex], int]:
    """A homogeneous triple divided by its pivot_index coordinate, and that
    index i; ValueError when all three coordinates vanish.

    The pivot comes out 1 only up to rounding: complex division can leave
    pivot / pivot at 1+4e-17j, for instance, so normalizing the result again
    can change its last bits.  Read i from here, not from pivot_index of the
    result: the quotients can tie in modulus (|x| = |y| gives |y/x| = 1),
    and pivot_index may then pick a coordinate that is a phase, not 1."""
    coords = (complex(coords[0]), complex(coords[1]), complex(coords[2]))
    i = pivot_index(coords)
    pivot = coords[i]
    if pivot == 0:
        raise ValueError("all coordinates zero")
    x, y, z = coords
    return (x / pivot, y / pivot, z / pivot), i


def norm(p) -> float:
    """Euclidean norm of a homogeneous triple."""
    p0, p1, p2 = p
    return math.sqrt(sum((abs(p0) ** 2, abs(p1) ** 2, abs(p2) ** 2)))


def chordal_distance(p, q, p_norm: float, q_norm: float) -> float:
    """Chordal distance of two triples whose norms are given: the norm of
    their cross product over the product of their norms."""
    p0, p1, p2 = p
    q0, q1, q2 = q
    return math.sqrt(sum((abs(p1 * q2 - p2 * q1) ** 2,
                          abs(p2 * q0 - p0 * q2) ** 2,
                          abs(p0 * q1 - p1 * q0) ** 2))) / (p_norm * q_norm)


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous coordinates divided by the largest-modulus one, which is
    then 1 up to rounding (see divide_by_pivot): rebuilding a point from its
    coords can change their last bits."""

    x: complex
    y: complex
    z: complex
    # the index of the coordinate the input was divided by (divide_by_pivot)
    divided_by: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (x, y, z), i = divide_by_pivot((self.x, self.y, self.z))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "divided_by", i)

    @property
    def coords(self) -> tuple[complex, complex, complex]:
        return (self.x, self.y, self.z)

    @property
    def pivot_index(self) -> int:
        return pivot_index(self.coords)

    def conjugate(self) -> "ProjectivePoint":
        """The conjugate point: each coordinate conjugated as it stands, with
        no second division by the pivot, and a real one kept as it is, so a
        zero imaginary part keeps its sign."""
        point = object.__new__(ProjectivePoint)
        for name, c in zip("xyz", self.coords):
            object.__setattr__(point, name, c.conjugate() if c.imag else c)
        object.__setattr__(point, "divided_by", self.divided_by)
        return point

    def distance(self, other: "ProjectivePoint") -> float:
        """Chordal distance: norm of the cross product of unit representatives."""
        p, q = self.coords, other.coords
        return chordal_distance(p, q, norm(p), norm(q))

    def __repr__(self):
        def fmt(c):
            return f"{c.real:+.6g}{c.imag:+.6g}i"
        return f"[{fmt(self.x)} : {fmt(self.y)} : {fmt(self.z)}]"


# chart c: homogeneous coordinate c is held at 1; the local coordinates are
# the remaining two indices in ascending order
_CHART_LOCALS = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def chart_point(point: ProjectivePoint, chart: int):
    i, j = _CHART_LOCALS[chart]
    pivot = point.coords[chart]
    if pivot == 0:
        raise ChartFailure(f"point {point} not in chart {chart}")
    return (point.coords[i] / pivot, point.coords[j] / pivot)


def embed_chart(u, v, chart: int):
    """Homogeneous triple for local coordinates (u, v) of a chart."""
    one = 1.0
    if chart == 0:
        return (one, u, v)
    if chart == 1:
        return (u, one, v)
    return (u, v, one)


def chart_jacobian(family_map, point: ProjectivePoint,
                   chart: int | None = None,
                   point_radius: float = 0.0) -> tuple:
    """Certified 2x2 Jacobian of the chart expression of the map at `point`.

    The chart defaults to the pivot coordinate of the (normalized) point; for
    a fixed point the image then lies in the same chart.  Entries follow the
    quotient rule from one jet of the map: the homogeneous components and
    their partials in the chart's two local coordinates, all in ball
    arithmetic, so the returned matrix ball contains the true derivative.
    point_radius widens the two local coordinates, making the result valid for
    every point within that distance (e.g. a root enclosure rather than its
    center).  Raises ChartFailure if the chart's denominator component
    vanishes.
    """
    if chart is None:
        chart = point.pivot_index
    u, v = chart_point(point, chart)
    i, j = _CHART_LOCALS[chart]
    hom = embed_chart(ComplexBall(complex(u), point_radius),
                      ComplexBall(complex(v), point_radius), chart)
    comps, columns = family_map.jet(*hom, (i, j))
    den = comps[chart]
    lo, _ = den.abs_bounds()
    if lo <= 0.0:
        raise ChartFailure(f"chart {chart} denominator vanishes at {point}")
    inv_den = den.inverse()
    return tuple(tuple((col[out] * den - comps[out] * col[chart])
                       * inv_den * inv_den for col in columns)
                 for out in (i, j))
